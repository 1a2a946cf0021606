"""Print the shape and SHA-256 of the logits a checkpoint gives a dataset.

    python .github/logit_digest.py CHECKPOINT DATA_DIR

The logits are those `mico evaluate` scores, one forward per pack, so a
change in their last bit changes the digest even where the metrics stay the
same. The mico on the import path is the one measured.
"""

import hashlib
import importlib
import sys

# `mico.train` names the function `train` in the package namespace, so the
# module is reached through importlib
train = importlib.import_module("mico.train")
data = importlib.import_module("mico.data")

checkpoint, data_dir = sys.argv[1:]
bags = data.read_dataset(data_dir)
logits = train._outputs(train._model_from_checkpoint(checkpoint, bags), bags)
print(f"logits {logits.shape} {logits.dtype} sha256 {hashlib.sha256(logits.tobytes()).hexdigest()}")
