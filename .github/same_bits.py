"""Train and score a fixed set of same-seed runs; print a digest of each output.

    python .github/same_bits.py [--stream] OUT

Writes the synthetic datasets and every run under OUT, which must not exist,
then prints the SHA-256 of each file under OUT in sorted order (report.json
with its wall clock masked), the metrics and the SHA-256 of the logits of 600
bags scored by one checkpoint, the c-index and the SHA-256 of the risk scores
of 80 survival bags, the passes and the SHA-256 of the centers of three
K-means fits, and the gradient check's errors. The mico on the import path
is the one measured: two processes, or a change and its parent, under the
same BLAS build and thread count, must print the same lines.
With --stream every dataset bag is read from its file at each use
(``mico.data.RESIDENT_BYTES = 0``), which must not move a line either.
"""

import argparse
import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np

import mico.data
from mico import kmeans
from mico.data import SynthConfig, generate, read_dataset, write_dataset
from mico.losses import risk_score
from mico.train import (TrainConfig, _model_from_checkpoint, _outputs, ablate,
                        end_to_end_gradcheck, evaluate_model, sweep_anchors, train)

parser = argparse.ArgumentParser()
parser.add_argument("out")
parser.add_argument("--stream", action="store_true", help="keep no bag resident")
args = parser.parse_args()
if args.stream:
    mico.data.RESIDENT_BYTES = 0
out = Path(args.out)
out.mkdir(parents=True)
TASKS = ("subtype", "survival")


def data(name, **synth):
    write_dataset(generate(SynthConfig(**synth)), str(out / "data" / name))
    return read_dataset(str(out / "data" / name))


def run(name, bags, **config):
    train(TrainConfig(**config), bags, out_dir=str(out / name))


# both tasks at d=16, and the ablations: the smallest runs
small = dict(seed=5, epochs=3, anchor_count=8, layers=2)
for task in TASKS:
    bags = data(f"small-{task}", n_bags=40, d=16, seed=3, task=task)
    run(f"small-{task}", bags, task=task, **small)
    if task == "subtype":
        ablate(TrainConfig(task=task, **small), bags, out_dir=str(out / "small-ablate"))
        sweep_anchors(TrainConfig(task=task, **small), bags, counts=(4, 8),
                      out_dir=str(out / "small-sweep"))
# d=256 and M of 400-600, where row blocks split and BLAS threads
bags = data("blocks", n_bags=8, d=256, seed=3, task="subtype", m_range=(400, 600))
for pooling in ("gated_attention", "anchor_mean"):
    run(f"blocks-{pooling}", bags, seed=5, task="subtype", pooling=pooling, anchor_count=32,
        layers=3, n_folds=2, epochs=2)
# every task, pooling and ablation
for task in TASKS:
    bags = data(f"grid-{task}", n_bags=24, d=6, seed=7, task=task, m_range=(5, 12))
    for pooling, route, reducer, init in itertools.product(
            ("gated_attention", "anchor_mean"), *[(False, True)] * 3):
        run(f"grid/{task}-{pooling}-route{route:d}-reducer{reducer:d}-init{init:d}", bags,
            seed=7, task=task, pooling=pooling, ablate_route=route, ablate_reducer=reducer,
            ablate_kmeans_init=init, n_folds=2, epochs=3, anchor_count=8, layers=2, lr=1e-2)
# gradient accumulation over one, two and five bags
for task in TASKS:
    bags = data(f"accum-{task}", n_bags=80, d=32, seed=7, task=task)
    for accum in (1, 2, 5):
        run(f"accum/{task}-{accum}", bags, seed=7, task=task, grad_accum=accum, epochs=3,
            anchor_count=16, layers=2, lr=2e-3)

# 600 bags, about 22 packs, for one checkpoint to score
score = data("score", n_bags=600, d=16, seed=4, task="subtype")

for path in sorted(p for p in out.rglob("*") if p.is_file()):
    blob = path.read_bytes()
    if path.name == "report.json":
        # the file's own bytes, so its layout counts too, less the wall clock
        blob = re.sub(rb'"wall_clock_s": [^\n,]*', b'"wall_clock_s": 0', blob)
    print(hashlib.sha256(blob).hexdigest(), path.relative_to(out))

# a last-bit change in scoring moves the logits' digest where the metrics stay put
model = _model_from_checkpoint(str(out / "small-subtype" / "fold0.mico"), score)
logits = _outputs(model, score)
print("score", json.dumps(evaluate_model(model, score), sort_keys=True), logits.shape,
      hashlib.sha256(logits.tobytes()).hexdigest())
# survival scoring goes through risk_score and c_index, which subtype skips
survival = read_dataset(str(out / "data" / "accum-survival"))
model = _model_from_checkpoint(str(out / "accum" / "survival-2" / "fold0.mico"), survival)
risks = np.array([risk_score(z) for z in _outputs(model, survival)])
print("survival", json.dumps(evaluate_model(model, survival), sort_keys=True), risks.shape,
      hashlib.sha256(risks.tobytes()).hexdigest())
# a change to K-means's stop rule or passes shows here under its own name:
# the 600-bag pool, under the stop rule and under the former 1e-6 rule, whose
# long tails of passes move few centers, and a pool of slide-sized bags
pool = kmeans.subsample_pool(score, 4096, seed=0)
slides = generate(SynthConfig(n_bags=3, d=512, seed=4, task="subtype", m_range=(1024, 1024)))
fits = [kmeans.fit(pool, 16, seed=0)]
tol = kmeans.TOL
try:
    kmeans.TOL = 1e-6
    fits.append(kmeans.fit(pool, 16, seed=0))
finally:
    kmeans.TOL = tol
fits.append(kmeans.fit(kmeans.subsample_pool(slides, 2048, seed=0), 64, seed=0))
for result in fits:
    print("kmeans", result.iterations_run, hashlib.sha256(result.centers.tobytes()).hexdigest())
for task, pack in itertools.product(TASKS, (1, 3)):
    print("gradcheck", task, pack, repr(end_to_end_gradcheck(task, pack=pack)))
