"""MiCo: multiple-instance learning with context-aware cluster routing.

Bags of instance features are routed to learnable semantic anchors by cosine
similarity with a straight-through hard assignment, refined with aggregated
anchor context, and progressively consolidated by halving the anchor set,
before a pooled bag feature feeds a survival or subtyping head.
"""

import ctypes
import os

from .autodiff import Adam, Tensor, backward, zero_grad
from .data import FeatureBag, SynthConfig, generate, make_folds, read_bag, write_bag
from .kmeans import KMeansResult, fit as kmeans_fit, subsample_pool
from .losses import SubtypeLabel, SurvivalLabel, cross_entropy, survival_nll
from .metrics import binary_auc, c_index, classification_metrics
from .model import Assignment, MicoConfig, MicoModel
from .train import RunReport, TrainConfig, ablate, evaluate_model, sweep_anchors

__all__ = [
    "Adam", "Tensor", "backward", "zero_grad",
    "FeatureBag", "SynthConfig", "generate", "make_folds", "read_bag", "write_bag",
    "KMeansResult", "kmeans_fit", "subsample_pool",
    "SubtypeLabel", "SurvivalLabel", "cross_entropy", "survival_nll",
    "binary_auc", "c_index", "classification_metrics",
    "Assignment", "MicoConfig", "MicoModel",
    "RunReport", "TrainConfig", "ablate", "evaluate_model", "sweep_anchors",
]

__version__ = "0.1.0"

# The ceiling of glibc's adaptive malloc thresholds on 64-bit:
# DEFAULT_MMAP_THRESHOLD_MAX, and the trim threshold its rule keeps at twice
# the mmap threshold. mallopt's parameter numbers are from <malloc.h>.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# environment settings of glibc's malloc that a deployment may have chosen
_GLIBC_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")


def _set_malloc_thresholds(environ=os.environ) -> bool:
    """Start glibc's malloc thresholds where its adaptive rule ends up.

    glibc starts both thresholds at 128 KiB: a larger array gets a mapping of
    its own, unmapped when freed, and a free heap top beyond 128 KiB goes back
    to the kernel. Each pack scored and each training step frees its working
    arrays, and the next one would fault the same pages in again. At the
    ceiling, up to 64 MiB of freed heap stays mapped for the next pack to
    reuse, and arrays above 32 MiB still get, and return, mappings of their
    own. No arithmetic changes, so no output does.

    Does nothing off glibc, where `mallopt` is missing or refuses a value,
    and where the environment already sets a glibc malloc option: a
    deployment's settings win. Returns whether both thresholds were set.
    """
    if (any(name in environ for name in _GLIBC_MALLOC_ENV)
            or "glibc.malloc." in environ.get("GLIBC_TUNABLES", "")):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
    except (AttributeError, ValueError, OSError):
        return False
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        return False
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))


# whether this process runs under the thresholds above
MALLOC_THRESHOLDS_SET = _set_malloc_thresholds()
