"""Evaluation metrics: concordance index, accuracy, macro-F1, binary and
macro AUC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import blocks
from .errors import DataError, UndefinedMetricError
from .losses import SubtypeLabel, SurvivalLabel


# Pair counts are ``blocks`` passes of this many pairs a block, so the boolean
# temporaries stay near 2 MiB each whatever the sample count. Every count is
# an integer and every credit a multiple of 0.5, so the result has the bits
# of one (n, n) pass.
_PAIR_BLOCK = 1 << 21


def c_index(risks, labels: list[SurvivalLabel]) -> float:
    """Concordance over comparable pairs.

    A pair (i, j) is comparable when time_i < time_j and sample i had an
    observed event. Credit 1 when risk_i > risk_j, 0.5 on risk ties.
    """
    r = np.asarray(risks, dtype=np.float64)
    if len(labels) != r.size:
        raise DataError(f"c_index: {r.size} risks vs {len(labels)} labels")
    if r.size < 2:
        raise UndefinedMetricError("c_index: need at least 2 samples")
    t = np.array([lab.time for lab in labels])
    e = np.array([lab.event for lab in labels], dtype=bool)

    n_pairs = concordant = ties = 0
    for rows, _ in blocks((r.size, r.size), budget=_PAIR_BLOCK):
        comparable = (t[rows, None] < t) & e[rows, None]
        n_pairs += np.count_nonzero(comparable)
        concordant += np.count_nonzero(comparable & (r[rows, None] > r))
        ties += np.count_nonzero(comparable & (r[rows, None] == r))
    if n_pairs == 0:
        raise UndefinedMetricError("c_index: no comparable pairs")
    return float((concordant + 0.5 * ties) / n_pairs)


def binary_auc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC of class-1 scores, with tie credit 0.5."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    pos = s[y == 1]
    neg = s[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise UndefinedMetricError("auc: both classes must be present")
    greater = ties = 0
    for rows, _ in blocks((pos.size, neg.size), budget=_PAIR_BLOCK):
        greater += np.count_nonzero(pos[rows, None] > neg)
        ties += np.count_nonzero(pos[rows, None] == neg)
    return float((greater + 0.5 * ties) / (pos.size * neg.size))


@dataclass
class ClassificationMetrics:
    acc: float
    macro_f1: float
    auc: float | None  # None when undefined (single-class label set)


def classification_metrics(scores, labels: list[SubtypeLabel]) -> ClassificationMetrics:
    """Accuracy and macro-F1 with argmax predictions, plus AUC: binary on the
    class-1 score column for two classes; for more, the one-vs-rest macro
    AUC, the mean over the classes present of each class's binary AUC against
    the rest. ACC/F1 are always returned; AUC is None when only one class is
    present."""
    s = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    y = np.array([lab.class_index for lab in labels], dtype=np.int64)
    if s.shape[0] != y.size:
        raise DataError(f"classification_metrics: {s.shape[0]} score rows vs {y.size} labels")
    if y.size < 1:
        raise DataError("classification_metrics: empty input")
    n_classes = s.shape[1]
    pred = np.argmax(s, axis=1)
    acc = float((pred == y).mean())

    f1s = []
    for c in range(n_classes):
        tp = int(((pred == c) & (y == c)).sum())
        fp = int(((pred == c) & (y != c)).sum())
        fn = int(((pred != c) & (y == c)).sum())
        f1s.append(0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn))
    macro_f1 = float(np.mean(f1s))

    try:
        if n_classes == 2:
            auc = binary_auc(s[:, 1], y)
        else:  # one class alone present raises here too
            auc = float(np.mean([binary_auc(s[:, c], y == c) for c in np.unique(y)]))
    except UndefinedMetricError:
        auc = None
    return ClassificationMetrics(acc=acc, macro_f1=macro_f1, auc=auc)
