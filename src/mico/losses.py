"""Task losses: discrete-time survival negative log-likelihood and
cross-entropy for subtype classification."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _accum, _make
from .errors import ConfigError, DataError


@dataclass
class SurvivalLabel:
    time: float
    event: bool

    def __post_init__(self):
        if self.time < 0 or not math.isfinite(self.time):
            raise DataError(f"survival time must be finite and non-negative, got {self.time}")


@dataclass
class SubtypeLabel:
    class_index: int

    def __post_init__(self):
        if self.class_index < 0:
            raise DataError(f"class index must be non-negative, got {self.class_index}")


def _check_output(out: Tensor, labels: list, n: int, what: str) -> None:
    if out.data.shape != (len(labels), n):
        raise ConfigError(
            f"{what}: expected {len(labels)} rows of {n} outputs, got shape {out.data.shape}")


def survival_nll(hazard_logits: Tensor, labels: list[SurvivalLabel],
                 edges: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Discrete-time hazard NLL of B bags, from their (B, n_bins) logits, each
    label's time binned by ``time_to_bin`` on the fold's interior ``edges``
    (n_bins = len(edges) + 1). Hazards p_b = sigmoid(logit_b), survival
    S_b = prod_{j<=b} (1 - p_j). Observed event in bin b contributes
    -log S_{b-1} - log p_b; a censored sample in bin b contributes -log S_b.
    Returns the summed loss, one tape node, and the (B,) per-bag losses.
    """
    n_bins = len(edges) + 1
    if n_bins < 2:
        raise ConfigError(f"survival_nll: need at least 2 bins, got {n_bins}")
    _check_output(hazard_logits, labels, n_bins, "survival_nll")
    surv_mask = np.zeros((len(labels), n_bins))
    event_mask = np.zeros((len(labels), n_bins))
    for i, label in enumerate(labels):
        b = time_to_bin(label.time, edges)
        if label.event:
            surv_mask[i, :b] = 1.0
            event_mask[i, b] = 1.0
        else:
            surv_mask[i, :b + 1] = 1.0
    x = hazard_logits.data
    log_p = -np.logaddexp(0.0, -x)    # log hazard
    log_q = -np.logaddexp(0.0, x)     # log (1 - hazard)
    per_bag = -((surv_mask * log_q).sum(axis=1) + (event_mask * log_p).sum(axis=1))

    def bw(g):
        # d log p / dx = 1 - p and d log q / dx = -p
        _accum(hazard_logits,
               g * (surv_mask / (1.0 + np.exp(-x)) - event_mask / (1.0 + np.exp(x))))

    return _make(per_bag.sum(), (hazard_logits,), "survival_nll", bw), per_bag


def survival_curve(hazard_logits: np.ndarray) -> np.ndarray:
    """S_b = prod_{j<=b} (1 - sigmoid(logit_j)) as a plain array."""
    # a logit below about -709 overflows exp to inf, and 1/(1 + inf) = 0.0
    # is its hazard
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-np.asarray(hazard_logits, dtype=np.float64).reshape(-1)))
    return np.cumprod(1.0 - p)


def risk_score(hazard_logits: np.ndarray) -> float:
    """Cumulative event probability 1 - S_{B-1}; higher means higher risk."""
    return float(1.0 - survival_curve(hazard_logits)[-1])


def cross_entropy(logits: Tensor, labels: list[SubtypeLabel],
                  n_classes: int) -> tuple[Tensor, np.ndarray]:
    """-log softmax(logits)[class] of B bags, from their (B, n_classes)
    logits. Returns the summed loss, one tape node, and the (B,) per-bag
    losses."""
    if n_classes < 2:
        raise ConfigError(f"cross_entropy: need at least 2 classes, got {n_classes}")
    _check_output(logits, labels, n_classes, "cross_entropy")
    onehot = np.zeros((len(labels), n_classes))
    for i, label in enumerate(labels):
        c = label.class_index
        if c >= n_classes:
            raise ConfigError(f"cross_entropy: class {c} out of range [0, {n_classes})")
        onehot[i, c] = 1.0
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    per_bag = (np.log(s) + m - (onehot * z).sum(axis=1, keepdims=True)).reshape(-1)

    def bw(g):
        _accum(logits, g * (e / s - onehot))

    return _make(per_bag.sum(), (logits,), "cross_entropy", bw), per_bag


def quantile_bin_edges(times, n_bins: int) -> np.ndarray:
    """Interior quantile edges from the training split (censored and
    uncensored times pooled)."""
    t = np.asarray(times, dtype=np.float64)
    if t.size < n_bins:
        raise DataError(f"need at least {n_bins} times to form {n_bins} quantile bins")
    qs = np.arange(1, n_bins) / n_bins
    return np.quantile(t, qs)


def time_to_bin(time: float, edges: np.ndarray) -> int:
    return int(np.searchsorted(np.asarray(edges, dtype=np.float64), time, side="right"))
