"""Lloyd's K-means with k-means++ seeding, used to initialize semantic anchors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal
_SEED_BLOCK = 1 << 15  # elements per block of k-means++ distances: 256 KiB
_OVERFLOW = "kmeans: squared distances between instances overflow; rescale the features"


@dataclass
class KMeansResult:
    centers: np.ndarray              # (k, d)
    assignments: np.ndarray          # (n,) center index per instance
    inertia_history: list[float] = field(default_factory=list)
    iterations_run: int = 0


def _row_sq_norms(a: np.ndarray) -> np.ndarray:
    return np.einsum("nd,nd->n", a, a)


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, one center at a time: the temporary is
    (n, d), never (n, k, d). These are the values every assignment follows."""
    d2 = np.empty((points.shape[0], centers.shape[0]))
    for j, c in enumerate(centers):
        d2[:, j] = _row_sq_norms(points - c)
    return d2


def _groups(labels: np.ndarray, count: int):
    """(j, the positions holding label j in index order) for each label j in
    range(count) that occurs."""
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=count))
    start = 0
    for j, end in enumerate(ends):
        if end > start:
            yield j, order[start:end]
        start = end


def _assign(points: np.ndarray, point_sq_norms: np.ndarray,
            centers: np.ndarray) -> np.ndarray:
    """The argmin over centers of ``_sq_dists(points, centers)``, exactly.

    The distances are first taken as ‖x‖² − 2·x·c + ‖c‖², one matmul. Both
    that form and the per-center loop are within γ_{d+2}·(‖x‖ + ‖c‖)² of the
    true distance, γ_m = m·u/(1 − m·u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, §3.1), so they differ by less than
    E = 2·γ_{d+4}·(‖x‖ + max‖c‖)²; the extra terms in γ and a few subnormal
    spacings cover the rounding of E, of the gap and of any underflow. A row
    whose second-best distance exceeds its best by more than 2E has the
    loop's argmin. Every other row (near-ties, duplicate centers, overflow)
    is recomputed with the loop, which breaks ties toward the lower index.
    """
    n, d = points.shape
    center_sq_norms = _row_sq_norms(centers)
    rows = np.arange(n)
    # an overflowing norm makes its row's gap or bound inf or NaN, which
    # leaves the row to the loop
    with np.errstate(over="ignore", invalid="ignore"):
        dist = points @ centers.T
        dist *= -2.0
        dist += point_sq_norms[:, None]
        dist += center_sq_norms
        best = np.argmin(dist, axis=1)
        best_d2 = dist[rows, best]
        dist[rows, best] = np.inf
        gap = dist.min(axis=1) - best_d2
        floor = d * _SUBNORMAL
        scale = np.sqrt(point_sq_norms + floor) + np.sqrt(center_sq_norms.max() + floor)
        gamma = (d + 4) * _UNIT_ROUNDOFF / (1 - (d + 4) * _UNIT_ROUNDOFF)
        err = 2 * gamma * scale * scale + 8 * (d + 2) * _SUBNORMAL
        open_rows = np.flatnonzero(~(gap > 2 * err))
    if open_rows.size:
        best[open_rows] = np.argmin(_sq_dists(points[open_rows], centers), axis=1)
    return best


def _plus_plus_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n, d = points.shape
    centers = np.empty((k, d), dtype=np.float64)
    step = max(1, _SEED_BLOCK // d)
    buf = np.empty((min(step, n), d))

    def sq_dists_to(c: np.ndarray) -> np.ndarray:
        """``np.sum((points - c) ** 2, axis=1)``, the same values, computed a
        block of rows at a time in one cache-sized buffer."""
        out = np.empty(n)
        for start in range(0, n, step):
            block = buf[:min(step, n - start)]
            np.subtract(points[start:start + step], c, out=block)
            with np.errstate(over="ignore"):  # an overflow raises DataError below
                np.square(block, out=block)
            block.sum(axis=1, out=out[start:start + step])
        return out

    centers[0] = points[rng.integers(n)]
    d2 = sq_dists_to(centers[0])
    for i in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise DataError(_OVERFLOW)
        if total <= 0.0:
            # all remaining mass at existing centers; fall back to uniform choice
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[i] = points[idx]
        d2 = np.minimum(d2, sq_dists_to(centers[i]))
    return centers


def _recenter(centers: np.ndarray, points: np.ndarray, assignments: np.ndarray) -> None:
    """Move every center that has assigned points, in place, to their mean.
    Each mean sums the same array, in the same order, as
    ``points[assignments == j]``."""
    for j, rows in _groups(assignments, centers.shape[0]):
        centers[j] = points[rows].mean(axis=0)


def fit(instances: np.ndarray, k: int, max_iters: int = 100,
        tol: float = 1e-6, seed: int = 0) -> KMeansResult:
    """Cluster instance rows into ``k`` centers.

    Stops when the relative inertia improvement drops below ``tol`` or after
    ``max_iters`` Lloyd iterations. Empty clusters are re-seeded to the point
    currently farthest from its assigned center, so exactly ``k`` centers
    always survive. Features whose squared distances overflow raise
    DataError. Temporaries are (n, k) and (n, d), never (n, k, d).
    """
    X = np.asarray(instances, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ConfigError(f"kmeans: instances must be a 2-D matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError("kmeans: non-finite instance features")
    n = X.shape[0]
    if k < 1 or n < k:
        raise ConfigError(f"kmeans: need at least k={k} instances, got {n}")

    rng = np.random.default_rng(seed)
    centers = _plus_plus_seed(X, k, rng)
    x_sq_norms = _row_sq_norms(X)
    history: list[float] = []
    assignments = np.zeros(n, dtype=np.int64)
    iters = 0

    for iters in range(1, max_iters + 1):
        assignments = _assign(X, x_sq_norms, centers)
        # each row's _sq_dists entry at its center, bit for bit
        with np.errstate(over="ignore"):
            point_d2 = _row_sq_norms(X - centers[assignments])
        inertia = float(point_d2.sum())
        if not np.isfinite(inertia):
            raise DataError(_OVERFLOW)
        history.append(inertia)

        new_centers = centers.copy()
        _recenter(new_centers, X, assignments)
        # repair empty clusters with the globally worst-fit point
        for j in np.flatnonzero(np.bincount(assignments, minlength=k) == 0):
            far = int(np.argmax(point_d2))
            new_centers[j] = X[far]
            point_d2[far] = 0.0
        centers = new_centers

        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev - cur < tol * max(prev, 1e-300):
                break

    # final pass so that every returned center is exactly the mean of its
    # assigned points (clusters left empty by the last update keep their center)
    assignments = _assign(X, x_sq_norms, centers)
    _recenter(centers, X, assignments)
    return KMeansResult(centers=centers, assignments=assignments,
                        inertia_history=history, iterations_run=iters)


def subsample_pool(bags, cap: int, seed: int = 0) -> np.ndarray:
    """Uniform sample without replacement of up to ``cap`` instance rows
    pooled across all bags; deterministic under ``seed``. Only the sampled
    rows are copied, so memory is bounded by ``cap`` rows, not the pool."""
    if not bags:
        raise DataError("subsample_pool: empty bag list")
    if cap < 1:
        raise ConfigError(f"subsample_pool: cap must be positive, got {cap}")
    features = [np.asarray(b.features, dtype=np.float64) for b in bags]
    widths = {f.shape[1] for f in features}
    if len(widths) > 1:
        raise DataError(f"subsample_pool: bags have feature widths {sorted(widths)}")
    starts = np.cumsum([0] + [f.shape[0] for f in features])
    rng = np.random.default_rng(seed)
    n = int(starts[-1])
    take = min(cap, n)
    idx = rng.permutation(n)[:take]
    owner = np.searchsorted(starts, idx, side="right") - 1
    pool = np.empty((take, widths.pop()))
    for b, picked in _groups(owner, len(features)):
        pool[picked] = features[b][idx[picked] - starts[b]]
    return pool
