"""Lloyd's K-means with k-means++ seeding, used to initialize semantic anchors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class KMeansResult:
    centers: np.ndarray              # (k, d)
    assignments: np.ndarray          # (n,) center index per instance
    inertia_history: list[float] = field(default_factory=list)
    iterations_run: int = 0


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, one center at a time: the temporary is
    (n, d), never (n, k, d)."""
    d2 = np.empty((points.shape[0], centers.shape[0]))
    for j, c in enumerate(centers):
        diff = points - c
        d2[:, j] = np.einsum("nd,nd->n", diff, diff)
    return d2


def _plus_plus_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at existing centers; fall back to uniform choice
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[i] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def _recenter(centers: np.ndarray, points: np.ndarray, assignments: np.ndarray) -> None:
    """Move every center that has assigned points, in place, to their mean."""
    for j in range(centers.shape[0]):
        mask = assignments == j
        if mask.any():
            centers[j] = points[mask].mean(axis=0)


def fit(instances: np.ndarray, k: int, max_iters: int = 100,
        tol: float = 1e-6, seed: int = 0) -> KMeansResult:
    """Cluster instance rows into ``k`` centers.

    Stops when the relative inertia improvement drops below ``tol`` or after
    ``max_iters`` Lloyd iterations. Empty clusters are re-seeded to the point
    currently farthest from its assigned center, so exactly ``k`` centers
    always survive.
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
    history: list[float] = []
    assignments = np.zeros(n, dtype=np.int64)
    iters = 0

    for iters in range(1, max_iters + 1):
        d2 = _sq_dists(X, centers)
        assignments = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), assignments].sum())
        history.append(inertia)

        new_centers = centers.copy()
        _recenter(new_centers, X, assignments)
        # repair empty clusters with the globally worst-fit point
        point_d2 = d2[np.arange(n), assignments]
        for j in range(k):
            if not (assignments == j).any():
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
    d2 = _sq_dists(X, centers)
    assignments = np.argmin(d2, axis=1)
    _recenter(centers, X, assignments)
    return KMeansResult(centers=centers, assignments=assignments,
                        inertia_history=history, iterations_run=iters)


def subsample_pool(bags, cap: int, seed: int = 0) -> np.ndarray:
    """Uniform sample without replacement of up to ``cap`` instance rows
    pooled across all bags; deterministic under ``seed``."""
    if not bags:
        raise DataError("subsample_pool: empty bag list")
    if cap < 1:
        raise ConfigError(f"subsample_pool: cap must be positive, got {cap}")
    pool = np.concatenate([np.asarray(b.features, dtype=np.float64) for b in bags], axis=0)
    rng = np.random.default_rng(seed)
    n = pool.shape[0]
    take = min(cap, n)
    idx = rng.permutation(n)[:take]
    return pool[idx]
