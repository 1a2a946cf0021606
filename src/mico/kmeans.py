"""Lloyd's K-means with k-means++ seeding, used to initialize semantic anchors.

The seeding and the assignment step both take squared distances in the
matmul form ‖x‖² − 2·x·c + ‖c‖², and keep one only where a rounding-error
bound (``_matmul_form_err``) proves that the per-center loop over ‖x − c‖²
gives the same result; every other row takes the loop's exact values. So
each output has the loop's bits, whatever the BLAS summation order. Each
Lloyd pass is a full certified assignment plus one gather of each
cluster's rows (``_lloyd_pass``); a pass whose centers have the bits of
the pass before's is that pass again, so ``fit`` reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import blocks
from .errors import ConfigError, DataError

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal
_OVERFLOW = "kmeans: squared distances between instances overflow; rescale the features"
MAX_ITERS = 100
# scikit-learn's default tol: passes past a gain of 1e-4 of the inertia
# trade a few rows between a few centers and lower it by under 0.2% in all
TOL = 1e-4


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
    """Sort positions by label, for labels in range(count). Returns the
    stable order, each label's count, and (j, start, end) for each label j
    that occurs: order[start:end] holds j's positions in index order."""
    # the narrowest unsigned key that holds count - 1 gives the same stable
    # order, and NumPy sorts keys of 16 bits or less by radix
    order = np.argsort(labels.astype(np.min_scalar_type(count - 1)), kind="stable")
    sizes = np.bincount(labels, minlength=count)
    spans, start = [], 0
    for j, end in enumerate(np.cumsum(sizes).tolist()):
        if end > start:
            spans.append((j, start, end))
        start = end
    return order, sizes, spans


def _point_roots(point_sq_norms: np.ndarray, d: int) -> np.ndarray:
    """The points' share of ``_matmul_form_err``'s scale, sqrt(‖x‖² + d·s)
    with s the smallest subnormal: it depends on the points alone, so a fit
    takes it once for the seeding and every assignment step."""
    return np.sqrt(point_sq_norms + d * _SUBNORMAL)


def _matmul_form_err(point_roots: np.ndarray, center_sq_norm: float, d: int) -> np.ndarray:
    """Each row's E: how far the matmul form ‖x‖² − 2·c·x + ‖c‖² may lie
    from the per-center loop's ‖x − c‖², for any center with
    ‖c‖² ≤ ``center_sq_norm``, with room for the roundings of the tests
    that use it; ``point_roots`` is ``_point_roots`` of the rows' ‖x‖².
    Overflow is the caller's to ignore: a bound that is not finite proves
    nothing, and its row goes to the loop.

    Both forms are within γ_{d+2}·(‖x‖ + ‖c‖)² of the true distance,
    γ_m = m·u/(1 − m·u) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §3.1), so they differ by less than E₀ = 2·γ_{d+2}·S²,
    S = ‖x‖ + ‖c‖. This E = 2·γ_{d+4}·S² plus a few subnormal spacings
    (which cover any underflow) is larger: E − E₀ = 2·(γ_{d+4} − γ_{d+2})·S²
    ≥ 4u·S². That slack, which exceeds the few roundings in E itself (a few
    u of E), pays for rounding a sum or difference with E of size up to
    S² + 3E, less than u·S²·(1 + 6γ_{d+4}).
    """
    scale = point_roots + np.sqrt(center_sq_norm + d * _SUBNORMAL)
    gamma = (d + 4) * _UNIT_ROUNDOFF / (1 - (d + 4) * _UNIT_ROUNDOFF)
    return 2 * gamma * scale * scale + 8 * (d + 2) * _SUBNORMAL


def _exact_sq_dists(points: np.ndarray, rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``np.sum((points[rows] - c) ** 2, axis=1)``, the same values, computed
    as a blocked pass (``blocks``) over the rows."""
    out = np.empty(len(rows))
    for s, (block,) in blocks((len(rows), points.shape[1]), 1):
        # mode="clip" writes straight into the block; "raise" would buffer
        np.take(points, rows[s], axis=0, out=block, mode="clip")
        block -= c
        with np.errstate(over="ignore"):  # an overflow raises DataError in the seeding
            np.square(block, out=block)
            block.sum(axis=1, out=out[s])
    return out


def _lower_to_center(d2: np.ndarray, points: np.ndarray, point_sq_norms: np.ndarray,
                     point_roots: np.ndarray, c: np.ndarray) -> None:
    """Lower ``d2`` in place to ``np.minimum(d2, np.sum((points - c) ** 2,
    axis=1))``, with those bits, at the cost of one matrix-vector product.

    The distances to ``c`` are first taken as e = ‖x‖² − 2·x·c + ‖c‖², each
    within E of the loop's (``_matmul_form_err``, with S = ‖x‖ + ‖c‖). A row
    keeps its ``d2`` when fl(e − E) is finite and exceeds it: the slack of E
    covers rounding that difference, so the loop's distance is above
    e − E₀ > d2 and the minimum is ``d2``. Every other row, the ones that
    ``c`` may win, near-ties and rows whose bound is not finite (an
    overflowing norm or cross term, a NaN), takes the loop's exact value.
    """
    d = points.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        c_sq_norm = np.dot(c, c)
        lower = points @ (c * -2.0)
        lower += point_sq_norms
        lower += c_sq_norm
        lower -= _matmul_form_err(point_roots, c_sq_norm, d)
        kept = lower > d2
        kept &= lower < np.inf
    rows = np.flatnonzero(~kept)
    if rows.size:
        d2[rows] = np.minimum(d2[rows], _exact_sq_dists(points, rows, c))


def _plus_plus_seed(points: np.ndarray, point_sq_norms: np.ndarray, point_roots: np.ndarray,
                    k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ centers (Arthur & Vassilvitskii 2007), drawn from ``rng``
    exactly as the textbook loop over ``np.sum((points - c) ** 2, axis=1)``
    draws them. The first center's distances are the loop's, a block of rows
    at a time; each later center costs one matrix-vector product plus the
    loop's work on the rows that it may win (``_lower_to_center``)."""
    n, d = points.shape
    centers = np.empty((k, d), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    d2 = _exact_sq_dists(points, np.arange(n), centers[0])
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
        _lower_to_center(d2, points, point_sq_norms, point_roots, centers[i])
    return centers


def _assign(points: np.ndarray, point_sq_norms: np.ndarray, point_roots: np.ndarray,
            centers: np.ndarray) -> np.ndarray:
    """The argmin over centers of ``_sq_dists(points, centers)``, exactly.

    One matmul fills the (k, n) block ``dist`` with the matmul-form
    distances ‖x‖² − 2·c·x + ‖c‖², each within E of the loop's
    (``_matmul_form_err``, with S = ‖x‖ + max‖c‖ over the centers),
    whatever the BLAS summation order.

    A row is certified when exactly one center lies within 2E of the row's
    minimum ``best``: dist ≤ fl(best + 2E). That center is the minimum's.
    Any other center j has dist_j > fl(best + 2E), and the slack of each E
    covers rounding that sum, so dist_j − best > 2E₀: the loop's distance
    to j exceeds its distance to the certified center, and the certified
    center is the loop's argmin. Every other row is recomputed with the
    loop, which breaks ties toward the lower index: near-ties, duplicate
    centers, an exact tie in the matmul form whichever index its minimum
    would fall on, and any row whose bound is not finite (an overflowing
    norm or cross term, or a NaN, which ``np.minimum`` passes on).
    """
    d = points.shape[1]
    k = centers.shape[0]
    center_sq_norms = _row_sq_norms(centers)
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.matmul(centers * -2.0, points.T)
        dist += point_sq_norms
        dist += center_sq_norms[:, None]
        bound = np.minimum.reduce(dist, axis=0)
        bound += 2 * _matmul_form_err(point_roots, center_sq_norms.max(), d)
        near = (dist <= bound).view(np.uint8)
    # counts and indices fit the narrowest unsigned type that holds k
    key = np.min_scalar_type(k)
    count = np.add.reduce(near, axis=0, dtype=key)
    # a certified row's one near center; other rows are overwritten below
    best = np.einsum("k,kn->n", np.arange(k, dtype=key), near).astype(np.intp)
    open_rows = np.flatnonzero((count != 1) | ~np.isfinite(bound))
    # a block of open rows at a time, so even a pool of near-ties holds no
    # (n, d) copy; each row's distances are the same in any block
    for part, _ in blocks((open_rows.size, d)):
        rows = open_rows[part]
        best[rows] = np.argmin(_sq_dists(points[rows], centers), axis=1)
    return best


def _lloyd_pass(points: np.ndarray, point_sq_norms: np.ndarray, point_roots: np.ndarray,
                centers: np.ndarray) -> tuple[np.ndarray, ...]:
    """One Lloyd pass: each row's center (``_assign``), each center's mean
    of its rows (a center with no rows keeps its place), each center's row
    count, and each row's squared distance to its center, with the bits of
    its ``_sq_dists`` entry.

    The rows of each center are gathered in index order into one buffer the
    size of the largest cluster, so no copy of all n rows is made. Each
    block has the contents and layout of ``points[labels == j]``:
    ``np.add.reduce`` over it and a division by its count give
    ``block.mean(axis=0)``'s bits. The block is then shifted in place by its
    center, and one ``einsum`` gives each of its rows its distance.
    """
    labels = _assign(points, point_sq_norms, point_roots, centers)
    order, sizes, spans = _groups(labels, centers.shape[0])
    buffer = np.empty((sizes.max(), points.shape[1]))
    means = centers.copy()
    d2 = np.empty(len(labels))
    # an overflowing sum or distance raises DataError in fit's loop
    with np.errstate(over="ignore"):
        for j, start, end in spans:
            block = buffer[:end - start]
            # mode="clip" writes straight into the block; "raise" would buffer
            np.take(points, order[start:end], axis=0, out=block, mode="clip")
            np.add.reduce(block, axis=0, out=means[j])
            block -= centers[j]
            np.einsum("nd,nd->n", block, block, out=d2[start:end])
    filled = sizes > 0
    means[filled] /= sizes[filled, None]
    point_d2 = np.empty_like(d2)
    point_d2[order] = d2
    return labels, means, sizes, point_d2


def fit(instances: np.ndarray, k: int, seed: int = 0) -> KMeansResult:
    """Cluster instance rows into ``k`` centers.

    Stops after the first Lloyd pass whose inertia falls by less than
    ``TOL`` of the pass before's, or after ``MAX_ITERS`` passes. Empty
    clusters are re-seeded to the point currently farthest from its
    assigned center, so exactly ``k`` centers always survive. Features
    whose squared distances overflow raise DataError. Each pass is a full
    certified assignment (``_assign``) plus one gather per cluster
    (``_lloyd_pass``); a pass whose repaired means equal its centers bit for
    bit is settled, and the passes after it, the final one too, reuse it.
    Temporaries are the (k, n) distance block, a few (n,) vectors and the
    largest cluster's rows, never an (n, d) copy of the instances.
    """
    X = np.asarray(instances, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ConfigError(f"kmeans: instances must be a 2-D matrix, got shape {X.shape}")
    if not all(np.isfinite(X[rows]).all() for rows, _ in blocks(X.shape)):
        raise DataError("kmeans: non-finite instance features")
    n = X.shape[0]
    if k < 1 or n < k:
        raise ConfigError(f"kmeans: need at least k={k} instances, got {n}")

    rng = np.random.default_rng(seed)
    x_sq_norms = _row_sq_norms(X)
    x_roots = _point_roots(x_sq_norms, X.shape[1])
    centers = _plus_plus_seed(X, x_sq_norms, x_roots, k, rng)
    history: list[float] = []
    iters = 0
    settled = False

    for iters in range(1, MAX_ITERS + 1):
        # a pass over centers with the bits of the last pass's repeats it
        if not settled:
            labels, means, sizes, point_d2 = _lloyd_pass(X, x_sq_norms, x_roots, centers)
        inertia = float(point_d2.sum())
        if not np.isfinite(inertia):
            raise DataError(_OVERFLOW)
        history.append(inertia)

        # repair empty clusters with the globally worst-fit point; the
        # repair works on copies, since a settled pass is reused
        repaired = means.copy()
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            far_d2 = point_d2.copy()
            for j in empty:
                far = int(np.argmax(far_d2))
                repaired[j] = X[far]
                far_d2[far] = 0.0
        settled = bool((repaired.view(np.uint64) == centers.view(np.uint64)).all())
        centers = repaired

        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev - cur < TOL * max(prev, 1e-300):
                break

    # final pass so that every returned center is exactly the mean of its
    # assigned points (clusters left empty by the last update keep their center)
    if not settled:
        labels, means, _, _ = _lloyd_pass(X, x_sq_norms, x_roots, centers)
    return KMeansResult(centers=means, assignments=labels,
                        inertia_history=history, iterations_run=iters)


def subsample_pool(bags, cap: int, seed: int = 0) -> np.ndarray:
    """Uniform sample without replacement of up to ``cap`` instance rows
    pooled across all bags; deterministic under ``seed``. Sizes come from
    each bag's ``shape``. Each bag with sampled rows has its ``features``
    read once, in bag order, and only those rows copied before the next, so
    memory is bounded by ``cap`` rows and one bag's file, not the pool; a
    bag with none is not read."""
    if not bags:
        raise DataError("subsample_pool: empty bag list")
    if cap < 1:
        raise ConfigError(f"subsample_pool: cap must be positive, got {cap}")
    widths = {b.shape[1] for b in bags}
    if len(widths) > 1:
        raise DataError(f"subsample_pool: bags have feature widths {sorted(widths)}")
    starts = np.cumsum([0] + [b.shape[0] for b in bags])
    rng = np.random.default_rng(seed)
    n = int(starts[-1])
    take = min(cap, n)
    idx = rng.permutation(n)[:take]
    owner = np.searchsorted(starts, idx, side="right") - 1
    pool = np.empty((take, widths.pop()))
    order, _, spans = _groups(owner, len(bags))
    for b, start, end in spans:
        picked = order[start:end]
        pool[picked] = bags[b].features[idx[picked] - starts[b]]
    return pool
