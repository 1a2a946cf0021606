import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mico import autodiff as ad, data, kmeans
from mico.data import FeatureBag, StreamedBag, read_dataset, write_dataset
from mico.errors import ConfigError, DataError
from mico.losses import SubtypeLabel
from mico.train import train
from test_acceptance import _dataset, _train_config

# derandomized: the suite draws the same examples on every run
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def blobs(rng, centers, n_per, std):
    pts = [c + rng.normal(0, std, size=(n_per, len(c))) for c in centers]
    return np.concatenate(pts)


class TestFit:
    def test_each_point_its_own_cluster(self):
        X = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        res = kmeans.fit(X, k=3, seed=0)
        assert sorted(map(tuple, res.centers)) == sorted(map(tuple, X))
        assert res.inertia_history[-1] == 0.0

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(0)
        means = [np.array([0.0, 0.0]), np.array([20.0, 20.0])]
        X = blobs(rng, means, 50, 0.5)
        res = kmeans.fit(X, k=2, seed=1)
        found = sorted(map(tuple, res.centers))
        for f, m in zip(found, sorted(map(tuple, means))):
            assert np.linalg.norm(np.array(f) - np.array(m)) < 0.1

    def test_k1_is_global_mean(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 3))
        res = kmeans.fit(X, k=1, seed=0)
        assert np.array_equal(res.centers[0], X.mean(axis=0))

    def test_inertia_monotone_non_increasing(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 5))
        res = kmeans.fit(X, k=7, seed=3)
        h = res.inertia_history
        assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 4))
        a = kmeans.fit(X, k=5, seed=9)
        b = kmeans.fit(X, k=5, seed=9)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.assignments, b.assignments)

    def test_centers_are_means_of_assigned_points(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((150, 3))
        res = kmeans.fit(X, k=6, seed=5)
        for j in range(6):
            mask = res.assignments == j
            if mask.any():
                assert np.max(np.abs(res.centers[j] - X[mask].mean(axis=0))) < 1e-9

    def test_assignments_in_range(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 2))
        res = kmeans.fit(X, k=4, seed=0)
        assert res.assignments.min() >= 0 and res.assignments.max() < 4

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            kmeans.fit(np.zeros((2, 3)), k=5)

    def test_non_finite_input(self):
        X = np.zeros((5, 2))
        X[0, 0] = np.nan
        with pytest.raises(DataError):
            kmeans.fit(X, k=2)

    @pytest.mark.parametrize("k", [1, 3])
    def test_overflowing_squared_distances_raise_data_error(self, k):
        X = np.random.default_rng(6).standard_normal((20, 4)) * 1e200
        with pytest.raises(DataError, match="overflow"):
            kmeans.fit(X, k=k)

    def test_temporaries_are_n_by_k_plus_n_by_d_not_n_by_k_by_d(self):
        n, k, d = 4000, 64, 32
        X = np.random.default_rng(0).standard_normal((n, d))
        tracemalloc.start()
        try:
            kmeans.fit(X, k=k, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * (k + d) * 8


# The Lloyd loop that computed every (n, k) distance with _sq_dists, as it
# was before the assignment step took the certified matmul form: fit must
# reproduce it bit for bit.

def oracle_plus_plus_seed(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[i] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def oracle_sq_dists(points, centers):
    d2 = np.empty((points.shape[0], centers.shape[0]))
    for j, c in enumerate(centers):
        diff = points - c
        d2[:, j] = np.einsum("nd,nd->n", diff, diff)
    return d2


def oracle_recenter(centers, points, assignments):
    for j in range(centers.shape[0]):
        mask = assignments == j
        if mask.any():
            centers[j] = points[mask].mean(axis=0)


def oracle_fit(X, k, max_iters=100, tol=None, seed=0, start=None, passes=None):
    """``tol`` defaults to ``kmeans.TOL`` at the call; ``start``, if given,
    replaces the k-means++ centers; ``passes``, if given, collects each
    pass's centers and assignments, the final pass's too."""
    tol = kmeans.TOL if tol is None else tol
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centers = oracle_plus_plus_seed(X, k, rng) if start is None else start.copy()
    history = []
    iters = 0
    for iters in range(1, max_iters + 1):
        d2 = oracle_sq_dists(X, centers)
        assignments = np.argmin(d2, axis=1)
        if passes is not None:
            passes.append((centers.copy(), assignments))
        history.append(float(d2[np.arange(n), assignments].sum()))
        new_centers = centers.copy()
        oracle_recenter(new_centers, X, assignments)
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
    assignments = np.argmin(oracle_sq_dists(X, centers), axis=1)
    if passes is not None:
        passes.append((centers.copy(), assignments))
    oracle_recenter(centers, X, assignments)
    return kmeans.KMeansResult(centers=centers, assignments=assignments,
                               inertia_history=history, iterations_run=iters)


def assert_same_fit(got, want):
    # bit patterns, so that −0.0 and +0.0 differ
    assert np.array_equal(got.centers.view(np.uint64), want.centers.view(np.uint64))
    assert np.array_equal(got.assignments, want.assignments)
    assert got.inertia_history == want.inertia_history
    assert got.iterations_run == want.iterations_run


@st.composite
def fit_cases(draw):
    """(X, k, seed) over random shapes, with k=1, n=k, duplicated points,
    k above the number of distinct points, integer grids (exact ties) and
    features scaled by 1e±100."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "k=1", "n=k", "duplicates", "k>distinct", "grid"]))
    X = rng.standard_normal((n, d))
    k = draw(st.integers(1, n))
    if kind == "k=1":
        k = 1
    elif kind == "n=k":
        k = n
    elif kind in ("duplicates", "k>distinct"):
        distinct = draw(st.integers(1, n))
        X = X[rng.integers(0, distinct, n)]
        if kind == "k>distinct":
            k = draw(st.integers(min(distinct + 1, n), n))
    elif kind == "grid":
        X = np.round(X * 2)
    X = X * draw(st.sampled_from([1.0, 1e-100, 1e100]))
    return X, k, draw(st.integers(0, 1000))


@PROPERTY_SETTINGS
@given(fit_cases())
def test_fit_equals_the_per_center_lloyd_loop(case):
    X, k, seed = case
    assert_same_fit(kmeans.fit(X, k, seed=seed), oracle_fit(X, k, seed=seed))


@st.composite
def wide_fit_cases(draw):
    """(X, k, seed) with k >= 256 centers and n in the thousands: labels
    that no longer fit one byte, and a (k, n) block with k far above d."""
    k = draw(st.integers(256, 320))
    n = draw(st.integers(1000, 3000))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n, d))
    kind = draw(st.sampled_from(["random", "duplicates", "grid"]))
    if kind == "duplicates":
        X = X[rng.integers(0, draw(st.integers(k // 2, 2 * k)), n)]
    elif kind == "grid":
        X = np.round(X * 2)
    return X, k, draw(st.integers(0, 1000))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(wide_fit_cases())
def test_fit_equals_the_per_center_lloyd_loop_with_many_centers(case):
    X, k, seed = case
    assert_same_fit(kmeans.fit(X, k, seed=seed), oracle_fit(X, k, seed=seed))


def emptying_start(rng, X, k):
    """Start centers, k >= 4, under which a cluster empties in the second
    pass; rewrites the blob rows ``X`` in place.

    Blobs at ±20·u, and a start center between them at 0 with the blobs'
    own at ±40·u: the first pass gives the middle center the inner halves
    of both blobs, its mean falls between them where no row lies, and the
    second pass takes every row from it. The other rows move far off, each
    of their start centers on one of them."""
    n, d = X.shape
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    half = n // 4
    X[:half] = 20 * u + rng.standard_normal((half, d))
    X[half:2 * half] = -20 * u + rng.standard_normal((half, d))
    X[2 * half:] += 1000 * u
    far = X[2 * half + rng.choice(n - 2 * half, k - 3, replace=False)]
    return np.concatenate([[0 * u, 40 * u, -40 * u], far])[rng.permutation(k)]


@st.composite
def long_fit_cases(draw):
    """(X, k, seed, start) for long fits whose later passes move few
    centers: blob data with n 200–2000, d 1–40, k 2–32 and at most k/4
    overlapping blobs, with duplicated points, or with start centers under
    which a cluster empties in the second pass, features scaled by 1e±100.
    ``start`` is None for the k-means++ seeding."""
    n = draw(st.integers(200, 2000))
    d = draw(st.integers(1, 40))
    k = draw(st.integers(2, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["blobs", "duplicates", "empties"]))
    means = 2 * rng.standard_normal((draw(st.integers(1, max(1, k // 4))), d))
    X = means[rng.integers(0, len(means), n)] + rng.standard_normal((n, d))
    start = None
    if kind == "duplicates":
        X = X[rng.integers(0, draw(st.integers(1, n)), n)]
    elif kind == "empties":
        k = max(k, 4)
        start = emptying_start(rng, X, k)
    scale = draw(st.sampled_from([1.0, 1e-100, 1e100]))
    return X * scale, k, draw(st.integers(0, 1000)), None if start is None else start * scale


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(long_fit_cases())
def test_long_low_churn_fits_equal_the_per_center_lloyd_loop(case):
    # the former tolerance, for both fits, keeps the long tails of passes
    # that move few centers (hypothesis runs no function-scoped monkeypatch)
    X, k, seed, start = case
    passes = []
    with mock.patch.object(kmeans, "TOL", 1e-6):
        want = oracle_fit(X, k, seed=seed, start=start, passes=passes)
        if start is None:
            got = kmeans.fit(X, k, seed=seed)
        else:
            sizes = [np.bincount(a, minlength=k) for _, a in passes]
            assert np.any((sizes[0] > 0) & (sizes[1] == 0))
            with mock.patch.object(kmeans, "_plus_plus_seed", lambda *args: start.copy()):
                got = kmeans.fit(X, k, seed=seed)
    assert_same_fit(got, want)


def norms_and_roots(X):
    """The per-fit point terms that the seeding and assignment take."""
    norms = kmeans._row_sq_norms(X)
    return norms, kmeans._point_roots(norms, X.shape[1])


def certified_argmin(X, C):
    """``kmeans._assign`` with the per-fit point terms."""
    return kmeans._assign(X, *norms_and_roots(X), C)


def assert_same_seeding(X, k, seed):
    """The same centers as the textbook loop, and the generator left in the
    same state."""
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = kmeans._plus_plus_seed(X, *norms_and_roots(X), k, got_rng)
    assert np.array_equal(got, oracle_plus_plus_seed(X, k, want_rng))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.random() == want_rng.random()


@PROPERTY_SETTINGS
@given(fit_cases())
def test_plus_plus_seed_equals_the_textbook_loop(case):
    assert_same_seeding(*case)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(wide_fit_cases())
def test_plus_plus_seed_equals_the_textbook_loop_with_many_centers(case):
    assert_same_seeding(*case)


@pytest.mark.parametrize("block", ["d", 37], ids=["row-per-block", "odd-block"])
def test_plus_plus_seed_equals_the_textbook_loop_for_any_block(block, monkeypatch):
    # 7 rows to a block of 37 elements, the last block short; duplicate rows
    # make near-ties that take the blocked exact distances
    rng = np.random.default_rng(12)
    X = rng.standard_normal((200, 5))
    X[100:] = X[:100]
    monkeypatch.setattr(ad, "BLOCK", X.shape[1] if block == "d" else block)
    for k, seed in ((3, 0), (12, 1), (40, 2)):
        assert_same_seeding(X, k, seed)


def count_exact_rows(monkeypatch):
    """Wrap the seeding's exact-distance helper; returns the list that each
    call appends its row count to."""
    calls = []
    exact = kmeans._exact_sq_dists

    def counted(points, rows, c):
        calls.append(len(rows))
        return exact(points, rows, c)

    monkeypatch.setattr(kmeans, "_exact_sq_dists", counted)
    return calls


class TestCertifiedSeeding:
    def test_near_tie_takes_the_loop_value(self, monkeypatch):
        # x's loop distance to the new center c is below its d2, while the
        # matmul form puts c farther: the certificate must not keep d2
        x, a = 12345.0, 12345.0 - 0.3
        X = np.array([[x]])
        d2 = np.array([(x - a) ** 2])
        norms, roots = norms_and_roots(X)
        c = np.nextafter(np.array([x + 0.3]), 0.0)
        loop = np.sum((X - c) ** 2, axis=1)
        matmul_form = norms - 2.0 * (X @ c) + c @ c
        assert loop[0] < d2[0] < matmul_form[0]
        calls = count_exact_rows(monkeypatch)
        kmeans._lower_to_center(d2, X, norms, roots, c)
        assert calls == [1]
        assert np.array_equal(d2, loop)
        assert_same_seeding(np.array([[a], [x], [c[0]]]), 3, 0)

    @pytest.mark.parametrize("distinct,k", [(1, 4), (3, 7)])
    def test_duplicates_fall_back_to_uniform_choice(self, distinct, k):
        # once every distinct point is a center, total <= 0
        rng = np.random.default_rng(distinct)
        X = rng.standard_normal((distinct, 5))[np.arange(12) % distinct]
        for seed in range(5):
            assert_same_seeding(X, k, seed)

    def test_overflowing_cross_term(self):
        # every norm is finite, but -2·x·c overflows for the larger points
        X = np.array([[1.34e154], [1.0e154], [0.85e154], [0.8e154]])
        assert np.all(np.isfinite(kmeans._row_sq_norms(X)))
        for k in range(2, 5):
            for seed in range(5):
                assert_same_seeding(X, k, seed)

    def test_overflowing_norms_with_finite_distances(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = 1e155 * (1.0 + 1e-3 * rng.standard_normal((40, 8)))
        assert np.all(kmeans._row_sq_norms(X) == np.inf)
        calls = count_exact_rows(monkeypatch)
        assert_same_seeding(X, 6, 1)
        assert calls == [40] * 6

    def test_matmul_form_overflow_with_a_finite_distance(self):
        # norms, cross term and bound are finite, the matmul form rounds up
        # to +inf, and the loop's distance lies just below the largest float
        X = np.array([[float.fromhex("-0x1.aed4577215225p+509"),
                       float.fromhex("-0x1.1abb043cdd43dp+510")]])
        c = np.array([float.fromhex("0x1.0d2b4ced63033p+510"),
                      float.fromhex("0x1.35ad2aeb037acp+511")])
        norms, roots = norms_and_roots(X)
        with np.errstate(over="ignore"):
            matmul_form = X @ (c * -2.0) + norms + c @ c
        loop = np.sum((X - c) ** 2, axis=1)
        d2 = np.array([np.finfo(np.float64).max])
        assert matmul_form[0] == np.inf and loop[0] < d2[0]
        assert np.isfinite(kmeans._matmul_form_err(roots, c @ c, 2)).all()
        kmeans._lower_to_center(d2, X, norms, roots, c)
        assert np.array_equal(d2, loop)

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_scaled_features(self, scale):
        X = np.random.default_rng(4).standard_normal((300, 16)) * scale
        for seed in range(3):
            assert_same_seeding(X, 12, seed)

    def test_temporaries_stay_blocked(self):
        # a few n-vectors beside the centers and the block buffer; one
        # (n, d) difference alone would be 8 MiB
        n, k, d = 2048, 64, 512
        X = np.random.default_rng(0).standard_normal((n, d))
        norms, roots = norms_and_roots(X)
        tracemalloc.start()
        try:
            kmeans._plus_plus_seed(X, norms, roots, k, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= k * d * 8 + ad.BLOCK * 8 + 16 * n * 8

    def test_under_a_quarter_of_rows_take_the_exact_path(self, monkeypatch):
        # counts rows, not time: a bound far too loose, or one that certifies
        # nothing, sends every step back to the exact path
        n, k, d = 2048, 64, 512
        X = np.random.default_rng(0).standard_normal((n, d))
        calls = count_exact_rows(monkeypatch)
        kmeans._plus_plus_seed(X, *norms_and_roots(X), k, np.random.default_rng(0))
        assert calls[0] == n  # the first center's full pass
        assert sum(calls[1:]) / (n * (k - 1)) < 0.25


@pytest.mark.parametrize("n,k,d", [(4000, 64, 32), (2048, 64, 512)])
def test_fit_temporaries_stay_within_a_quarter_over_the_distance_block_and_one_cluster(
        monkeypatch, n, k, d):
    # the (k, n) distance block, the rows of the largest cluster one pass
    # gathers, and the centers and their means; measured at 1.16 times that
    # at d = 32 and 0.84 at d = 512, where a gather of every row (4.1 times
    # at d = 512) fails
    largest = []
    groups = kmeans._groups

    def spy(labels, count):
        order, sizes, spans = groups(labels, count)
        largest.append(int(sizes.max()))
        return order, sizes, spans

    monkeypatch.setattr(kmeans, "_groups", spy)
    X = np.random.default_rng(0).standard_normal((n, d))
    tracemalloc.start()
    try:
        kmeans.fit(X, k=k, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * (k * n + max(largest) * d + 2 * k * d)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_in_the_last_row_block_raises(value):
    # the finiteness check runs a row block at a time; it must reach the last
    X = np.random.default_rng(0).standard_normal((3 * ad.BLOCK // 32 + 5, 32))
    X[-1, -1] = value
    with pytest.raises(DataError, match="non-finite"):
        kmeans.fit(X, k=4, seed=0)


class TestCertifiedAssignment:
    @pytest.mark.parametrize("n,k,d,seed", [(2048, 64, 512, 0), (5648, 16, 32, 1),
                                            (300, 7, 3, 2)])
    def test_fit_equals_the_loop_at_bench_shapes(self, n, k, d, seed):
        X = np.random.default_rng(seed).standard_normal((n, d))
        assert_same_fit(kmeans.fit(X, k, seed=seed), oracle_fit(X, k, seed=seed))

    def test_overflowing_norms_fall_back_to_the_loop(self):
        # ‖x‖² overflows, yet every squared distance is finite
        rng = np.random.default_rng(3)
        X = 1e155 * (1.0 + 1e-3 * rng.standard_normal((40, 8)))
        assert_same_fit(kmeans.fit(X, 4, seed=1), oracle_fit(X, 4, seed=1))

    def test_overflowing_cross_term_falls_back_to_the_loop(self):
        # every norm is finite, but -2·x·c overflows to -inf for the farther
        # center, so the matmul form's minimum is -inf and certifies nothing
        X = np.array([[1.0e154]])
        C = np.array([[1.34e154], [0.85e154]])
        assert np.argmin(kmeans._sq_dists(X, C)[0]) == 1
        assert certified_argmin(X, C)[0] == 1
        X = np.array([[1.34e154], [1.0e154], [0.85e154], [0.8e154]])
        assert_same_fit(kmeans.fit(X, 2, seed=0), oracle_fit(X, 2, seed=0))

    def test_open_rows_over_many_row_blocks_take_the_loops_argmin(self, monkeypatch):
        # one point repeated: the centers coincide, every row ties, and the
        # loop's rows run a block of 64 rows at a time at d = 512
        X = np.tile(np.random.default_rng(5).standard_normal(512), (600, 1))
        blocks_run = []
        sq_dists = kmeans._sq_dists

        def spy(points, centers):
            blocks_run.append(len(points))
            return sq_dists(points, centers)

        monkeypatch.setattr(kmeans, "_sq_dists", spy)
        got = kmeans.fit(X, 3, seed=0)
        monkeypatch.undo()
        assert sum(blocks_run) >= len(X) and max(blocks_run) == ad.BLOCK // X.shape[1]
        assert_same_fit(got, oracle_fit(X, 3, seed=0))

    def test_exact_tie_goes_to_the_lower_index(self):
        # x is equally far from both centers under the loop, while the
        # matmul form alone rounds the second center nearer
        X = np.array([[12345.0]])
        C = np.array([[12345.0 - 0.3], [12345.0 + 0.3]])
        loop = kmeans._sq_dists(X, C)
        assert loop[0, 0] == loop[0, 1]
        matmul_form = kmeans._row_sq_norms(X)[:, None] - 2.0 * (X @ C.T) + kmeans._row_sq_norms(C)
        assert np.argmin(matmul_form[0]) == 1
        assert certified_argmin(X, C)[0] == 0

    def test_duplicate_centers_go_to_the_lower_index(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 6))
        C = np.repeat(rng.standard_normal((3, 6)), 2, axis=0)
        got = certified_argmin(X, C)
        assert np.array_equal(got, np.argmin(oracle_sq_dists(X, C), axis=1))
        assert np.all(got % 2 == 0)


def overlapping_blobs():
    """Three overlapping blobs of 500 rows, d = 6: fits of twelve centers
    run long tails of passes that move a few of them."""
    rng = np.random.default_rng(0)
    return np.concatenate([c + rng.standard_normal((500, 6))
                           for c in 2 * rng.standard_normal((3, 6))])


def test_fit_stops_at_the_first_pass_that_gains_less_than_tol():
    X, k = overlapping_blobs(), 12
    got = kmeans.fit(X, k, seed=0)
    h = got.inertia_history
    gains = [(before - after) / before for before, after in zip(h, h[1:])]
    assert got.iterations_run == len(h) < kmeans.MAX_ITERS
    assert min(gains[:-1]) >= kmeans.TOL > gains[-1]
    assert_same_fit(got, oracle_fit(X, k, seed=0))
    # the former tolerance runs on past that pass
    assert oracle_fit(X, k, tol=1e-6, seed=0).iterations_run > got.iterations_run


def final_inertia(X, result):
    diff = X - result.centers[result.assignments]
    return float(np.einsum("nd,nd->", diff, diff))


@pytest.fixture(scope="module", params=["subtype", "survival"])
def acceptance_pools(request, tmp_path_factory):
    """(pool, k, seed) of each fit that training on the task's acceptance
    dataset runs, one per fold."""
    task, pools = request.param, []
    fit = kmeans.fit

    def spy(pool, k, seed=0):
        pools.append((pool, k, seed))
        return fit(pool, k, seed=seed)

    with mock.patch.object(kmeans, "fit", spy):
        train(replace(_train_config(task), epochs=1), _dataset(task),
              out_dir=str(tmp_path_factory.mktemp(task)))
    assert len(pools) == 4
    return pools


def test_stopping_at_tol_costs_under_a_thousandth_of_the_inertia_on_acceptance_pools(
        acceptance_pools):
    # against fits with TOL = 0, which stop only after MAX_ITERS passes or at
    # a pass that raises the inertia
    for pool, k, seed in acceptance_pools:
        got = kmeans.fit(pool, k, seed=seed)
        with mock.patch.object(kmeans, "TOL", 0.0):
            full = kmeans.fit(pool, k, seed=seed)
        assert final_inertia(pool, got) <= 1.001 * final_inertia(pool, full)


def record_pass_centers(monkeypatch):
    """The list that each ``_lloyd_pass`` call appends its centers to."""
    calls = []
    lloyd_pass = kmeans._lloyd_pass

    def spy(points, point_sq_norms, point_roots, centers):
        calls.append(centers.copy())
        return lloyd_pass(points, point_sq_norms, point_roots, centers)

    monkeypatch.setattr(kmeans, "_lloyd_pass", spy)
    return calls


def changed_centers(passes):
    """The centers of each pass of ``oracle_fit(passes=...)``, the final
    one's too, whose bits differ from the pass before's: a pass over the
    same centers repeats that pass."""
    return [c for p, (c, _) in enumerate(passes)
            if p == 0 or not np.array_equal(c.view(np.uint64), passes[p - 1][0].view(np.uint64))]


def assert_same_centers(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("case,settles", [("tol", False), ("former-tol", True),
                                          ("empties", False)])
def test_a_pass_runs_only_when_its_centers_changed(case, settles, monkeypatch):
    # a fit that settles under the former tolerance reuses its settled pass,
    # for the pass after it and the final pass; the others run every pass
    if case == "empties":
        rng = np.random.default_rng(5)
        X, k = rng.standard_normal((400, 3)), 6
        start = emptying_start(rng, X, k)
        monkeypatch.setattr(kmeans, "_plus_plus_seed", lambda *args: start.copy())
    else:
        X, k, start = overlapping_blobs(), 12, None
    if case == "former-tol":
        monkeypatch.setattr(kmeans, "TOL", 1e-6)
    passes = []
    want = oracle_fit(X, k, seed=0, start=start, passes=passes)
    if case == "empties":
        sizes = [np.bincount(a, minlength=k) for _, a in passes]
        assert np.any((sizes[0] > 0) & (sizes[1] == 0))
    calls = record_pass_centers(monkeypatch)
    assert_same_fit(kmeans.fit(X, k, seed=0), want)
    assert_same_centers(calls, changed_centers(passes))
    assert (len(calls) < len(passes)) == settles


def test_a_fit_under_tol_0_makes_no_pass_after_its_fixed_point(acceptance_pools, monkeypatch):
    # TOL = 0 ends a fit only at a pass that raises the inertia, so these run
    # all MAX_ITERS passes, though each pool settles long before
    monkeypatch.setattr(kmeans, "TOL", 0.0)
    calls = record_pass_centers(monkeypatch)
    for pool, k, seed in acceptance_pools:
        passes = []
        want = oracle_fit(pool, k, seed=seed, passes=passes)
        calls.clear()
        got = kmeans.fit(pool, k, seed=seed)
        assert_same_fit(got, want)
        assert got.iterations_run == kmeans.MAX_ITERS
        assert_same_centers(calls, changed_centers(passes))
        assert len(calls) < kmeans.MAX_ITERS


def sq_dists_3d(points, centers):
    """The (n, k, d) broadcast formula the per-center loop must reproduce."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


class TestSqDists:
    @pytest.mark.parametrize("n,k,d", [(1, 1, 1), (7, 3, 5), (40, 16, 32),
                                       (33, 5, 13), (50, 64, 512)])
    def test_bit_identical_to_broadcast_formula(self, n, k, d):
        rng = np.random.default_rng(n * k + d)
        points = rng.standard_normal((n, d)) * 30.0
        centers = rng.standard_normal((k, d))
        assert np.array_equal(kmeans._sq_dists(points, centers), sq_dists_3d(points, centers))

    def test_temporary_is_bounded_by_points_not_points_times_centers(self):
        n, k, d = 4000, 64, 32
        rng = np.random.default_rng(0)
        points, centers = rng.standard_normal((n, d)), rng.standard_normal((k, d))
        tracemalloc.start()
        try:
            kmeans._sq_dists(points, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * d * 8 / 4


def make_bags(rng, n_bags, m, d):
    return [FeatureBag(bag_id=f"b{i}", features=rng.standard_normal((m, d)),
                       label=SubtypeLabel(0)) for i in range(n_bags)]


def oracle_subsample_pool(bags, cap, seed=0):
    """The pool as it was drawn before: every row concatenated, then ``cap``
    of them taken."""
    pool = np.concatenate([b.features for b in bags], axis=0)
    rng = np.random.default_rng(seed)
    return pool[rng.permutation(pool.shape[0])[:min(cap, pool.shape[0])]]


def features_up_front_subsample_pool(bags, cap, seed=0):
    """The previous body of subsample_pool, which took every bag's features
    up front, kept as the reference for the pool's bits."""
    features = [np.asarray(b.features, dtype=np.float64) for b in bags]
    starts = np.cumsum([0] + [f.shape[0] for f in features])
    rng = np.random.default_rng(seed)
    n = int(starts[-1])
    take = min(cap, n)
    idx = rng.permutation(n)[:take]
    owner = np.searchsorted(starts, idx, side="right") - 1
    pool = np.empty((take, features[0].shape[1]))
    order, _, spans = kmeans._groups(owner, len(features))
    for b, start, end in spans:
        picked = order[start:end]
        pool[picked] = features[b][idx[picked] - starts[b]]
    return pool


def streamed_bags(tmp_path, monkeypatch, bags):
    """``bags`` written as a dataset and read back with none resident."""
    write_dataset(bags, str(tmp_path))
    monkeypatch.setattr(data, "RESIDENT_BYTES", 0)
    got = read_dataset(str(tmp_path))
    assert all(isinstance(b, StreamedBag) for b in got)
    return got


class TestSubsamplePool:
    @pytest.mark.parametrize("cap", [1, 7, 60, 139, 140, 1000])
    def test_equals_the_concatenated_pool(self, cap):
        rng = np.random.default_rng(3)
        bags = [FeatureBag(bag_id=f"b{i}", features=rng.standard_normal((m, 5)),
                           label=SubtypeLabel(0)) for i, m in enumerate([1, 30, 2, 57, 50])]
        assert np.array_equal(kmeans.subsample_pool(bags, cap, seed=11),
                              oracle_subsample_pool(bags, cap, seed=11))

    @pytest.mark.parametrize("cap", [1, 7, 60, 1000])
    @pytest.mark.parametrize("residency", ["resident", "streamed"])
    def test_keeps_the_bits_of_taking_every_bag_up_front(self, tmp_path, monkeypatch,
                                                         residency, cap):
        rng = np.random.default_rng(6)
        bags = [FeatureBag(bag_id=f"b{i}", features=rng.standard_normal((m, 5)),
                           label=SubtypeLabel(0)) for i, m in enumerate([3, 30, 2, 57, 50, 9])]
        if residency == "streamed":
            bags = streamed_bags(tmp_path, monkeypatch, bags)
        assert np.array_equal(kmeans.subsample_pool(bags, cap, seed=4),
                              features_up_front_subsample_pool(bags, cap, seed=4))

    def test_reads_each_sampled_bag_once_in_order_and_no_other(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        bags = streamed_bags(tmp_path, monkeypatch, make_bags(rng, 12, 20, 4))
        reads = []
        real = data.read_bag
        monkeypatch.setattr(data, "read_bag", lambda path, **kw: reads.append(path) or
                            real(path, **kw))
        cap = 6
        # the draw subsample_pool makes: 6 of 240 rows fall in at most 6 bags
        owners = np.unique(np.random.default_rng(9).permutation(240)[:cap] // 20)
        assert len(owners) < 12
        kmeans.subsample_pool(bags, cap, seed=9)
        assert reads == [bags[j].path for j in owners]

    def test_streamed_rows_come_from_a_view_of_the_file(self, tmp_path, monkeypatch):
        bags = streamed_bags(tmp_path, monkeypatch, make_bags(np.random.default_rng(4), 10, 500, 64))
        calls = []
        real = data.read_bag
        monkeypatch.setattr(data, "read_bag", lambda path, **kw: calls.append(kw) or
                            real(path, **kw))
        tracemalloc.start()
        try:
            kmeans.subsample_pool(bags, cap=100, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == [{"metadata": False}] * 10
        # one bag's file bytes and the pool; a copy of the features would
        # hold a second bag beside them
        assert peak < 2 * 500 * 64 * 8

    def test_streamed_bags_are_not_held_together(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        bags = streamed_bags(tmp_path, monkeypatch, make_bags(rng, 10, 500, 64))
        tracemalloc.start()
        try:
            pool = kmeans.subsample_pool(bags, cap=100, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pool.shape == (100, 64)
        # a re-read holds the file's bytes, whose view gives the rows
        assert peak < 3 * 500 * 64 * 8

    def test_memory_is_bounded_by_the_cap(self):
        bags = make_bags(np.random.default_rng(4), 20, 500, 64)
        tracemalloc.start()
        try:
            pool = kmeans.subsample_pool(bags, cap=100, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pool.shape == (100, 64)
        assert peak < 20 * 500 * 64 * 8 / 10

    def test_mixed_feature_widths(self):
        rng = np.random.default_rng(5)
        bags = make_bags(rng, 2, 5, 3) + make_bags(rng, 1, 5, 4)
        with pytest.raises(DataError, match="widths"):
            kmeans.subsample_pool(bags, cap=4)

    def test_under_cap_returns_everything_shuffled(self):
        rng = np.random.default_rng(0)
        bags = make_bags(rng, 3, 10, 4)
        pool = kmeans.subsample_pool(bags, cap=1000, seed=1)
        full = np.concatenate([b.features for b in bags])
        assert pool.shape == full.shape
        assert sorted(map(tuple, pool)) == sorted(map(tuple, full))

    def test_cap_respected(self):
        rng = np.random.default_rng(1)
        bags = make_bags(rng, 10, 500, 3)
        pool = kmeans.subsample_pool(bags, cap=1000, seed=2)
        assert pool.shape == (1000, 3)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        bags = make_bags(rng, 4, 50, 3)
        a = kmeans.subsample_pool(bags, cap=60, seed=7)
        b = kmeans.subsample_pool(bags, cap=60, seed=7)
        assert np.array_equal(a, b)

    def test_empty_bag_list(self):
        with pytest.raises(DataError):
            kmeans.subsample_pool([], cap=10)
