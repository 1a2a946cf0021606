import tracemalloc

import numpy as np
import pytest

from mico import kmeans
from mico.data import FeatureBag
from mico.errors import ConfigError, DataError
from mico.losses import SubtypeLabel


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


class TestSubsamplePool:
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
