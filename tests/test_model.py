import itertools
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from mico import autodiff as ad
from mico import model as mm
from mico.autodiff import Adam, Tensor
from mico.checkpoint import load_checkpoint, save_checkpoint
from mico.errors import (
    ChecksumError,
    ConfigError,
    DataError,
    HeaderError,
    NumericalError,
    ShapeError,
)
from mico.model import (
    POOLINGS,
    MicoConfig,
    MicoModel,
    aggregate_anchors,
    anchor_mean_pool,
    cluster_reduce,
    cosine_alignment,
    gated_attention_pool,
    route_update,
    ste_assign,
)
from test_autodiff import fd_grad, max_rel_err


def gelu_ref(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x ** 3)))


class TestCosineAlignment:
    def test_identical_unit_vectors(self):
        out = cosine_alignment(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0]]), ad.Segments([1]))
        assert out.data[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        out = cosine_alignment(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]), ad.Segments([1]))
        assert out.data[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_per_pair_loop_oracle(self):
        rng = np.random.default_rng(0)
        H, S = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
        out = cosine_alignment(Tensor(H), Tensor(S), ad.Segments([5]))
        for m in range(5):
            for k in range(4):
                expected = float(H[m] @ S[k] / (np.linalg.norm(H[m]) * np.linalg.norm(S[k])))
                assert abs(out.data[m, k] - expected) < 1e-12

    def test_zero_norm_row_clamped_and_counted(self):
        before = mm.zero_norm_clamp_count()
        out = cosine_alignment(Tensor([[0.0, 0.0], [1.0, 0.0]]), Tensor([[1.0, 0.0]]),
                               ad.Segments([2]))
        assert np.all(np.isfinite(out.data))
        assert mm.zero_norm_clamp_count() - before == 1

    def test_nan_input_rejected(self):
        H = np.zeros((2, 2))
        H[0, 0] = np.nan
        with pytest.raises(NumericalError):
            cosine_alignment(Tensor._nan_ok(H) if hasattr(Tensor, "_nan_ok") else _raw(H),
                             Tensor(np.ones((1, 2))), ad.Segments([2]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        Ha, Sa = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
        W = rng.standard_normal((4, 3))

        def loss_val():
            A = cosine_alignment(Tensor(Ha), Tensor(Sa), ad.Segments([4]))
            return float((A.data * W).sum())

        H, S = Tensor(Ha, requires_grad=True), Tensor(Sa, requires_grad=True)
        ad.backward(cosine_alignment(H, S, ad.Segments([4])), W)
        assert max_rel_err(H.grad, fd_grad(loss_val, Ha)) < 1e-6
        assert max_rel_err(S.grad, fd_grad(loss_val, Sa)) < 1e-6


def _raw(arr):
    """Build a tensor bypassing the leaf finiteness check (op-tagged)."""
    t = Tensor(np.zeros_like(arr))
    t.data = np.asarray(arr, dtype=np.float64)
    return t


class TestSteAssign:
    def test_argmax_selection(self):
        out = ste_assign(Tensor([[0.2, 0.9, 0.1]]))
        assert np.array_equal(out.data, [[0, 1, 0]])

    def test_tie_breaks_low_index(self):
        out = ste_assign(Tensor([[0.5, 0.5]]))
        assert np.array_equal(out.data, [[1, 0]])

    def test_rows_exactly_one_hot(self):
        rng = np.random.default_rng(2)
        out = ste_assign(Tensor(rng.standard_normal((30, 6))))
        assert set(np.unique(out.data)) <= {0.0, 1.0}
        assert np.array_equal(out.data.sum(axis=1), np.ones(30))

    def test_backward_is_identity_on_upstream_gradient(self):
        rng = np.random.default_rng(3)
        A = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
        W = rng.standard_normal((7, 4))
        ad.backward(ste_assign(A), W)
        assert np.array_equal(A.grad, W)


class TestAggregateAnchors:
    def test_mean_of_two(self):
        H = Tensor([[1.0, 1.0], [3.0, 3.0]])
        A = Tensor([[1.0, 0.0], [1.0, 0.0]])
        S_prev = Tensor(np.zeros((2, 2)))
        agg, counts = aggregate_anchors(H, A, S_prev, ad.Segments([2]))
        assert np.array_equal(agg.data[0], [2.0, 2.0])
        assert np.array_equal(counts, [2, 0])

    def test_empty_anchor_carries_previous_value_bit_exactly(self):
        prev = np.array([[0.1, 0.2], [1.0 / 3.0, 2.0 / 7.0]])
        H = Tensor([[5.0, 5.0]])
        A = Tensor([[1.0, 0.0]])
        agg, _ = aggregate_anchors(H, A, Tensor(prev), ad.Segments([1]))
        assert np.array_equal(agg.data[1], prev[1])

    def test_empty_anchor_contributes_zero_gradient_to_instances(self):
        H = Tensor([[5.0, 5.0]], requires_grad=True)
        A = Tensor([[1.0, 0.0]])
        S_prev = Tensor([[0.0, 0.0], [1.0, 1.0]], requires_grad=True)
        agg, _ = aggregate_anchors(H, A, S_prev, ad.Segments([1]))
        # loss touches only the empty anchor's row
        ad.backward(agg, [[0.0, 0.0], [1.0, 1.0]])
        assert H.grad is None or np.array_equal(H.grad, np.zeros((1, 2)))
        assert np.array_equal(S_prev.grad, [[0.0, 0.0], [1.0, 1.0]])

    def test_matches_group_loop_oracle(self):
        rng = np.random.default_rng(4)
        M, K, d = 20, 4, 5
        H = rng.standard_normal((M, d))
        idx = rng.integers(0, K, size=M)
        onehot = np.zeros((M, K))
        onehot[np.arange(M), idx] = 1.0
        prev = rng.standard_normal((K, d))
        agg, counts = aggregate_anchors(Tensor(H), Tensor(onehot), Tensor(prev), ad.Segments([M]))
        for k in range(K):
            members = [H[m] for m in range(M) if idx[m] == k]
            if members:
                expected = np.mean(members, axis=0)
                assert np.max(np.abs(agg.data[k] - expected)) < 1e-12
            else:
                assert np.array_equal(agg.data[k], prev[k])
        assert counts.sum() == M

    def test_gradients_match_finite_differences_with_soft_weights(self):
        rng = np.random.default_rng(5)
        Ha = rng.standard_normal((6, 3))
        Wa = rng.uniform(0.1, 1.0, size=(6, 2))
        Pa = rng.standard_normal((2, 3))
        G = rng.standard_normal((2, 3))

        def loss_val():
            agg, _ = aggregate_anchors(Tensor(Ha), Tensor(Wa), Tensor(Pa), ad.Segments([6]))
            return float((agg.data * G).sum())

        H = Tensor(Ha, requires_grad=True)
        W = Tensor(Wa, requires_grad=True)
        agg, _ = aggregate_anchors(H, W, Tensor(Pa), ad.Segments([6]))
        ad.backward(agg, G)
        assert max_rel_err(H.grad, fd_grad(loss_val, Ha)) < 1e-6
        assert max_rel_err(W.grad, fd_grad(loss_val, Wa)) < 1e-6


def mlp_params(rng, d, h, zero=False):
    if zero:
        return (Tensor(np.zeros((d, h))), Tensor(np.zeros(h)),
                Tensor(np.zeros((h, d))), Tensor(np.zeros(d)))
    return (Tensor(rng.standard_normal((d, h))), Tensor(rng.standard_normal(h)),
            Tensor(rng.standard_normal((h, d))), Tensor(rng.standard_normal(d)))


class TestRouteUpdate:
    def test_zero_mlp_is_residual_identity(self):
        rng = np.random.default_rng(6)
        H = Tensor(rng.standard_normal((4, 3)))
        A = ste_assign(Tensor(rng.standard_normal((4, 2))))
        S = Tensor(rng.standard_normal((2, 3)))
        out = route_update(H, A, S, *mlp_params(rng, 3, 3, zero=True), ad.Segments([4]))
        assert np.array_equal(out.data, H.data)

    def test_one_hot_selects_anchor_row(self):
        rng = np.random.default_rng(16)
        S = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        A = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        H = rng.standard_normal((2, 2))
        w1, b1, w2, b2 = (p.data for p in mlp_params(rng, 2, 3))
        out = route_update(Tensor(H), Tensor(A), Tensor(S), *map(Tensor, (w1, b1, w2, b2)),
                           ad.Segments([2]))
        # each row's context is the anchor row its one-hot assignment picks
        X = H + S[[2, 1]]
        expected = H + gelu_ref(X @ w1 + b1) @ w2 + b2
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_gradient_wrt_instances_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        Ha = rng.standard_normal((5, 3))
        Aa = np.eye(5)[:, :2].copy()
        Aa[2:, 1] = 1.0
        Sa = rng.standard_normal((2, 3))
        params = mlp_params(rng, 3, 3)

        def loss_val():
            return float(route_update(Tensor(Ha), Tensor(Aa), Tensor(Sa), *params,
                                      ad.Segments([5])).data.sum())

        H = Tensor(Ha, requires_grad=True)
        ad.backward(route_update(H, Tensor(Aa), Tensor(Sa), *params, ad.Segments([5])),
                    np.ones((5, 3)))
        assert max_rel_err(H.grad, fd_grad(loss_val, Ha)) < 1e-5


class TestClusterReduce:
    def test_linear_mode_averaging(self):
        # first linear layer = identity, second = column of halving weights,
        # so the two anchors reduce to the mean of their gelu images
        anchors = np.array([[-1.5, 0.25, 3.0], [0.5, -2.0, 7.0]])
        r1 = Tensor(np.eye(2))
        rb1 = Tensor(np.zeros(2))
        r2 = Tensor(np.array([[0.5], [0.5]]))
        rb2 = Tensor(np.zeros(1))
        out = cluster_reduce(Tensor(anchors), r1, rb1, r2, rb2, ad.Segments([1]))

        def gelu(x):  # tanh approximation
            return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))

        expected = 0.5 * (gelu(anchors[0]) + gelu(anchors[1]))
        assert out.data.shape == (1, 3)
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-14, atol=0.0)

    def test_output_shape_contract(self):
        rng = np.random.default_rng(8)
        K, d = 64, 16
        r1 = Tensor(rng.standard_normal((K, K)))
        rb1 = Tensor(np.zeros(K))
        r2 = Tensor(rng.standard_normal((K, K // 2)))
        rb2 = Tensor(np.zeros(K // 2))
        out = cluster_reduce(Tensor(rng.standard_normal((K, d))), r1, rb1, r2, rb2,
                             ad.Segments([1]))
        assert out.data.shape == (32, 16)

    def test_odd_anchor_count_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ConfigError):
            cluster_reduce(Tensor(rng.standard_normal((3, 2))),
                           Tensor(np.eye(3)), Tensor(np.zeros(3)),
                           Tensor(np.zeros((3, 1))), Tensor(np.zeros(1)), ad.Segments([1]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        K, d = 4, 3
        Sa = rng.standard_normal((K, d))
        params = (Tensor(rng.standard_normal((K, K))), Tensor(rng.standard_normal(K)),
                  Tensor(rng.standard_normal((K, K // 2))), Tensor(rng.standard_normal(K // 2)))

        def loss_val():
            return float(cluster_reduce(Tensor(Sa), *params, ad.Segments([1])).data.sum())

        S = Tensor(Sa, requires_grad=True)
        ad.backward(cluster_reduce(S, *params, ad.Segments([1])), np.ones((K // 2, d)))
        assert max_rel_err(S.grad, fd_grad(loss_val, Sa)) < 1e-5


class TestActivations:
    def test_gelu_fixes_origin(self):
        assert mm._gelu(np.array([0.0]))[0] == 0.0

    def test_gelu_close_to_erf_reference(self):
        # tanh approximation vs exact x * Phi(x)
        for x in (1.0, -0.5, 2.3):
            exact = x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
            assert abs(mm._gelu(np.array([x]))[0] - exact) < 1e-3

    def test_gelu_slope_matches_finite_differences(self):
        xa = np.random.default_rng(17).uniform(-3, 3, size=20)
        numeric = fd_grad(lambda: float(mm._gelu(xa).sum()), xa)
        slope = np.ones_like(xa)
        mm._gelu_backward(xa, slope)
        assert max_rel_err(slope, numeric) < 1e-6

    def test_sigmoid_is_stable_at_the_extremes(self):
        x = np.array([-800.0, -30.0, -0.0, 0.0, 0.7, 30.0, 800.0])
        assert np.array_equal(mm._sigmoid(x)[[0, 2, 3, 6]], [0.0, 0.5, 0.5, 1.0])
        assert max_rel_err(mm._sigmoid(x[1:-1]), 1.0 / (1.0 + np.exp(-x[1:-1]))) < 1e-15


# ---------------------------------------------------------------------------
# The elementwise chains as they were before row blocking, each over its
# whole array at once. The blocked chains must give their bits: the same
# operations in the same order, per element.

def ref_gelu_tanh(x):
    t = x * x
    t *= x
    t *= mm._GELU_A
    t += x
    t *= mm._GELU_C
    np.tanh(t, out=t)
    return t


def ref_gelu(x):
    t = ref_gelu_tanh(x)
    t += 1.0
    t *= x
    t *= 0.5
    return t


def ref_gelu_and_slope(x):
    t = ref_gelu_tanh(x)
    rest = 0.5 * x
    u = t * t
    np.subtract(1.0, u, out=u)
    rest *= u
    np.multiply(x, x, out=u)
    u *= 3.0 * mm._GELU_A
    u += 1.0
    u *= mm._GELU_C
    rest *= u
    t += 1.0
    np.multiply(t, x, out=u)
    u *= 0.5
    t *= 0.5
    t += rest
    return u, t


def ref_sigmoid(x):
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, (x >= 0).astype(np.float64))
    e += 1.0
    out /= e
    return out


def ref_tanh_grad(g_gate, a, b):
    slope = a * a
    np.subtract(1.0, slope, out=slope)
    gPV = g_gate * b
    gPV *= slope
    return gPV


def ref_sigmoid_grad(g_gate, a, b):
    slope = 1.0 - b
    slope *= b
    gPU = np.multiply(g_gate, a, out=g_gate)
    gPU *= slope
    return gPU


# NaN is the default quiet NaN. When both operands of a NumPy multiply or add
# are NaNs of different sign or payload, which one survives depends on where
# the element falls in the call (on AVX-512, the last n mod 8 elements of a
# call longer than 8 take the other), so the unblocked chains themselves give
# such NaNs bits that depend on their position.
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
                    1e-300, -1e-300, 800.0, -800.0, np.inf, -np.inf, np.nan])


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _with_specials(rng, shape):
    x = rng.standard_normal(shape) * 3.0
    where = rng.choice(x.size, size=min(x.size, 3 * SPECIAL.size), replace=False)
    where[:2] = [0, x.size - 1] if x.size > 1 else 0
    x.flat[where] = np.resize(SPECIAL, where.size)
    return x


def _block_shapes():
    """(block, rows, d): 1, block - 1, block, block + 1 and several blocks of
    rows, at the module's block size and at a small one that d exceeds."""
    for block in (ad.BLOCK, 64):
        for d in (1, 7, 33, 512, block + 5):
            step = max(1, block // d)
            for rows in sorted({1, step - 1, step, step + 1, 3 * step + 2} - {0}):
                yield block, rows, d


class TestRowBlockedChains:
    @pytest.fixture(params=list(_block_shapes()), ids=lambda p: "block%d-%dx%d" % p)
    def shape(self, request, monkeypatch):
        block, rows, d = request.param
        monkeypatch.setattr(ad, "BLOCK", block)
        return rows, d

    @pytest.fixture(autouse=True)
    def quiet(self):
        with np.errstate(all="ignore"):
            yield

    def test_gelu_and_sigmoid_keep_the_bits(self, shape):
        x = _with_specials(np.random.default_rng(shape), shape)
        assert np.array_equal(_bits(mm._gelu(x)), _bits(ref_gelu(x)))
        assert np.array_equal(_bits(mm._sigmoid(x)), _bits(ref_sigmoid(x)))

    def test_gelu_backward_keeps_the_bits(self, shape):
        # gelu(x) is written over x, which the slope pass reads for the last time
        rng = np.random.default_rng(shape)
        x, g = _with_specials(rng, shape), rng.standard_normal(shape)
        act_ref, slope_ref = ref_gelu_and_slope(x.copy())
        g_ref = g.copy()
        g_ref *= slope_ref
        act = mm._gelu_backward(x, g)
        assert act is x
        assert np.array_equal(_bits(act), _bits(act_ref))
        assert np.array_equal(_bits(g), _bits(g_ref))

    # special values in one of the three inputs at a time: an inf times a
    # zero in one makes a NaN another NaN could meet (see SPECIAL)
    @pytest.mark.parametrize("special", ["g", "a", "b"])
    def test_gate_slopes_keep_the_bits(self, shape, special):
        # the one pass writes the tanh-side gradient over a and the
        # sigmoid-side one over g, and leaves b as it was
        rng = np.random.default_rng(shape)
        arrays = {"g": rng.standard_normal(shape), "a": rng.uniform(-1, 1, shape),
                  "b": rng.uniform(0, 1, shape)}
        arrays[special] = _with_specials(rng, shape)
        g, a, b = arrays["g"], arrays["a"], arrays["b"]
        b_before = b.copy()
        gPV = ref_tanh_grad(g, a, b)
        gPU = ref_sigmoid_grad(g.copy(), a, b)
        mm._gate_grads(g, a, b)
        assert np.array_equal(_bits(a), _bits(gPV))
        assert np.array_equal(_bits(g), _bits(gPU))
        assert np.array_equal(_bits(b), _bits(b_before))


@pytest.mark.parametrize("rows", [8, 1024])
def test_gelu_backward_scratch_is_one_block(rows):
    """The slope chain holds three block buffers, which for an array of one
    block are no larger than the array, and no array of x's size: gelu(x)
    goes over x."""
    x = np.random.default_rng(3).standard_normal((rows, 512))
    g = np.ones_like(x)
    tracemalloc.start()
    try:
        mm._gelu_backward(x, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = min(x.nbytes, max(1, ad.BLOCK // 512) * 512 * 8)
    assert peak <= 3 * block + 4096


@pytest.mark.parametrize("pooling,ablate_route",
                         [(p, False) for p in POOLINGS] + [("gated_attention", True)],
                         ids=list(POOLINGS) + ["gated_attention-without-route"])
def test_backward_never_accumulates_into_the_packed_input(monkeypatch, pooling, ablate_route):
    """The bag features need no gradient, so layer 0 computes none for them,
    nor does gated attention when it pools them without routing."""
    seen = []
    accum = mm._accum

    def spy(t, g):
        seen.append(t)
        accum(t, g)

    monkeypatch.setattr(mm, "_accum", spy)
    model = small_model(pooling=pooling, ablate_route=ablate_route)
    rng = np.random.default_rng(21)
    out, _ = model.forward([rng.standard_normal((7, 6)), rng.standard_normal((5, 6))])
    ad.backward(out, np.ones(out.shape))
    assert seen and all(t.requires_grad for t in seen)


def _route_inputs(rng, sizes):
    # soft weights, so the assignment input has a gradient of its own
    n, K, d, h = sum(sizes), 3, 4, 5
    return ([rng.standard_normal((n, d)), rng.uniform(0.1, 1.0, (n, K)),
             rng.standard_normal((len(sizes) * K, d))]
            + [p.data for p in mlp_params(rng, d, h)[:2]]
            + [rng.standard_normal((h, d)), rng.standard_normal(d)])


def _reduce_inputs(rng, sizes):
    K, d = 4, 3
    return [rng.standard_normal((len(sizes) * K, d)), rng.standard_normal((K, K)),
            rng.standard_normal(K), rng.standard_normal((K, K // 2)),
            rng.standard_normal(K // 2)]


def _pool_inputs(rng, sizes):
    d, h = 4, 3
    return [rng.standard_normal((sum(sizes), d)), rng.standard_normal((d, h)),
            rng.standard_normal((d, h)), rng.standard_normal((h, 1))]


def _anchor_mean_inputs(rng, sizes):
    return [rng.standard_normal((len(sizes) * 4, 3))]


FUSED = {
    "route_update": (_route_inputs, lambda t, seg: route_update(*t, seg)),
    "cluster_reduce": (_reduce_inputs, lambda t, seg: cluster_reduce(*t, seg)),
    "gated_attention_pool": (_pool_inputs, lambda t, seg: gated_attention_pool(*t, seg)[0]),
    "anchor_mean_pool": (_anchor_mean_inputs, lambda t, seg: anchor_mean_pool(*t, seg)),
}


@pytest.mark.parametrize("sizes", [[6], [4, 1, 5]], ids=["B1", "B3"])
@pytest.mark.parametrize("name", list(FUSED))
def test_fused_node_gradients_match_finite_differences(name, sizes):
    # every input of the one-node layer, alone and in a pack of three bags
    make_inputs, call = FUSED[name]
    rng = np.random.default_rng(18)
    arrays = make_inputs(rng, sizes)
    seg = ad.Segments(sizes)
    R = rng.standard_normal(call([Tensor(a) for a in arrays], seg).data.shape)

    def loss_val():
        return float((call([Tensor(a) for a in arrays], seg).data * R).sum())

    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = call(leaves, seg)
    assert out._op == name and set(map(id, out._children)) == set(map(id, leaves))
    ad.backward(out, R)
    for i, (leaf, arr) in enumerate(zip(leaves, arrays)):
        assert max_rel_err(leaf.grad, fd_grad(loss_val, arr)) < 1e-5, i


class TestGatedAttentionPool:
    def _params(self, rng, d, h):
        return (Tensor(rng.standard_normal((d, h))), Tensor(rng.standard_normal((d, h))),
                Tensor(rng.standard_normal((h, 1))))

    def test_single_instance_passthrough(self):
        rng = np.random.default_rng(11)
        H = rng.standard_normal((1, 4))
        pooled, attn = gated_attention_pool(Tensor(H), *self._params(rng, 4, 4), ad.Segments([1]))
        assert np.array_equal(pooled.data, H)
        assert attn[0] == 1.0

    def test_identical_instances_uniform_weights(self):
        rng = np.random.default_rng(12)
        row = rng.standard_normal(3)
        H = np.tile(row, (5, 1))
        _, attn = gated_attention_pool(Tensor(H), *self._params(rng, 3, 3), ad.Segments([5]))
        assert np.max(np.abs(attn - 0.2)) < 1e-12

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            H = rng.standard_normal((8, 4))
            _, attn = gated_attention_pool(Tensor(H), *self._params(rng, 4, 4), ad.Segments([8]))
            assert abs(attn.sum() - 1.0) < 1e-12


class TestAnchorMeanPool:
    @pytest.mark.parametrize("bags", [1, 3])
    def test_matches_the_composed_ops_bit_for_bit(self, bags):
        # the arithmetic of the reshape -> sum over anchors -> scale by 1/K
        # chain that pooled the anchors before the fused node: the forward
        # sums then scales, and the gradient is scaled, then broadcast
        rng = np.random.default_rng(23)
        K, d = 8, 5
        Sa = rng.standard_normal((bags * K, d))
        G = rng.standard_normal((bags, d))
        S = Tensor(Sa, requires_grad=True)
        pooled = anchor_mean_pool(S, ad.Segments([1] * bags))
        assert np.array_equal(pooled.data, Sa.reshape(bags, K, d).sum(axis=1) * np.float64(1.0 / K))
        ad.backward(pooled, G)
        scaled = G * np.float64(1.0 / K)
        assert np.array_equal(S.grad, np.broadcast_to(scaled[:, None, :], (bags, K, d))
                              .reshape(bags * K, d))

    def test_rejects_rows_not_divisible_by_bags(self):
        with pytest.raises(ShapeError):
            anchor_mean_pool(Tensor(np.zeros((5, 2))), ad.Segments([1, 1]))


def small_model(task="subtype", k0=4, layers=2, d=6, pooling="gated_attention", **kw):
    cfg = MicoConfig(d=d, anchors=k0, layers=layers, task=task, pooling=pooling, **kw)
    return MicoModel(cfg, rng=np.random.default_rng(99))


class TestForward:
    def test_double_ablation_degenerates_to_pooling(self):
        model = small_model(ablate_route=True, ablate_reducer=True)
        rng = np.random.default_rng(14)
        out, _ = model.forward(rng.standard_normal((10, 6)))
        assert np.all(np.isfinite(out.data))

    def test_permutation_invariance_of_bag_output(self):
        model = small_model()
        rng = np.random.default_rng(15)
        X = rng.standard_normal((12, 6))
        out1, _ = model.forward(X)
        perm = rng.permutation(12)
        out2, _ = model.forward(X[perm])
        assert np.max(np.abs(out1.data - out2.data)) < 1e-9

    def test_permutation_equivariance_of_routing(self):
        model = small_model(layers=1)
        rng = np.random.default_rng(16)
        X = rng.standard_normal((9, 6))
        _, a1 = model.forward(X)
        perm = rng.permutation(9)
        _, a2 = model.forward(X[perm])
        assert np.array_equal(a1[0].indices[perm], a2[0].indices)

    def test_single_instance_bag_matches_hand_computation(self):
        model = small_model(layers=1, d=3, k0=2)
        h = np.array([[0.3, -1.2, 0.8]])
        out, assigns = model.forward(h)

        p = {k: v.data for k, v in model.params.items()}
        S = p["anchors"]
        cos = np.array([h[0] @ S[k] / (np.linalg.norm(h[0]) * np.linalg.norm(S[k]))
                        for k in range(2)])
        idx = int(np.argmax(cos))
        assert assigns[0].indices[0] == idx
        s_tilde = np.where(np.arange(2)[:, None] == idx, h[0], S)
        assert np.allclose(assigns[0].aggregated, s_tilde, atol=1e-15)
        z = h[0] + s_tilde[idx]
        hidden = gelu_ref(z @ p["route0.w1"] + p["route0.b1"])
        h_prime = h[0] + hidden @ p["route0.w2"] + p["route0.b2"]
        # M = 1: attention pools to the single refined instance
        logits = h_prime @ p["head.w"] + p["head.b"]
        assert np.max(np.abs(out.data.reshape(-1) - logits)) < 1e-12

    def test_assignment_counts_conserved_every_layer(self):
        model = small_model(k0=8, layers=3)
        rng = np.random.default_rng(17)
        _, assigns = model.forward(rng.standard_normal((25, 6)))
        for a in assigns:
            assert a.counts.sum() == 25

    def test_anchor_halving_shapes_through_three_layers(self):
        cfg = MicoConfig(d=4, anchors=64, layers=3, task="subtype")
        model = MicoModel(cfg, rng=np.random.default_rng(18))
        rng = np.random.default_rng(19)
        _, assigns = model.forward(rng.standard_normal((10, 4)))
        assert [a.alignment.shape[1] for a in assigns] == [64, 32, 16]

    def test_routing_scale_invariance(self):
        model = small_model()
        rng = np.random.default_rng(20)
        X = rng.standard_normal((15, 6))
        _, base = model.forward(X)
        for c in (0.1, 10.0):
            _, scaled = model.forward(c * X)
            assert np.array_equal(base[0].indices, scaled[0].indices)

    def test_empty_bag_rejected(self):
        with pytest.raises(DataError):
            small_model().forward(np.zeros((0, 6)))

    def test_empty_pack_rejected(self):
        with pytest.raises(DataError, match="a pack needs at least one bag"):
            small_model().forward([])

    def test_wrong_dim_rejected(self):
        with pytest.raises(DataError):
            small_model().forward(np.zeros((3, 5)))

    @pytest.mark.parametrize("mode,argmaxes", [("hard", 3), ("soft", 0)])
    def test_forward_takes_one_argmax_per_hard_layer(self, monkeypatch, mode, argmaxes):
        # ste_assign's own; the record's indices are the same argmax,
        # taken when first read
        model = small_model(k0=8, layers=3)
        X = np.random.default_rng(22).standard_normal((11, 6))
        calls = []
        argmax = np.argmax
        monkeypatch.setattr(np, "argmax", lambda *a, **kw: calls.append(1) or argmax(*a, **kw))
        with ad.no_grad():
            _, assigns = model.forward(X, assign_mode=mode)
        assert len(calls) == argmaxes
        for a in assigns:
            assert np.array_equal(a.indices, argmax(a.alignment, axis=1))
            assert a.indices is a.indices
        assert len(calls) == argmaxes + 3

    def test_anchor_mean_pooling_runs(self):
        model = small_model(pooling="anchor_mean")
        rng = np.random.default_rng(21)
        out, _ = model.forward(rng.standard_normal((7, 6)))
        assert np.all(np.isfinite(out.data))

    def test_config_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            MicoConfig(d=4, anchors=6, layers=2)

    @pytest.mark.parametrize("field,value", [
        ("d", 4.0), ("anchors", 8.0), ("layers", True), ("mlp_hidden", 3.0),
        ("survival_bins", 4.0), ("subtype_classes", "2"),
    ])
    def test_config_rejects_non_integer_sizes(self, field, value):
        with pytest.raises(ConfigError, match=field):
            MicoConfig(**dict({"d": 4, "anchors": 8, "layers": 2}, **{field: value}))


class TestTrainableParams:
    def test_rule_matches_gradient_probe(self):
        # the reference is a hard-routing forward + backward: exactly the
        # parameters that receive a gradient are the ones the output reads
        rng = np.random.default_rng(22)
        for task, pooling, ablate_route, ablate_reducer, layers, m in itertools.product(
                ("survival", "subtype"), ("gated_attention", "anchor_mean"),
                (False, True), (False, True), (1, 2, 3), (1, 40)):
            cfg = MicoConfig(d=5, anchors=8, layers=layers, task=task, pooling=pooling,
                             ablate_route=ablate_route, ablate_reducer=ablate_reducer)
            model = MicoModel(cfg, rng=rng)
            out, _ = model.forward(rng.standard_normal((m, 5)))
            ad.backward(out, np.ones_like(out.data))
            probed = [name for name, p in model.params.items() if p.grad is not None]
            assert list(model.trainable_params()) == probed, (cfg, m)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.mico"
        cfg = asdict(model.config)
        save_checkpoint(str(path), cfg, model.state_arrays())
        cfg2, state = load_checkpoint(str(path))
        assert cfg2 == cfg
        for name, arr in model.state_arrays().items():
            assert np.array_equal(state[name], arr)
            # a view of the file's bytes, which a load copies from
            assert not state[name].flags.writeable
        # saving the loaded state reproduces the file byte for byte
        path2 = tmp_path / "m2.mico"
        save_checkpoint(str(path2), cfg2, state)
        assert path.read_bytes() == path2.read_bytes()
        # a model loaded from it owns its parameters and takes an Adam step
        loaded = MicoModel(model.config, rng=np.random.default_rng(1))
        loaded.load_state_arrays(state)
        opt = Adam(loaded.params, lr=0.1)
        for p in loaded.params.values():
            p.grad = np.ones(p.shape)
        opt.step()
        for name, p in loaded.params.items():
            assert np.allclose(p.data, state[name] - 0.1, rtol=0.0, atol=1e-6), name
            assert np.array_equal(state[name], model.state_arrays()[name]), name

    def test_load_keeps_parameters_in_their_optimizer(self):
        # a load copies into the arrays the optimizer steps, so the step
        # after it moves the loaded values, not ones the model no longer reads
        model = small_model()
        opt = Adam(model.params, lr=0.1)
        views = {name: p.data for name, p in model.params.items()}
        state = {name: arr + 1.0 for name, arr in model.state_arrays().items()}
        model.load_state_arrays(state)
        for name, p in model.params.items():
            assert p.data is views[name] and np.array_equal(p.data, state[name])
            p.grad = np.ones(p.shape)
        opt.step()
        for name, p in model.params.items():
            assert np.allclose(p.data, state[name] - 0.1, rtol=0.0, atol=1e-6), name

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mico"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(HeaderError):
            load_checkpoint(str(p))

    def test_truncation_detected(self, tmp_path):
        model = small_model()
        p = tmp_path / "t.mico"
        save_checkpoint(str(p), asdict(model.config), model.state_arrays())
        p.write_bytes(p.read_bytes()[:50])
        with pytest.raises((ChecksumError, HeaderError)):
            load_checkpoint(str(p))

    def test_bit_flip_detected(self, tmp_path):
        model = small_model()
        p = tmp_path / "c.mico"
        save_checkpoint(str(p), asdict(model.config), model.state_arrays())
        raw = bytearray(p.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_checkpoint(str(p))
