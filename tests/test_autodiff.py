import ast
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mico import autodiff as ad
from mico.autodiff import Adam, Tensor
from mico.errors import GraphError, OptimizerError, ShapeError


def fd_grad(f, arr, eps=1e-6):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        hi = f()
        arr[idx] = orig - eps
        lo = f()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def max_rel_err(a, b, floor=1e-4):
    return np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), floor))


class TestLinear:
    def test_identity(self):
        out = ad.linear(Tensor([[1, 0], [0, 1]]), Tensor([[3, 4], [5, 6]]), Tensor([0, 0]))
        assert np.array_equal(out.data, [[3, 4], [5, 6]])

    def test_dot_product_plus_bias(self):
        out = ad.linear(Tensor([[1, 2]]), Tensor([[3], [4]]), Tensor([-1]))
        assert np.array_equal(out.data, [[10]])

    def test_matches_triple_loop_oracle(self):
        # integer-valued entries keep both accumulation orders exact in f64,
        # so the comparison can be bitwise
        rng = np.random.default_rng(0)
        a = rng.integers(-8, 9, size=(3, 4)).astype(float)
        b = rng.integers(-8, 9, size=(4, 2)).astype(float)
        c = rng.integers(-8, 9, size=2).astype(float)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                expected[i, j] = c[j]
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ad.linear(Tensor(a), Tensor(b), Tensor(c))
        assert np.array_equal(out.data, expected)

    def test_shape_mismatch_names_all_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\).*\(3,\)"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))


class TestBackward:
    def test_seed_is_the_root_gradient(self):
        x = Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
        ad.backward(ad.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3))), [[2.0, 4.0, 6.0]])
        assert np.array_equal(x.grad, [[2, 4, 6]])

    def test_linear_grads_match_finite_differences(self):
        rng = np.random.default_rng(1)
        xa, wa = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        ba = rng.standard_normal(2)
        R = rng.standard_normal((3, 2))
        x, w, b = (Tensor(v, requires_grad=True) for v in (xa, wa, ba))
        ad.backward(ad.linear(x, w, b), R)

        def f():
            return float(((xa @ wa + ba) * R).sum())

        for t, arr in ((x, xa), (w, wa), (b, ba)):
            assert max_rel_err(t.grad, fd_grad(f, arr)) < 1e-6

    def test_constant_leaf_gets_no_grad(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        c = Tensor([[3.0], [4.0]])
        ad.backward(ad.linear(x, c, Tensor([0.0])), [[1.0]])
        assert c.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(GraphError, match="scalar"):
            ad.backward(ad.linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2))))

    @pytest.mark.parametrize("seed", [1.0, [1.0, 2.0], [[1.0], [2.0]], np.ones((1, 2, 1))],
                             ids=["scalar", "flat", "transposed", "extra-axis"])
    def test_seed_of_another_shape_rejected(self, seed):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        out = ad.linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        with pytest.raises(GraphError, match=r"shape"):
            ad.backward(out, seed)
        assert x.grad is None and out._backward is not None

    def test_detached_loss_rejected(self):
        with pytest.raises(GraphError):
            ad.backward(Tensor(1.0))

    def test_repeated_backward_rejected(self):
        x = Tensor([[1.0]], requires_grad=True)
        loss = ad.linear(x, Tensor([[2.0]]), Tensor([0.0]))
        ad.backward(loss, [[1.0]])
        with pytest.raises(GraphError):
            ad.backward(loss, [[1.0]])

    def test_backward_through_spent_node_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        y = ad.linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        ad.backward(y, [[2.0, 4.0]])
        with pytest.raises(GraphError):
            ad.backward(ad.linear(y, Tensor([[3.0], [3.0]]), Tensor([0.0])), np.ones((1, 1)))
        assert np.array_equal(x.grad, [[2.0, 4.0]])

    def test_zero_grad_resets(self):
        x = Tensor([[1.0]], requires_grad=True)
        ad.backward(ad.linear(x, Tensor([[1.0]]), Tensor([0.0])), [[1.0]])
        assert x.grad is not None
        ad.zero_grad([x])
        assert x.grad is None

    @pytest.mark.parametrize("owned", [False, True], ids=["plain", "optimizer-owned"])
    def test_gradient_of_another_shape_rejected(self, owned):
        # a rule handing a (3, 2) tensor a (2,) gradient: ``+`` and a copy
        # into the optimizer's slice would both broadcast it
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        if owned:
            Adam({"w": w}, lr=0.1)
        out = ad._make(w.data.sum(axis=0), (w,), "column_sum", lambda g: ad._accum(w, g))
        with pytest.raises(GraphError, match=r"\(2,\).*'leaf'.*\(3, 2\)"):
            ad.backward(out, np.ones(2))
        assert w.grad is None


_W1, _W2 = np.arange(8.0).reshape(4, 2), np.cos(np.arange(8.0)).reshape(4, 2)
_P = np.sin(np.arange(20.0)).reshape(4, 5)


@pytest.mark.parametrize("builder", [
    lambda x: ad.linear(x, Tensor(_W1), Tensor([0.5, -1.0])),
    lambda x: ad.linear(ad.linear(x, Tensor(_W1), Tensor([0.5, -1.0])),
                        Tensor(_W2[:2]), Tensor([1.0, 2.0])),
    # x as rows and as a weight: (4, 5) @ x, a (4, 4) weight for x itself
    lambda x: ad.linear(x, ad.linear(Tensor(_P), x, Tensor(np.zeros(4))), Tensor(np.ones(4))),
])
def test_composite_gradients_match_finite_differences(builder):
    rng = np.random.default_rng(3)
    xa = rng.standard_normal((5, 4))
    x = Tensor(xa, requires_grad=True)
    out = builder(x)
    R = rng.standard_normal(out.data.shape)
    ad.backward(out, R)
    numeric = fd_grad(lambda: float((builder(Tensor(xa)).data * R).sum()), xa)
    assert max_rel_err(x.grad, numeric) < 1e-6


def test_backward_linearity():
    # gradients of roots differentiated one after another accumulate, as the
    # packs of one grad-accum group do, each scaled by its seed
    rng = np.random.default_rng(4)
    xa = rng.standard_normal((1, 6))
    w1, w2 = Tensor(rng.standard_normal((6, 1))), Tensor(rng.standard_normal((6, 1)))
    zero = Tensor([0.0])

    def grad_of(a, b):
        x = Tensor(xa, requires_grad=True)
        ad.backward(ad.linear(x, w1, zero), [[a]])
        ad.backward(ad.linear(x, w2, zero), [[b]])
        return x.grad

    g = grad_of(2.0, 3.0)
    g1, g2 = grad_of(1.0, 0.0), grad_of(0.0, 1.0)
    assert np.max(np.abs(g - (2.0 * g1 + 3.0 * g2))) < 1e-12


def test_forward_determinism():
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)

    def run(rng):
        x = Tensor(rng.standard_normal((4, 4)))
        return ad.linear(x, x, Tensor(rng.standard_normal(4))).data

    assert np.array_equal(run(rng1), run(rng2))


def _autodiff_names_used(path):
    """Names a module takes from ``mico.autodiff``: imported from it, or read
    as attributes of the module under any alias."""
    tree = ast.parse(path.read_text())
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "autodiff":
                used |= {a.name for a in node.names}
            elif node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_every_public_autodiff_name_is_used_by_the_program():
    # an op the rest of mico never names is removed, not kept beside the
    # fused nodes
    public = {name for name, obj in inspect.getmembers(ad)
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == ad.__name__}
    assert {"Tensor", "backward", "linear", "Adam"} <= public, public
    used = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        if path.name != "autodiff.py":
            used |= _autodiff_names_used(path)
    assert not public - used, f"unused autodiff names: {sorted(public - used)}"


@pytest.mark.parametrize("shape,budget", [
    ((10,), 3), ((7, 4), 9), ((7, 4), 8), ((5, 4), 3), ((6, 2, 3), 13),
    ((3, 5), 100), ((0, 3), 4), ((2, 0), 4), ((1 << 16,), None), ((300, 7), None)])
def test_blocks_tile_the_rows_within_the_budget(shape, budget):
    width = math.prod(shape[1:])
    limit = ad.BLOCK if budget is None else budget
    covered, bases = [], None
    for s, bufs in ad.blocks(shape, scratch=2, budget=budget):
        n = s.stop - s.start
        assert n >= 1 and s.start == len(covered)
        assert n * width <= limit or (n == 1 and width > limit)
        assert [(b.shape, b.dtype) for b in bufs] == [((n,) + shape[1:], np.float64)] * 2
        # the same two buffers for every block
        bases = bases or [b.base for b in bufs]
        assert [b.base for b in bufs] == bases and bases[0] is not bases[1]
        covered += range(s.start, s.stop)
    assert covered == list(range(shape[0]))


def test_blocks_read_the_default_budget_at_call_time(monkeypatch):
    monkeypatch.setattr(ad, "BLOCK", 12)
    assert [s for s, _ in ad.blocks((7, 5))] == [slice(0, 2), slice(2, 4), slice(4, 6),
                                                  slice(6, 7)]
    assert [bufs for _, bufs in ad.blocks((3, 5))] == [[]] * 2


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Tensor([1.5], requires_grad=True)
        p.grad = np.zeros(1)
        Adam({"p": p}, lr=0.1).step()
        assert np.array_equal(p.data, [1.5])

    def test_single_step_matches_bias_corrected_formula(self):
        lr, (b1, b2), eps = 0.1, ad.BETAS, ad.EPS
        p = Tensor([2.0], requires_grad=True)
        p.grad = np.ones(1)
        Adam({"p": p}, lr=lr).step()
        # t=1: m_hat = v_hat = 1, so the step is lr / (1 + eps)
        expected = 2.0 - lr * 1.0 / (math.sqrt(1.0) + eps)
        assert abs(p.data[0] - expected) < 1e-15

    def test_two_steps_match_closed_form_ema(self):
        lr, (b1, b2) = 0.01, ad.BETAS
        g = 0.7
        p = Tensor([0.0], requires_grad=True)
        opt = Adam({"p": p}, lr=lr)
        for _ in range(2):
            p.grad = np.array([g])
            opt.step()
        # constant gradient: m_t = (1 - b1^t) g, v_t = (1 - b2^t) g^2
        assert abs(opt._m[0] - (1 - b1 ** 2) * g) < 1e-15
        assert abs(opt._v[0] - (1 - b2 ** 2) * g * g) < 1e-15

    def test_in_place_steps_equal_the_out_of_place_formula(self):
        lr, (b1, b2), eps = 1e-2, ad.BETAS, ad.EPS
        rng = np.random.default_rng(6)
        p = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        opt = Adam({"p": p}, lr=lr)
        data, m, v = p.data.copy(), np.zeros((3, 4)), np.zeros((3, 4))
        for t in range(1, 8):
            g = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-3, 3)
            p.grad = g
            opt.step()
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            data = data - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(p.data, data), t
            assert np.array_equal(opt._m.reshape(3, 4), m), t
            assert np.array_equal(opt._v.reshape(3, 4), v), t

    def test_missing_grad_names_parameter(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(OptimizerError, match="'p'"):
            Adam({"p": p}, lr=0.1).step()

    @pytest.mark.parametrize("block", [1, 5, 7, 1 << 15])
    def test_blocks_step_every_parameter_by_the_formula(self, block, monkeypatch):
        # parameters of 12, 5 and 12 values cut across blocks of the flat vectors
        monkeypatch.setattr(ad, "BLOCK", block)
        lr, (b1, b2), eps = 1e-2, ad.BETAS, ad.EPS
        rng = np.random.default_rng(7)
        params = {name: Tensor(rng.standard_normal(shape), requires_grad=True)
                  for name, shape in (("a", (3, 4)), ("b", (5,)), ("c", (2, 3, 2)))}
        opt = Adam(params, lr=lr)
        # each parameter's moments sit at its offset in the flat vectors
        offset = dict(zip(params, np.cumsum([0] + [p.data.size for p in params.values()])))
        ref = {name: [p.data.copy(), 0.0, 0.0] for name, p in params.items()}
        for t in range(1, 5):
            for name, p in params.items():
                g = rng.standard_normal(p.shape)
                ad._accum(p, g)
                data, m, v = ref[name]
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                data = data - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
                ref[name] = [data, m, v]
            opt.step()
            opt.zero_grad()
            for name, p in params.items():
                data, m, v = ref[name]
                assert np.array_equal(p.data, data), (t, name)
                at = slice(offset[name], offset[name] + p.data.size)
                assert np.array_equal(opt._m[at].reshape(p.shape), m)
                assert np.array_equal(opt._v[at].reshape(p.shape), v)

    def test_owned_gradient_is_one_slice_that_each_backward_overwrites(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor([[0.5, -1.0], [2.0, 0.25]], requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam({"w": w, "b": b}, lr=0.1)
        ad.backward(ad.linear(x, w, b), [[1.0, 2.0]])
        slot, kept = w.grad, w.grad.copy()
        opt.zero_grad()
        assert w.grad is None
        ad.backward(ad.linear(x, w, b), [[3.0, 5.0]])
        assert w.grad is slot
        assert np.array_equal(w.grad, [[3.0, 5.0], [6.0, 10.0]])
        assert np.array_equal(kept, [[1.0, 2.0], [2.0, 4.0]])
        # without zero_grad the next backward adds in place: the bits of grad + g
        ad.backward(ad.linear(x, w, b), [[0.1, 0.2]])
        assert w.grad is slot
        assert np.array_equal(w.grad, np.array([[3.0, 5.0], [6.0, 10.0]])
                              + np.array([[1.0], [2.0]]) * [[0.1, 0.2]])

    def test_a_parameter_joins_one_optimizer(self):
        p = Tensor([1.0], requires_grad=True)
        Adam({"p": p}, lr=0.1)
        with pytest.raises(OptimizerError, match="'p'"):
            Adam({"p": p}, lr=0.1)
        q, r = Tensor([1.0], requires_grad=True), Tensor([2.0], requires_grad=True)
        with pytest.raises(OptimizerError, match="'b'"):
            Adam({"a": q, "b": q, "c": r}, lr=0.1)
        # the refused optimizer took no parameter
        assert q._grad_slot is None and r._grad_slot is None
        Adam({"a": q, "c": r}, lr=0.1)

    def test_hand_gradient_of_another_shape_rejected(self):
        p = Tensor(np.ones((3, 2)), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.ones(2)
        with pytest.raises(GraphError, match=r"\(2,\).*'p'.*\(3, 2\)"):
            opt.step()
        assert opt.t == 0 and np.array_equal(p.data, np.ones((3, 2)))

    def test_step_allocates_no_temporary_as_long_as_the_vectors(self):
        # 2.1 M values, about the slide-size model: each temporary of the
        # whole length would be 16 MiB
        params = {f"p{i}": Tensor(np.zeros((1024, 1024)), requires_grad=True) for i in range(2)}
        opt = Adam(params, lr=0.1)
        for p in params.values():
            ad._accum(p, np.broadcast_to(0.5, p.shape))
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        # every block was stepped: a constant gradient moves each value by about lr
        for p in params.values():
            assert np.allclose(p.data, -0.1, rtol=0.0, atol=1e-6)



def _bag_rows(sizes):
    ends = np.cumsum(sizes)
    return [slice(int(e - m), int(e)) for m, e in zip(sizes, ends)]


def _segment_arrays(sizes, p, q):
    """Packed x (N, p) and z (N, q), and stacked blocks y (B*p, q) and
    yt (B*q, p)."""
    rng = np.random.default_rng(len(sizes) * 10 + p)
    n, B = sum(sizes), len(sizes)
    return (rng.standard_normal((n, p)), rng.standard_normal((n, q)),
            rng.standard_normal((B * p, q)), rng.standard_normal((B * q, p)))


SQUARE_OR_NOT = pytest.mark.parametrize("p,q", [(4, 4), (3, 5)], ids=["square", "non-square"])


@SQUARE_OR_NOT
@pytest.mark.parametrize("sizes", [[6], [1], [3, 1], [4, 1, 6, 2, 5]],
                         ids=["B1", "B1-M1", "B2", "B5"])
class TestSegments:
    """Each method against the plain NumPy call on each bag, exactly."""

    def test_matmul_and_outer_blocks_are_the_bag_products(self, sizes, p, q):
        seg = ad.Segments(sizes)
        x, z, y, yt = _segment_arrays(sizes, p, q)
        out, out_t, outer = seg.matmul(x, y), seg.matmul(x, yt, trans_y=True), seg.outer(x, z)
        assert out.shape == out_t.shape == (sum(sizes), q) and outer.shape == y.shape
        for b, rows in enumerate(_bag_rows(sizes)):
            assert np.array_equal(out[rows], x[rows] @ y[b * p:(b + 1) * p])
            assert np.array_equal(out_t[rows], x[rows] @ yt[b * q:(b + 1) * q].T)
            assert np.array_equal(outer[b * p:(b + 1) * p], x[rows].T @ z[rows])

    def test_reductions_and_spread_are_per_bag(self, sizes, p, q):
        seg = ad.Segments(sizes)
        x = _segment_arrays(sizes, p, q)[0]
        for arr in (x, x[:, 0]):   # rows of a matrix, and entries of a vector
            peak, total = seg.max(arr), seg.sum(arr)
            for b, rows in enumerate(_bag_rows(sizes)):
                assert np.array_equal(peak[b], arr[rows].max(axis=0))
                assert np.allclose(total[b], arr[rows].sum(axis=0), rtol=1e-14, atol=1e-14)
        v = x[:len(sizes)]
        spread = seg.spread(v)
        for b, rows in enumerate(_bag_rows(sizes)):
            assert np.array_equal(spread[rows], np.broadcast_to(v[b], spread[rows].shape))


@SQUARE_OR_NOT
@pytest.mark.parametrize("m", [6, 1])
def test_segments_of_one_bag_are_the_plain_expressions(m, p, q):
    seg = ad.Segments([m])
    x, z, y, yt = _segment_arrays([m], p, q)
    assert np.array_equal(seg.matmul(x, y), x @ y)
    assert np.array_equal(seg.matmul(x, yt, trans_y=True), x @ yt.T)
    assert np.array_equal(seg.outer(x, z), x.T @ z)
    assert np.array_equal(seg.sum(x), x.sum(axis=0, keepdims=True))
    assert np.array_equal(seg.max(x), x.max(axis=0, keepdims=True))
    assert np.array_equal(seg.spread(z[:1]), np.broadcast_to(z[:1], z.shape))
