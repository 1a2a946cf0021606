import math

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


class TestElementwise:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.mul(Tensor([1, 2]), Tensor([1, 2, 3]))

    def test_scalar_broadcast(self):
        out = ad.mul(Tensor([[1.0, 2.0]]), 3.0)
        assert np.array_equal(out.data, [[3, 6]])


class TestReduce:
    def test_sum_axis(self):
        assert np.array_equal(ad.sum_(Tensor([[1, 2], [3, 4]]), axis=1).data, [3, 7])

    def test_mean_axis(self):
        assert np.array_equal(ad.mean(Tensor([[2.0, 4.0]]), axis=1).data, [3.0])

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.sum_(Tensor([[1.0]]), axis=2)


class TestBackward:
    def test_square_sum(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.sum_(ad.mul(x, x)).backward()
        assert np.array_equal(x.grad, [2, 4, 6])

    def test_linear_grads_match_finite_differences(self):
        rng = np.random.default_rng(1)
        xa, wa = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        ba = rng.standard_normal(2)
        R = rng.standard_normal((3, 2))
        x, w, b = (Tensor(v, requires_grad=True) for v in (xa, wa, ba))
        ad.sum_(ad.mul(ad.linear(x, w, b), Tensor(R))).backward()

        def f():
            return float(((xa @ wa + ba) * R).sum())

        for t, arr in ((x, xa), (w, wa), (b, ba)):
            assert max_rel_err(t.grad, fd_grad(f, arr)) < 1e-6

    def test_constant_leaf_gets_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        ad.sum_(ad.mul(x, c)).backward()
        assert c.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            ad.mul(x, x).backward()

    def test_detached_loss_rejected(self):
        with pytest.raises(GraphError):
            ad.sum_(Tensor([1.0])).backward()

    def test_repeated_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        loss = ad.sum_(x)
        loss.backward()
        with pytest.raises(GraphError):
            loss.backward()

    def test_backward_through_spent_node_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, x)
        ad.sum_(y).backward()
        with pytest.raises(GraphError):
            ad.sum_(ad.scale(y, 3.0)).backward()
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_zero_grad_resets(self):
        x = Tensor([1.0], requires_grad=True)
        ad.sum_(x).backward()
        assert x.grad is not None
        ad.zero_grad([x])
        assert x.grad is None


@pytest.mark.parametrize("builder", [
    lambda x: ad.sum_(ad.mul(x, x)),
    lambda x: ad.sum_(ad.mul(
        ad.linear(x, Tensor(np.arange(8.0).reshape(4, 2)), Tensor([0.5, -1.0])),
        ad.linear(x, Tensor(np.cos(np.arange(8.0)).reshape(4, 2)), Tensor([1.0, 2.0])))),
    lambda x: ad.sum_(ad.mean(ad.reshape(ad.scale(x, -2.0), (2, 10)), axis=1)),
    lambda x: ad.sum_(ad.mul(ad.sum_(x, axis=0), Tensor(np.arange(4.0)))),
])
def test_composite_gradients_match_finite_differences(builder):
    rng = np.random.default_rng(3)
    xa = rng.standard_normal((5, 4))
    x = Tensor(xa, requires_grad=True)
    builder(x).backward()
    numeric = fd_grad(lambda: float(builder(Tensor(xa)).data), xa)
    assert max_rel_err(x.grad, numeric) < 1e-6


def test_backward_linearity():
    # gradients of losses differentiated one after another accumulate, as
    # the packs of one grad-accum group do
    rng = np.random.default_rng(4)
    xa = rng.standard_normal(6)
    c = Tensor(rng.standard_normal(6))

    def grad_of(a, b):
        x = Tensor(xa, requires_grad=True)
        ad.scale(ad.sum_(ad.mul(x, x)), a).backward()
        ad.scale(ad.sum_(ad.mul(x, c)), b).backward()
        return x.grad

    g = grad_of(2.0, 3.0)
    g1, g2 = grad_of(1.0, 0.0), grad_of(0.0, 1.0)
    assert np.max(np.abs(g - (2.0 * g1 + 3.0 * g2))) < 1e-12


def test_forward_determinism():
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)

    def run(rng):
        x = Tensor(rng.standard_normal((4, 4)))
        return ad.sum_(ad.linear(x, x, Tensor(rng.standard_normal(4)))).data

    assert np.array_equal(run(rng1), run(rng2))


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Tensor([1.5], requires_grad=True)
        p.grad = np.zeros(1)
        Adam({"p": p}, lr=0.1).step()
        assert np.array_equal(p.data, [1.5])

    def test_single_step_matches_bias_corrected_formula(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = Tensor([2.0], requires_grad=True)
        p.grad = np.ones(1)
        Adam({"p": p}, lr=lr, betas=(b1, b2), eps=eps).step()
        # t=1: m_hat = v_hat = 1, so the step is lr / (1 + eps)
        expected = 2.0 - lr * 1.0 / (math.sqrt(1.0) + eps)
        assert abs(p.data[0] - expected) < 1e-15

    def test_two_steps_match_closed_form_ema(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.7
        p = Tensor([0.0], requires_grad=True)
        opt = Adam({"p": p}, lr=lr, betas=(b1, b2), eps=eps)
        for _ in range(2):
            p.grad = np.array([g])
            opt.step()
        # constant gradient: m_t = (1 - b1^t) g, v_t = (1 - b2^t) g^2
        assert abs(opt.m["p"][0] - (1 - b1 ** 2) * g) < 1e-15
        assert abs(opt.v["p"][0] - (1 - b2 ** 2) * g * g) < 1e-15

    def test_in_place_steps_equal_the_out_of_place_formula(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(6)
        p = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        opt = Adam({"p": p}, lr=lr, betas=(b1, b2), eps=eps)
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
            assert np.array_equal(opt.m["p"], m) and np.array_equal(opt.v["p"], v), t

    def test_missing_grad_names_parameter(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(OptimizerError, match="'p'"):
            Adam({"p": p}).step()
