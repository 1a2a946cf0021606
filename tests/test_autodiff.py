import math

import numpy as np
import pytest

from mico import autodiff as ad
from mico.autodiff import Adam, Tensor
from mico.errors import DomainError, GraphError, OptimizerError, ShapeError


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


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(Tensor([[1, 0], [0, 1]]), Tensor([[3, 4], [5, 6]]))
        assert np.array_equal(out.data, [[3, 4], [5, 6]])

    def test_dot_product(self):
        out = ad.matmul(Tensor([[1, 2]]), Tensor([[3], [4]]))
        assert np.array_equal(out.data, [[11]])

    def test_matches_triple_loop_oracle(self):
        # integer-valued entries keep both accumulation orders exact in f64,
        # so the comparison can be bitwise
        rng = np.random.default_rng(0)
        a = rng.integers(-8, 9, size=(3, 4)).astype(float)
        b = rng.integers(-8, 9, size=(4, 2)).astype(float)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ad.matmul(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, expected)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestElementwise:
    def test_add(self):
        assert np.array_equal(ad.add(Tensor([1, 2]), Tensor([3, 4])).data, [4, 6])

    def test_gelu_fixes_origin(self):
        assert ad.gelu(Tensor([0.0])).data[0] == 0.0

    def test_gelu_close_to_erf_reference(self):
        # tanh approximation vs exact x * Phi(x)
        for x in (1.0, -0.5, 2.3):
            exact = x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
            got = float(ad.gelu(Tensor([x])).data[0])
            assert abs(got - exact) < 1e-3

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor([1, 2]), Tensor([1, 2, 3]))

    def test_scalar_broadcast(self):
        out = ad.mul(Tensor([[1.0, 2.0]]), 3.0)
        assert np.array_equal(out.data, [[3, 6]])

    def test_log_domain(self):
        with pytest.raises(DomainError):
            ad.log(Tensor([1.0, 0.0]))

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            ad.div(Tensor([1.0]), Tensor([0.0]))


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

    def test_matmul_grads_match_finite_differences(self):
        rng = np.random.default_rng(1)
        xa, wa = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        x = Tensor(xa, requires_grad=True)
        w = Tensor(wa, requires_grad=True)
        ad.sum_(ad.matmul(x, w)).backward()
        assert max_rel_err(x.grad, fd_grad(lambda: float((xa @ wa).sum()), xa)) < 1e-6
        assert max_rel_err(w.grad, fd_grad(lambda: float((xa @ wa).sum()), wa)) < 1e-6

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


# explicit ids keep each case's test name fixed when the list changes
@pytest.mark.parametrize("op,domain", [
    pytest.param(ad.exp, (-2, 2), id="exp-domain0"),
    pytest.param(ad.log, (0.1, 3), id="log-domain1"),
    pytest.param(ad.gelu, (-3, 3), id="gelu-domain3"),
    pytest.param(ad.tanh, (-2, 2), id="tanh-domain4"),
    pytest.param(ad.sigmoid, (-4, 4), id="sigmoid-domain5"),
    pytest.param(ad.log_sigmoid, (-4, 4), id="log_sigmoid-domain6"),
])
def test_unary_gradients_match_finite_differences(op, domain):
    rng = np.random.default_rng(2)
    xa = rng.uniform(*domain, size=20)
    x = Tensor(xa, requires_grad=True)
    ad.sum_(op(x)).backward()
    numeric = fd_grad(lambda: float(op(Tensor(xa)).data.sum()), xa)
    assert max_rel_err(x.grad, numeric) < 1e-6


@pytest.mark.parametrize("builder", [
    lambda x: ad.sum_(ad.mul(x, x)),
    lambda x: ad.sum_(ad.gelu(ad.matmul(x, ad.transpose(x)))),
    lambda x: ad.logsumexp(ad.reshape(x, (x.data.size,))),
    lambda x: ad.sum_(ad.mul(ad.softmax(ad.reshape(x, (x.data.size,))),
                             Tensor(np.arange(x.data.size, dtype=float)))),
    lambda x: ad.sum_(ad.add_bias(x, Tensor(np.arange(4.0)))),
])
def test_composite_gradients_match_finite_differences(builder):
    rng = np.random.default_rng(3)
    xa = rng.standard_normal((5, 4))
    x = Tensor(xa, requires_grad=True)
    builder(x).backward()
    numeric = fd_grad(lambda: float(builder(Tensor(xa)).data), xa)
    assert max_rel_err(x.grad, numeric) < 1e-6


def test_backward_linearity():
    rng = np.random.default_rng(4)
    xa = rng.standard_normal(6)

    def grad_of(a, b):
        x = Tensor(xa, requires_grad=True)
        l1 = ad.sum_(ad.mul(x, x))
        l2 = ad.sum_(ad.exp(x))
        ad.add(ad.scale(l1, a), ad.scale(l2, b)).backward()
        return x.grad

    g = grad_of(2.0, 3.0)
    g1, g2 = grad_of(1.0, 0.0), grad_of(0.0, 1.0)
    assert np.max(np.abs(g - (2.0 * g1 + 3.0 * g2))) < 1e-12


def test_forward_determinism():
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)

    def run(rng):
        x = Tensor(rng.standard_normal((4, 4)))
        return ad.sum_(ad.gelu(ad.matmul(x, x))).data

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

    def test_missing_grad_names_parameter(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(OptimizerError, match="'p'"):
            Adam({"p": p}).step()
