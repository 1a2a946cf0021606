"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run tape: every op returns a new Tensor holding references to its
inputs and a closure implementing the backward rule. ``backward`` on a scalar
walks the recorded graph once in reverse topological order and accumulates
gradients into every reachable leaf with ``requires_grad=True``.

A backward rule never captures the op's output Tensor (it reaches the
output's gradient through a weak reference), so the tape holds no reference
cycles and every node dies with its last reference, without waiting for the
cycle collector. ``backward`` spends the tape: once a node's rule has run,
the node drops its rule, its inputs and its gradient. Only leaves keep their
gradients, and a tape is differentiated once.

Under ``no_grad()`` ops record nothing: outputs carry no inputs and no rule,
so scoring builds no tape at all.

Broadcasting is deliberately limited to scalar-with-tensor; the only other
shape mix is ``add_bias`` (row vector added to every matrix row), which has
its own explicit backward rule.

A pack is B bags stacked into one (sum of M, d) matrix with row offsets, the
varlen layout of FlashAttention-2; ``Segments`` describes it, and the
segment-aware ops (``matmul`` with ``seg``, ``softmax`` with ``seg``,
``weighted_sum``, ``transpose`` with ``blocks``) keep every bag apart.
"""

from __future__ import annotations

import contextlib
import math
import weakref
from functools import cached_property
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    GraphError,
    NumericalError,
    OptimizerError,
    ShapeError,
)

# tanh approximation constants for gelu
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

Scalar = Union[int, float]

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Within the block, ops record no tape (evaluation and export). The
    switch is process-wide, not per thread."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense n-dimensional float64 array on the autodiff tape."""

    __slots__ = ("data", "requires_grad", "grad", "_children", "_backward", "_op",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False,
                 _children: tuple = (), _op: str = "leaf"):
        arr = np.asarray(data, dtype=np.float64)
        if _op == "leaf" and not np.all(np.isfinite(arr)):
            raise NumericalError("tensor created from non-finite data")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._children = _children
        self._backward: Optional[Callable[[], None]] = None
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        backward(self)


class Segments:
    """Row layout of a pack of B bags.

    Bag b owns rows ``offsets[b]:offsets[b + 1]`` of a packed (sum of M, p)
    matrix, and the b-th of B equal row blocks of a stacked per-bag matrix
    (for example B blocks of K anchors, (B*K, d)). The methods work on plain
    arrays; a pack of one takes the plain NumPy path.
    """

    def __init__(self, sizes):
        self.sizes = np.asarray(sizes, dtype=np.intp)
        if self.sizes.ndim != 1 or self.sizes.size == 0 or np.any(self.sizes < 1):
            raise ShapeError(f"segments: need one or more positive sizes, got {sizes!r}")
        self.count = int(self.sizes.size)
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        self.rows = int(self.offsets[-1])
        self._width = int(self.sizes.max())

    @cached_property
    def ids(self) -> np.ndarray:
        """The bag of every packed row."""
        return np.repeat(np.arange(self.count), self.sizes)

    @cached_property
    def _slots(self) -> np.ndarray:
        # each packed row's place in a (B, largest M) zero-padded layout
        return self.ids * self._width + np.arange(self.rows) - self.offsets[:-1][self.ids]

    def _pad(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.count * self._width, x.shape[1]))
        out[self._slots] = x
        return out.reshape(self.count, self._width, x.shape[1])

    def _unpad(self, y: np.ndarray) -> np.ndarray:
        return y.reshape(-1, y.shape[2])[self._slots]

    def _blocks(self, y: np.ndarray) -> np.ndarray:
        """A stacked (B*p, q) matrix as its (B, p, q) blocks."""
        if y.ndim != 2 or y.shape[0] % self.count:
            raise ShapeError(f"segments: {y.shape} is not {self.count} stacked blocks")
        return y.reshape(self.count, y.shape[0] // self.count, y.shape[1])

    def matmul(self, x: np.ndarray, y: np.ndarray, trans_y: bool = False) -> np.ndarray:
        """Rows of bag b times block b of ``y`` (transposed with ``trans_y``):
        (N, p) and (B*p, q), or (B*q, p) with ``trans_y``, give (N, q)."""
        yb = self._blocks(y)
        if trans_y:
            yb = yb.transpose(0, 2, 1)
        if self.count == 1:
            return x @ yb[0]
        return self._unpad(self._pad(x) @ yb)

    def outer(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Block b is x_b.T @ y_b: (N, p) and (N, q) give (B*p, q)."""
        if self.count == 1:
            return x.T @ y
        z = self._pad(x).transpose(0, 2, 1) @ self._pad(y)
        return z.reshape(-1, z.shape[2])

    def sum(self, x: np.ndarray) -> np.ndarray:
        """Per-bag sums over rows: (N, ...) gives (B, ...)."""
        if self.count == 1:
            return x.sum(axis=0, keepdims=True)
        return np.add.reduceat(x, self.offsets[:-1], axis=0)

    def max(self, x: np.ndarray) -> np.ndarray:
        """Per-bag maxima over rows: (N, ...) gives (B, ...)."""
        if self.count == 1:
            return x.max(axis=0, keepdims=True)
        return np.maximum.reduceat(x, self.offsets[:-1], axis=0)

    def spread(self, v: np.ndarray) -> np.ndarray:
        """Per-bag values (B, ...) onto the packed rows; a pack of one
        returns its single row, which broadcasts."""
        return v if self.count == 1 else v[self.ids]


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad = t.grad + g


def _make(data, children, op, bw) -> Tensor:
    """Create an op output; record backward only if some input needs grad
    and gradients are enabled.

    ``bw(g)`` accumulates the output's gradient ``g`` into the inputs. It may
    capture the inputs and arrays, never the output Tensor.
    """
    rg = _grad_enabled and any(c.requires_grad for c in children)
    out = Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg,
                 _children=tuple(children) if rg else (), _op=op)
    if rg:
        ref = weakref.ref(out)
        out._backward = lambda: bw(ref().grad)
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes {a.data.shape} and {b.data.shape} differ")


def _binary(a, b, op: str, fwd, bwd_a, bwd_b) -> Tensor:
    """Elementwise binary op; one operand may be a scalar (python or 0-d)."""
    a, b = _as_tensor(a), _as_tensor(b)
    a_scalar, b_scalar = a.data.ndim == 0, b.data.ndim == 0
    if not (a_scalar or b_scalar):
        _check_same_shape(a, b, op)
    data = fwd(a.data, b.data)

    def bw(g):
        ga = bwd_a(g, a.data, b.data)
        gb = bwd_b(g, a.data, b.data)
        if a_scalar and not b_scalar:
            ga = np.sum(ga)
        if b_scalar and not a_scalar:
            gb = np.sum(gb)
        _accum(a, ga)
        _accum(b, gb)

    return _make(data, (a, b), op, bw)


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b) -> Tensor:
    return _binary(a, b, "add", lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    b_arr = _as_tensor(b).data
    if np.any(b_arr == 0.0):
        raise DomainError("div: division by zero")
    return _binary(a, b, "div", lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def scale(a, c: Scalar) -> Tensor:
    return mul(a, float(c))


def neg(a) -> Tensor:
    return scale(a, -1.0)


def _unary(a, op: str, fwd, deriv) -> Tensor:
    a = _as_tensor(a)
    data = np.asarray(fwd(a.data), dtype=np.float64)
    return _make(data, (a,), op, lambda g: _accum(a, g * deriv(a.data, data)))


def exp(a) -> Tensor:
    return _unary(a, "exp", np.exp, lambda x, o: o)


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: operand has non-positive entries")
    return _unary(a, "log", np.log, lambda x, o: 1.0 / x)


def gelu(a) -> Tensor:
    """gelu with the tanh approximation: 0.5 x (1 + tanh(c (x + a x^3)))."""
    # products, not powers (``x ** 3`` takes the slow general pow path), and
    # one temporary updated in place; scaling by 0.5 last is exact
    def fwd(x):
        t = x * x
        t *= x
        t *= _GELU_A
        t += x
        t *= _GELU_C
        np.tanh(t, out=t)
        t += 1.0
        t *= x
        t *= 0.5
        return t

    def deriv(x, o):
        x2 = x * x
        t = np.tanh(_GELU_C * (x + _GELU_A * (x2 * x)))
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
        return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner

    return _unary(a, "gelu", fwd, deriv)


def tanh(a) -> Tensor:
    return _unary(a, "tanh", np.tanh, lambda x, o: 1.0 - o ** 2)


def sigmoid(a) -> Tensor:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, without
    # masked indexing: with e = exp(-|x|) the numerator is max(e, x >= 0)
    def fwd(x):
        e = np.abs(x)
        np.negative(e, out=e)
        np.exp(e, out=e)
        out = np.maximum(e, (x >= 0).astype(np.float64))
        e += 1.0
        out /= e
        return out

    return _unary(a, "sigmoid", fwd, lambda x, o: o * (1.0 - o))


def log_sigmoid(a) -> Tensor:
    """log(sigmoid(x)) = -softplus(-x), computed without overflow."""
    return _unary(a, "log_sigmoid",
                  lambda x: -np.logaddexp(0.0, -x),
                  lambda x, o: 1.0 / (1.0 + np.exp(x)))


# ---------------------------------------------------------------------------
# structural ops

def matmul(a, b, seg: Segments | None = None) -> Tensor:
    """a @ b; with ``seg``, the rows of bag i in ``a`` times the i-th of the
    ``seg.count`` stacked row blocks of ``b``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: operands must be rank-2, got {a.data.shape} and {b.data.shape}")
    blocks = 1 if seg is None else seg.count
    if a.data.shape[1] * blocks != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.data.shape} and {b.data.shape}"
                         + (f" in {blocks} blocks" if blocks > 1 else ""))
    if seg is None:
        data = a.data @ b.data

        def bw(g):
            _accum(a, g @ b.data.T)
            _accum(b, a.data.T @ g)
    else:
        data = seg.matmul(a.data, b.data)

        def bw(g):
            _accum(a, seg.matmul(g, b.data, trans_y=True))
            _accum(b, seg.outer(a.data, g))

    return _make(data, (a, b), "matmul", bw)


def weighted_sum(w, x, seg: Segments | None = None) -> Tensor:
    """Per-bag weighted row sums: (N,) weights and (N, d) rows give (B, d),
    row b summing ``w[i] * x[i]`` over the rows i of bag b."""
    w, x = _as_tensor(w), _as_tensor(x)
    if w.data.ndim != 1 or x.data.ndim != 2 or w.data.shape[0] != x.data.shape[0]:
        raise ShapeError(f"weighted_sum: shapes {w.data.shape} and {x.data.shape} incompatible")
    seg = seg or Segments([x.data.shape[0]])
    data = seg.sum(w.data[:, None] * x.data)

    def bw(g):
        G = seg.spread(g)
        _accum(w, (x.data * G).sum(axis=1))
        _accum(x, w.data[:, None] * G)

    return _make(data, (w, x), "weighted_sum", bw)


def add_bias(mat, bias) -> Tensor:
    """Add a length-n row vector to every row of an (m, n) matrix."""
    mat, bias = _as_tensor(mat), _as_tensor(bias)
    if mat.data.ndim != 2 or bias.data.ndim != 1 or mat.data.shape[1] != bias.data.shape[0]:
        raise ShapeError(f"add_bias: shapes {mat.data.shape} and {bias.data.shape} incompatible")
    data = mat.data + bias.data[None, :]

    def bw(g):
        _accum(mat, g)
        _accum(bias, g.sum(axis=0))

    return _make(data, (mat, bias), "add_bias", bw)


def _block_transpose(x: np.ndarray, blocks: int) -> np.ndarray:
    if blocks == 1:
        return x.T
    r, c = x.shape[0] // blocks, x.shape[1]
    return x.reshape(blocks, r, c).transpose(0, 2, 1).reshape(blocks * c, r)


def transpose(a, blocks: int = 1) -> Tensor:
    """Transpose each of ``blocks`` stacked row blocks: (blocks*R, C) gives
    (blocks*C, R)."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: rank-2 tensor required, got shape {a.data.shape}")
    if a.data.shape[0] % blocks:
        raise ShapeError(f"transpose: {a.data.shape[0]} rows are not {blocks} blocks")
    return _make(_block_transpose(a.data, blocks), (a,), "transpose",
                 lambda g: _accum(a, _block_transpose(g, blocks)))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot view size {a.data.size} as {shape}")
    return _make(a.data.reshape(shape), (a,), "reshape",
                 lambda g: _accum(a, g.reshape(a.data.shape)))


def _check_axis(a: Tensor, axis):
    if axis is not None and not (-a.data.ndim <= axis < a.data.ndim):
        raise ShapeError(f"axis {axis} out of range for rank-{a.data.ndim} tensor")


def sum_(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    _check_axis(a, axis)
    data = a.data.sum(axis=axis)

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _make(data, (a,), "sum", bw)


def mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    _check_axis(a, axis)
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(sum_(a, axis=axis), 1.0 / n)


def softmax(a, seg: Segments | None = None) -> Tensor:
    """Softmax over a rank-1 tensor, shift-stabilized; with ``seg``, over
    each bag's entries separately."""
    a = _as_tensor(a)
    if a.data.ndim != 1:
        raise ShapeError(f"softmax: rank-1 tensor required, got shape {a.data.shape}")
    seg = seg or Segments([a.data.shape[0]])
    e = np.exp(a.data - seg.spread(seg.max(a.data)))
    P = e / seg.spread(seg.sum(e))

    def bw(g):
        gP = g * P
        _accum(a, gP - P * seg.spread(seg.sum(gP)))

    return _make(P, (a,), "softmax", bw)


def logsumexp(a) -> Tensor:
    """log sum exp over a rank-1 tensor, shift-stabilized."""
    a = _as_tensor(a)
    if a.data.ndim != 1:
        raise ShapeError(f"logsumexp: rank-1 tensor required, got shape {a.data.shape}")
    m = float(a.data.max())
    return add(log(sum_(exp(sub(a, m)))), m)


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``
    and spend the tape: op outputs drop their rule, inputs and gradient."""
    if loss.data.ndim != 0:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise GraphError("backward: tensor is detached from the tape (requires_grad=False)")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._op != "leaf" and node._backward is None:
            # the loss itself on a repeated call, or a node shared with a
            # loss that was already differentiated
            raise GraphError("backward: this tape was spent by an earlier backward; "
                             "run a new forward pass")
        visited.add(id(node))
        stack.append((node, True))
        for child in node._children:
            if child.requires_grad and id(child) not in visited:
                stack.append((child, False))

    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(topo):
        if node._backward is not None:
            if node.grad is not None:
                node._backward()
            node._backward, node._children, node.grad = None, (), None


def zero_grad(params: Iterable[Tensor]) -> None:
    """Reset gradients between training steps; leaves no stale values."""
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# optimizer

class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 2e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise OptimizerError(f"adam step: parameter {name!r} has no gradient")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / (1.0 - b1 ** self.t)
            v_hat = self.v[name] / (1.0 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        zero_grad(self.params.values())
