"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run tape: every op returns a new Tensor holding references to its
inputs and a closure implementing the backward rule. ``backward`` on a scalar,
or on any tensor with an upstream gradient of its shape, walks the recorded
graph once in reverse topological order and accumulates gradients into every
reachable leaf with ``requires_grad=True``.

A backward rule never captures the op's output Tensor (it reaches the
output's gradient through a weak reference), so the tape holds no reference
cycles and every node dies with its last reference, without waiting for the
cycle collector. ``backward`` spends the tape: once a node's rule has run,
the node drops its rule, its inputs and its gradient. Only leaves keep their
gradients, and a tape is differentiated once.

Under ``no_grad()`` ops record nothing: outputs carry no inputs and no rule,
so scoring builds no tape at all.

Every op is one node with a hand-written backward rule: ``linear`` for the
head here, each layer of the model in ``mico.model`` and each loss in
``mico.losses``.

A pack is B bags stacked into one (sum of M, d) matrix with row offsets, the
varlen layout of FlashAttention-2; ``Segments`` describes it, and its methods
keep every bag apart inside the fused nodes.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import (
    GraphError,
    NumericalError,
    OptimizerError,
    ShapeError,
)

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


class Segments:
    """Row layout of a pack of B bags.

    Bag b owns rows ``offsets[b]:offsets[b + 1]`` of a packed (sum of M, p)
    matrix, and the b-th of B equal row blocks of a stacked per-bag matrix
    (for example B blocks of K anchors, (B*K, d)). The methods work on plain
    arrays, from the offsets alone: the matmuls make one NumPy call per bag,
    the call a lone bag makes, and write it into its rows of the result.
    """

    def __init__(self, sizes):
        self.sizes = np.asarray(sizes, dtype=np.intp)
        if self.sizes.ndim != 1 or self.sizes.size == 0 or np.any(self.sizes < 1):
            raise ShapeError(f"segments: need one or more positive sizes, got {sizes!r}")
        self.count = int(self.sizes.size)
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        self.rows = int(self.offsets[-1])
        # each bag's (start, stop) rows, as Python ints for slicing
        self._spans = list(zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist()))

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
        out = np.empty((x.shape[0], yb.shape[2]))
        for b, (lo, hi) in enumerate(self._spans):
            np.matmul(x[lo:hi], yb[b], out=out[lo:hi])
        return out

    def outer(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Block b is x_b.T @ y_b: (N, p) and (N, q) give (B*p, q)."""
        p = x.shape[1]
        out = np.empty((self.count * p, y.shape[1]))
        for b, (lo, hi) in enumerate(self._spans):
            np.matmul(x[lo:hi].T, y[lo:hi], out=out[b * p:(b + 1) * p])
        return out

    def sum(self, x: np.ndarray) -> np.ndarray:
        """Per-bag sums over rows: (N, ...) gives (B, ...)."""
        # reduceat adds a single segment in another order than ``sum``, so a
        # pack of one keeps ``sum`` and stays bit-identical to a lone bag
        if self.count == 1:
            return x.sum(axis=0, keepdims=True)
        return np.add.reduceat(x, self.offsets[:-1], axis=0)

    def max(self, x: np.ndarray) -> np.ndarray:
        """Per-bag maxima over rows: (N, ...) gives (B, ...)."""
        return np.maximum.reduceat(x, self.offsets[:-1], axis=0)

    def spread(self, v: np.ndarray) -> np.ndarray:
        """Per-bag values (B, ...) onto the packed rows: (N, ...)."""
        return np.repeat(v, self.sizes, axis=0)


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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b: (n, p) rows, a (p, q) weight and a length-q bias give (n, q)."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]):
        raise ShapeError(
            f"linear: shapes {x.data.shape}, {w.data.shape} and {b.data.shape} incompatible")
    out = x.data @ w.data
    out += b.data

    def bw(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    return _make(out, (x, w, b), "linear", bw)


# ---------------------------------------------------------------------------
# backward pass

def backward(root: Tensor, grad=None) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``root``
    and spend the tape: op outputs drop their rule, inputs and gradient.

    ``grad`` seeds the walk with an upstream gradient of ``root``'s shape;
    omitted, it is 1 and ``root`` must be a scalar."""
    seed = np.asarray(1.0 if grad is None else grad, dtype=np.float64)
    if seed.shape != root.data.shape:
        raise GraphError(f"backward: seed of shape {seed.shape} for a root of shape "
                         f"{root.data.shape} (without a seed the root must be scalar)")
    if not root.requires_grad:
        raise GraphError("backward: tensor is detached from the tape (requires_grad=False)")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._op != "leaf" and node._backward is None:
            # the root itself on a repeated call, or a node shared with a
            # root that was already differentiated
            raise GraphError("backward: this tape was spent by an earlier backward; "
                             "run a new forward pass")
        visited.add(id(node))
        stack.append((node, True))
        for child in node._children:
            if child.requires_grad and id(child) not in visited:
                stack.append((child, False))

    _accum(root, seed)
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

    def __init__(self, params: dict[str, Tensor], lr: float,
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
        # in place, with the operations and their order of the textbook
        # m = b1 m + (1 - b1) g, so the results are the same bits
        for name, p in self.params.items():
            g, m, v = p.grad, self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        zero_grad(self.params.values())
