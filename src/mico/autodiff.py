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
gradients, and a tape is differentiated once. The gradient of a parameter
that an ``Adam`` owns is a view of the optimizer's flat gradient vector,
which the next backward after ``zero_grad`` overwrites.

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
import math
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

    __slots__ = ("data", "requires_grad", "grad", "_grad_slot", "_children", "_backward",
                 "_op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False,
                 _children: tuple = (), _op: str = "leaf"):
        arr = np.asarray(data, dtype=np.float64)
        if _op == "leaf" and not np.all(np.isfinite(arr)):
            raise NumericalError("tensor created from non-finite data")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        # a parameter's view into its optimizer's flat gradient vector
        self._grad_slot: Optional[np.ndarray] = None
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
    """Add ``g`` to the gradient of ``t``.

    An op output's gradient belongs to the tape, so its first gradient is
    taken over without a copy and later ones are added in place (the bits of
    ``t.grad + g``). That is sound because every rule hands ``_accum`` a
    fresh array, held by no one else, with one exception: ``ste_assign``
    hands on its upstream gradient, and ``backward`` drops that gradient
    right after the rule runs. A leaf copies its first gradient and adds
    later ones out of place, so a caller may keep a ``grad`` it read; an
    optimizer-owned leaf writes into its slot of the flat gradient vector.

    ``+`` makes a C-ordered array of operands whose layouts differ, such as
    an F-ordered gradient (a transposed view) and a C-ordered one. Later
    rules sum along rows, and the bits of a sum follow the layout, so such a
    sum is still made out of place.
    """
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        # ``+`` and ``np.copyto`` would both broadcast it without a word
        raise GraphError(f"backward: gradient of shape {g.shape} for a {t._op!r} tensor "
                         f"of shape {t.data.shape}")
    if t.grad is None:
        if t._grad_slot is not None:
            np.copyto(t._grad_slot, g)
            t.grad = t._grad_slot
        elif t._op == "leaf":
            t.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            t.grad = g
    elif t.grad is t._grad_slot or (
            t._op != "leaf" and (t.grad.flags.c_contiguous or t.grad.strides == g.strides)):
        t.grad += g   # the bits and layout of ``t.grad + g``, with no new array
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
    # a copy: the root's gradient belongs to the tape, not to the caller
    seed = np.array(1.0 if grad is None else grad, dtype=np.float64)
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
    """Reset gradients between training steps; leaves no stale values (an
    optimizer-owned slice is overwritten by the next first gradient)."""
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# blocked passes

# elements per block of a blocked pass: 256 KiB of float64, so that a pass's
# block temporaries stay in L2 between its operations
BLOCK = 1 << 15


def blocks(shape: tuple[int, ...], scratch: int = 0, budget: int | None = None):
    """Yield each block of rows of an array of ``shape``, about ``budget``
    elements (``BLOCK`` by default) and at least one row, as a slice with
    ``scratch`` float64 buffers of the block's shape. The buffers are made
    once and reused from block to block; for an array of one block they are
    the size of the array, like the temporaries of a pass over the whole.

    A blocked pass gives every element the same operations in the same
    order as the pass over the whole array, and splits no reduction over
    rows, so it has the same bits for any block size."""
    rows, row_shape = shape[0], shape[1:]
    step = max(1, (BLOCK if budget is None else budget) // max(1, math.prod(row_shape)))
    buffers = [np.empty((min(step, rows),) + row_shape) for _ in range(scratch)]
    for lo in range(0, rows, step):
        n = min(step, rows - lo)
        yield slice(lo, lo + n), [b[:n] for b in buffers]


# ---------------------------------------------------------------------------
# optimizer


BETAS = (0.9, 0.999)   # Adam's moment decay rates
EPS = 1e-8             # and the guard added to its denominator


class Adam:
    """Adam with bias correction over a named parameter dict.

    The optimizer owns four flat float64 vectors: the parameter values, their
    gradients and the two moments ``_m`` and ``_v``, each parameter's slice at
    its offset in dict order. Each parameter's ``data`` becomes a view of its
    slice of the values, and backward writes its gradient into its slice of
    the gradients, so a step is a dozen NumPy calls per block of the vectors
    rather than a dozen per parameter. A parameter joins one optimizer in its
    lifetime: another one would step a buffer the parameter no longer uses.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        seen: set[int] = set()
        for name, p in params.items():
            if p._grad_slot is not None or id(p) in seen:
                raise OptimizerError(f"adam: parameter {name!r} already belongs to an optimizer")
            seen.add(id(p))
        self.params = params
        self.lr = lr
        self.t = 0
        n = sum(p.data.size for p in params.values())
        self._values, self._grads = np.empty(n), np.empty(n)
        self._m, self._v = np.zeros(n), np.zeros(n)
        lo = 0
        for p in params.values():
            hi = lo + p.data.size
            values = self._values[lo:hi].reshape(p.data.shape)
            values[...] = p.data
            p.data = values
            p._grad_slot = self._grads[lo:hi].reshape(values.shape)
            lo = hi

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise OptimizerError(f"adam step: parameter {name!r} has no gradient")
        for name, p in self.params.items():
            if p.grad is not p._grad_slot:
                # assigned by hand, not accumulated by backward
                if p.grad.shape != p.data.shape:
                    raise GraphError(f"adam step: gradient of shape {p.grad.shape} for "
                                     f"parameter {name!r} of shape {p.data.shape}")
                np.copyto(p._grad_slot, p.grad)
        self.t += 1
        b1, b2 = BETAS
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        # in place, with the operations and their order of the textbook
        # m = b1 m + (1 - b1) g, so the results are the same bits
        for blk, (s, r) in blocks(self._values.shape, 2):
            g, m, v = self._grads[blk], self._m[blk], self._v[blk]
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            np.divide(m, c1, out=s)     # m_hat
            s *= self.lr
            np.divide(v, c2, out=r)     # v_hat
            np.sqrt(r, out=r)
            r += EPS
            s /= r
            self._values[blk] -= s

    def zero_grad(self) -> None:
        zero_grad(self.params.values())
