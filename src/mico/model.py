"""The MiCo architecture: stacked cluster routing + anchor reduction.

Each layer routes every instance to its most similar semantic anchor
(cosine similarity, hard assignment with a straight-through backward),
aggregates assigned instances into context vectors, refines instance
features with a residual MLP, then halves the anchor count with an
anchor-axis MLP. A pooling head turns the final instance features into
one bag-level vector for the task head.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _accum, _make
from .errors import ConfigError, DataError, NumericalError, ShapeError

TASKS = ("survival", "subtype")
POOLINGS = ("gated_attention", "anchor_mean")
NORM_CLAMP = 1e-12

# tanh approximation constants for gelu
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# diagnostic counter: zero-norm rows clamped inside cosine_alignment
_zero_norm_clamps = 0


def zero_norm_clamp_count() -> int:
    return _zero_norm_clamps


@dataclass
class Assignment:
    """Record of one routing pass over a pack of B bags: similarities, hard
    choice, aggregation."""
    alignment: np.ndarray    # (sum of M, K) cosine similarities
    counts: np.ndarray       # (B*K,) instances per anchor, bag-major
    aggregated: np.ndarray   # (B*K, d) aggregated anchor values, bag-major

    @cached_property
    def indices(self) -> np.ndarray:
        """(sum of M,) chosen anchor per instance, the row argmax of
        ``alignment`` (ties to the lowest anchor), taken when first read:
        scoring never reads it, and ``ste_assign`` takes its own."""
        return np.argmax(self.alignment, axis=1)


def check_field_types(config) -> None:
    """Reject a value of the wrong type in a config dataclass field: one
    annotated ``int`` takes an int, one annotated ``float`` a finite real
    number, neither a bool; ``int | None`` also takes None."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        value, hint = getattr(config, f.name), hints[f.name]
        if hint not in (int, int | None, float) or (hint == int | None and value is None):
            continue
        want = numbers.Real if hint is float else int
        if (isinstance(value, bool) or not isinstance(value, want)
                or isinstance(value, float) and not math.isfinite(value)):
            kind = "a finite number" if hint is float else "an integer"
            raise ConfigError(f"{f.name} must be {kind}, got {type(value).__name__} {value!r}")


@dataclass(kw_only=True)
class ModelFields:
    """The model settings, and their defaults, of MicoConfig and TrainConfig."""
    layers: int = 3
    mlp_hidden: int | None = None   # defaults to d
    task: str = "survival"          # one of TASKS
    survival_bins: int = 4
    subtype_classes: int = 2
    pooling: str = "gated_attention"  # one of POOLINGS
    ablate_route: bool = False
    ablate_reducer: bool = False


@dataclass(kw_only=True)
class MicoConfig(ModelFields):
    d: int
    anchors: int                    # K0, halved after every layer

    def __post_init__(self):
        if self.mlp_hidden is None:
            self.mlp_hidden = self.d
        check_field_types(self)
        if self.d < 1:
            raise ConfigError(f"feature dim must be >= 1, got {self.d}")
        if self.layers < 1:
            raise ConfigError(f"layer count must be >= 1, got {self.layers}")
        if self.anchors < 1 or self.anchors % (2 ** self.layers) != 0:
            raise ConfigError(
                f"anchor count {self.anchors} must be divisible by 2^layers = {2 ** self.layers}")
        if self.mlp_hidden < 1:
            raise ConfigError(f"mlp_hidden must be >= 1, got {self.mlp_hidden}")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.survival_bins < 2:
            raise ConfigError(f"survival_bins must be >= 2, got {self.survival_bins}")
        if self.subtype_classes < 2:
            raise ConfigError(f"subtype_classes must be >= 2, got {self.subtype_classes}")
        if self.pooling not in POOLINGS:
            raise ConfigError(f"unknown pooling {self.pooling!r}")

    @property
    def head_size(self) -> int:
        return self.survival_bins if self.task == "survival" else self.subtype_classes

    @classmethod
    def from_dict(cls, d: dict) -> "MicoConfig":
        """Build a config from the dict's fields; other keys (a checkpoint's
        fold and bin edges, training-only or retired fields) are ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


# ---------------------------------------------------------------------------
# routing ops
#
# Every op takes a pack: B bags stacked into one (sum of M, d) matrix H with
# the row layout ``seg`` (``autodiff.Segments``), its last argument. Per-bag
# anchors are stacked as (B*K, d), bag b's in rows b*K:(b+1)*K.

def cosine_alignment(H: Tensor, S: Tensor, seg: ad.Segments) -> Tensor:
    """Cosine similarity between every instance row and every anchor row.

    S holds one block of anchors per segment of ``seg``; one segment over
    all rows aligns every row against all of S (the first layer's anchors,
    shared by the pack).

    Zero-norm rows are clamped at NORM_CLAMP (counted, not fatal); the clamp
    contributes no gradient through the norm. Bag features are checked before
    the layer stack, so a non-finite input here was made by the model itself
    (a diverging run) and raises NumericalError.
    """
    global _zero_norm_clamps
    if H.data.ndim != 2 or S.data.ndim != 2 or H.data.shape[1] != S.data.shape[1]:
        raise ShapeError(f"cosine_alignment: shapes {H.data.shape} and {S.data.shape} incompatible")

    # the arithmetic of ``np.linalg.norm(x, axis=1)``, without its copy x.conj()
    u = np.sqrt((H.data * H.data).sum(axis=1))
    v = np.sqrt((S.data * S.data).sum(axis=1))
    # a non-finite value makes its row's norm non-finite, so only a
    # non-finite norm (which also comes of overflow) needs the full check
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))) and not (
            np.all(np.isfinite(H.data)) and np.all(np.isfinite(S.data))):
        raise NumericalError("cosine_alignment: non-finite input")
    n_clamped = int(np.sum(u < NORM_CLAMP) + np.sum(v < NORM_CLAMP))
    if n_clamped:
        _zero_norm_clamps += n_clamped
    u = np.maximum(u, NORM_CLAMP)
    v = np.maximum(v, NORM_CLAMP)
    Sn = S.data / v[:, None]
    A = seg.matmul(H.data / u[:, None], Sn, trans_y=True)

    def bw(g):
        Hn = H.data / u[:, None]
        gA = g * A
        if H.requires_grad:
            _accum(H, (seg.matmul(g, Sn) - Hn * gA.sum(axis=1)[:, None]) / u[:, None])
        _accum(S, (seg.outer(g, Hn) - Sn * seg.sum(gA).reshape(-1)[:, None]) / v[:, None])

    return _make(A, (H, S), "cosine_alignment", bw)


def ste_assign(A: Tensor) -> Tensor:
    """Hard row-wise argmax assignment with a straight-through backward.

    Forward: exact one-hot rows (ties break toward the lowest anchor index).
    Backward: the upstream gradient passes through unchanged, as if the op
    were the identity on the similarity matrix.
    """
    if A.data.ndim != 2:
        raise ShapeError(f"ste_assign: rank-2 tensor required, got shape {A.data.shape}")
    if not np.all(np.isfinite(A.data)):
        raise NumericalError("ste_assign: non-finite similarities")
    idx = np.argmax(A.data, axis=1)
    hard = np.zeros_like(A.data)
    hard[np.arange(A.data.shape[0]), idx] = 1.0
    return _make(hard, (A,), "ste_assign", lambda g: _accum(A, g))


def aggregate_anchors(H: Tensor, A_hat: Tensor, S_prev: Tensor,
                      seg: ad.Segments) -> tuple[Tensor, np.ndarray]:
    """Weighted mean of each bag's assigned instances per anchor: a
    scatter-mean per (bag, anchor), returned as (B*K, d) with the (B*K,)
    assignment weights.

    ``S_prev`` is one (K, d) anchor set shared by the pack or (B*K, d) per
    bag. A bag's anchor with zero assignment weight carries that bag's
    previous value through bit-exactly and contributes no gradient to the
    instance features. The backward rule is exact for arbitrary non-negative
    weights, so the same op serves both hard one-hot routing and the soft
    relaxation used by the finite-difference suite.
    """
    M, d = H.data.shape
    K = A_hat.data.shape[-1]
    B = seg.count
    shared = S_prev.data.shape == (K, d)
    if (A_hat.data.shape != (M, K) or seg.rows != M
            or not (shared or S_prev.data.shape == (B * K, d))):
        raise ShapeError(
            f"aggregate_anchors: shapes H{H.data.shape} A{A_hat.data.shape} S{S_prev.data.shape} "
            f"inconsistent for {B} bags")

    W = A_hat.data
    counts = seg.sum(W).reshape(-1)
    empty = counts == 0.0
    safe = np.where(empty, 1.0, counts)
    prev = np.tile(S_prev.data, (B, 1)) if shared else S_prev.data
    agg = seg.outer(W, H.data) / safe[:, None]
    agg[empty] = prev[empty]

    def bw(g):
        # d agg_k / d W[m,k] = (h_m - agg_k) / N_k, within the bag of m
        q = np.where(empty[:, None], 0.0, g) / safe[:, None]
        if H.requires_grad:
            _accum(H, seg.matmul(W, q))
        _accum(A_hat, seg.matmul(H.data, q, trans_y=True)
               - seg.spread((agg * q).sum(axis=1).reshape(B, K)))
        g_prev = np.where(empty[:, None], g, 0.0)
        _accum(S_prev, g_prev.reshape(B, K, d).sum(axis=0) if shared else g_prev)

    return _make(agg, (H, A_hat, S_prev), "aggregate_anchors", bw), counts


def _gelu_tanh(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh(c (x + a x^3)), the tanh of the gelu approximation, into ``out``."""
    # products, not powers (``x ** 3`` takes the slow general pow path)
    np.multiply(x, x, out=out)
    out *= x
    out *= _GELU_A
    out += x
    out *= _GELU_C
    np.tanh(out, out=out)
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    """gelu with the tanh approximation: 0.5 x (1 + tanh(c (x + a x^3)))."""
    out = np.empty_like(x)
    for s, _ in ad.blocks(x.shape):
        t = _gelu_tanh(x[s], out[s])
        t += 1.0
        t *= x[s]
        t *= 0.5    # scaling by 0.5 last is exact
    return out


def _gelu_backward(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """gelu(x), with the bits of ``_gelu(x)``, and g *= d gelu / dx in place,
    where d gelu / dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3a x^2) for the
    one tanh t."""
    act = np.empty_like(x)
    for s, (t, rest) in ad.blocks(x.shape, 2):
        xb, u = x[s], act[s]
        _gelu_tanh(xb, t)
        np.multiply(xb, 0.5, out=rest)
        np.multiply(t, t, out=u)
        np.subtract(1.0, u, out=u)
        rest *= u
        np.multiply(xb, xb, out=u)  # the inner slope c (1 + 3a x^2)
        u *= 3.0 * _GELU_A
        u += 1.0
        u *= _GELU_C
        rest *= u
        t += 1.0
        np.multiply(t, xb, out=u)
        u *= 0.5
        t *= 0.5
        t += rest
        g[s] *= t
    return act


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, without
    # masked indexing: with e = exp(-|x|) the numerator is max(e, x >= 0)
    out = np.empty_like(x)
    for s, (e,) in ad.blocks(x.shape, 1):
        xb, o = x[s], out[s]
        np.abs(xb, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.greater_equal(xb, 0.0, out=o)
        np.maximum(e, o, out=o)
        e += 1.0
        o /= e
    return out


def _tanh_grad(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """g b (1 - a^2) as a fresh array: the gradient into tanh's argument of
    the gate product a b, with a = tanh(.)."""
    out = np.empty_like(g)
    for s, (slope,) in ad.blocks(g.shape, 1):
        o = out[s]
        np.multiply(a[s], a[s], out=slope)
        np.subtract(1.0, slope, out=slope)
        np.multiply(g[s], b[s], out=o)
        o *= slope
    return out


def _sigmoid_grad(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """g a (b (1 - b)), written over g: the gradient into sigmoid's argument
    of the gate product a b, with b = sigmoid(.)."""
    for s, (slope,) in ad.blocks(g.shape, 1):
        gb = g[s]
        np.subtract(1.0, b[s], out=slope)
        slope *= b[s]
        gb *= a[s]
        gb *= slope
    return g


# The fused layers below are one tape node each. Besides its inputs and
# output, a node keeps only what its backward cannot rebuild cheaply with the
# same bits as the forward's:
#
#   node                  keeps                      rebuilds in backward
#   cosine_alignment      row norms u, v; Sn (K, d)  Hn = H / u
#   route_update          MLP pre-activation P       X = H + A_hat S_agg (one
#                                                    (M, K) x (K, d) matmul)
#                                                    gelu(P); its slope
#   cluster_reduce        MLP pre-activation P       gelu(P); its slope
#   gated_attention_pool  tanh(PV), sigmoid(PU)      the gate product
#
# gated_attention_pool's backward lets its activations go once both gate
# gradients exist, before it builds the instance gradient. Only route_update
# repeats a matmul, a K-wide one, against the two d-wide matmuls of its MLP
# that it keeps P to avoid. The slopes exist one row block at a time: each
# elementwise chain (gelu, its slope, sigmoid, the two gate slopes) is a
# blocked pass over the rows from ``ad.blocks``.

def _gelu_mlp(X: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
    """Y = gelu(X w1 + b1) w2 + b2, and its backward: ``bw(g, make_X)`` takes
    the upstream gradient g of Y and a function that makes the same X again,
    accumulates the four weight gradients and returns the gradient of X. X
    is made after the slope pass, so that it never lives beside that pass's
    arrays."""
    P = X @ w1.data
    P += b1.data
    Y = _gelu(P) @ w2.data
    Y += b2.data

    def bw(g, make_X):
        gP = g @ w2.data.T
        act = _gelu_backward(P, gP)
        _accum(w2, act.T @ g)
        _accum(b2, g.sum(axis=0))
        del act
        _accum(w1, make_X().T @ gP)
        _accum(b1, gP.sum(axis=0))
        return gP @ w1.data.T

    return Y, bw


def route_update(H: Tensor, A_hat: Tensor, S_agg: Tensor,
                 w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                 seg: ad.Segments) -> Tensor:
    """Residual instance refinement: h' = h + MLP(h + assigned context),
    each row's context drawn from its own bag's anchors."""
    def make_X():
        X = seg.matmul(A_hat.data, S_agg.data)
        X += H.data   # the bits of ``H.data + X``, in the matmul's output
        return X

    Y, mlp_bw = _gelu_mlp(make_X(), w1, b1, w2, b2)

    def bw(g):
        gX = mlp_bw(g, make_X)
        _accum(A_hat, seg.matmul(gX, S_agg.data, trans_y=True))
        _accum(S_agg, seg.outer(A_hat.data, gX))
        if H.requires_grad:
            gX += g   # the bits of ``g + gX``
            _accum(H, gX)

    Y += H.data   # the bits of ``H.data + Y``
    return _make(Y, (H, A_hat, S_agg, w1, b1, w2, b2), "route_update", bw)


def _block_transpose(x: np.ndarray, blocks: int) -> np.ndarray:
    """Transpose each of ``blocks`` stacked row blocks: (blocks*R, C) gives
    (blocks*C, R)."""
    r, c = x.shape[0] // blocks, x.shape[1]
    return x.reshape(blocks, r, c).transpose(0, 2, 1).reshape(blocks * c, r)


def cluster_reduce(S_agg: Tensor, r1: Tensor, rb1: Tensor, r2: Tensor, rb2: Tensor,
                   seg: ad.Segments) -> Tensor:
    """Halve the anchor count with an MLP applied along the anchor axis.

    Weights are shared across feature dimensions and bags: the (B*K, d)
    stacked anchors become one (B*d, K) matrix, mapped K -> K -> K/2, and
    turned back into (B*K/2, d). Only the bag count of ``seg`` is read.
    """
    bags = seg.count
    if S_agg.data.shape[0] % bags:
        raise ShapeError(f"cluster_reduce: {S_agg.data.shape[0]} anchor rows for {bags} bags")
    K = S_agg.data.shape[0] // bags
    if K < 2 or K % 2 != 0:
        raise ConfigError(f"cluster_reduce: anchor count {K} must be even and >= 2")
    Y, mlp_bw = _gelu_mlp(_block_transpose(S_agg.data, bags), r1, rb1, r2, rb2)

    def bw(g):
        gX = mlp_bw(_block_transpose(g, bags), lambda: _block_transpose(S_agg.data, bags))
        _accum(S_agg, _block_transpose(gX, bags))

    return _make(_block_transpose(Y, bags), (S_agg, r1, rb1, r2, rb2), "cluster_reduce", bw)


def gated_attention_pool(H: Tensor, V: Tensor, U: Tensor, w: Tensor,
                         seg: ad.Segments) -> tuple[Tensor, np.ndarray]:
    """Gated attention over each bag's instances; returns the (B, d) pooled
    features and the attention weights (which sum to 1 within each bag)."""
    a = H.data @ V.data
    np.tanh(a, out=a)
    b = _sigmoid(H.data @ U.data)
    scores = ((a * b) @ w.data).reshape(-1)
    e = np.exp(scores - seg.spread(seg.max(scores)))
    attn = e / seg.spread(seg.sum(e))

    def bw(g):
        # in place, so that at most two (N, h) temporaries live beside the
        # full tape, and gH only once a and b are gone; ``x *= y`` has the
        # bits of ``y * x``
        nonlocal a, b
        g_attn = seg.spread(g)
        g_attn *= H.data
        g_attn = attn * g_attn.sum(axis=1)
        g_scores = g_attn - attn * seg.spread(seg.sum(g_attn))
        gate = a * b
        _accum(w, gate.T @ g_scores[:, None])
        g_gate = np.multiply(g_scores[:, None], w.data.T, out=gate)
        gPV = _tanh_grad(g_gate, a, b)
        gPU = _sigmoid_grad(g_gate, a, b)
        a = b = None   # read for the last time: the tape lets them go
        _accum(V, H.data.T @ gPV)
        _accum(U, H.data.T @ gPU)
        if H.requires_grad:   # not the bag features themselves (w/o route)
            gH = gPV @ V.data.T
            del gPV
            # attn * spread(g), one row block at a time: ``(s + p) + q`` has
            # the bits of ``(p + s) + q``
            bag = seg.spread(np.arange(seg.count))
            for rows, _ in ad.blocks(gH.shape):
                s = g[bag[rows]]
                s *= attn[rows, None]
                gH[rows] += s
            gH += gPU @ U.data.T
            _accum(H, gH)

    pooled = _make(seg.sum(attn[:, None] * H.data), (H, V, U, w), "gated_attention_pool", bw)
    return pooled, attn


def anchor_mean_pool(S: Tensor, seg: ad.Segments) -> Tensor:
    """Mean of each bag's final anchors: the (B*K, d) stacked anchors give the
    (B, d) pooled features. Only the bag count of ``seg`` is read."""
    bags = seg.count
    if S.data.ndim != 2 or S.data.shape[0] % bags:
        raise ShapeError(f"anchor_mean_pool: {S.data.shape} anchor rows for {bags} bags")
    K = S.data.shape[0] // bags
    pooled = S.data.reshape(bags, K, S.data.shape[1]).sum(axis=1) * (1.0 / K)
    return _make(pooled, (S,), "anchor_mean_pool",
                 lambda g: _accum(S, np.repeat(g * (1.0 / K), K, axis=0)))


def _soft_assign(A: Tensor) -> Tensor:
    """Row-softmax relaxation of the hard assignment (finite-difference mode)."""
    z = A.data - A.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    P = e / e.sum(axis=1, keepdims=True)
    return _make(P, (A,), "row_softmax",
                 lambda g: _accum(A, P * (g - (g * P).sum(axis=1, keepdims=True))))


# ---------------------------------------------------------------------------
# full model

class MicoModel:
    """Parameter container plus the forward pass over a pack of bags."""

    def __init__(self, config: MicoConfig, rng: np.random.Generator,
                 anchor_init: np.ndarray | None = None):
        self.config = config
        d, h = config.d, config.mlp_hidden
        self.params: dict[str, Tensor] = {}

        if anchor_init is None:
            anchor_init = rng.standard_normal((config.anchors, d))
        anchor_init = np.asarray(anchor_init, dtype=np.float64)
        if anchor_init.shape != (config.anchors, d):
            raise ConfigError(
                f"anchor init shape {anchor_init.shape} does not match ({config.anchors}, {d})")
        self._param("anchors", anchor_init)

        for l in range(config.layers):
            if not config.ablate_route:
                self._param(f"route{l}.w1", rng.standard_normal((d, h)) / np.sqrt(d))
                self._param(f"route{l}.b1", np.zeros(h))
                self._param(f"route{l}.w2", rng.standard_normal((h, d)) / np.sqrt(h))
                self._param(f"route{l}.b2", np.zeros(d))
            if not config.ablate_reducer and self._reduce_at(l):
                k = config.anchors // (2 ** l)
                self._param(f"reduce{l}.w1", rng.standard_normal((k, k)) / np.sqrt(k))
                self._param(f"reduce{l}.b1", np.zeros(k))
                self._param(f"reduce{l}.w2", rng.standard_normal((k, k // 2)) / np.sqrt(k))
                self._param(f"reduce{l}.b2", np.zeros(k // 2))

        if config.pooling == "gated_attention":
            self._param("attn.V", rng.standard_normal((d, h)) / np.sqrt(d))
            self._param("attn.U", rng.standard_normal((d, h)) / np.sqrt(d))
            self._param("attn.w", rng.standard_normal((h, 1)) / np.sqrt(h))

        self._param("head.w", rng.standard_normal((d, config.head_size)) / np.sqrt(d))
        self._param("head.b", np.zeros(config.head_size))

    def _reduce_at(self, layer: int) -> bool:
        # the reduction after the last layer feeds nothing unless anchor-mean
        # pooling consumes the final anchors
        return layer < self.config.layers - 1 or self.config.pooling == "anchor_mean"

    def trainable_params(self) -> dict[str, Tensor]:
        """The parameters the bag output depends on, in ``params`` order.

        Without routing, gated attention pools instances that never met an
        anchor, so the anchors and reducers feed nothing. Anchor-mean pooling
        reads the anchors aggregated before the last route update, so that
        update feeds nothing.
        """
        cfg = self.config
        cut: tuple[str, ...] = ()
        if cfg.ablate_route and cfg.pooling == "gated_attention":
            cut = ("anchors", "reduce")
        elif not cfg.ablate_route and cfg.pooling == "anchor_mean":
            cut = (f"route{cfg.layers - 1}.",)
        return {name: p for name, p in self.params.items() if not name.startswith(cut)}

    def _param(self, name: str, data: np.ndarray) -> None:
        # a copy: Adam updates parameters in place, and the caller's array
        # (such as the K-means centers) is not the model's
        self.params[name] = Tensor(np.array(data, dtype=np.float64), requires_grad=True)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        extra = [name for name in state if name not in self.params]
        if extra:
            raise ConfigError(f"checkpoint has parameter {extra[0]!r}, which the model lacks")
        for name, p in self.params.items():
            if name not in state:
                raise ConfigError(f"checkpoint is missing parameter {name!r}")
            if state[name].shape != p.data.shape:
                raise ConfigError(
                    f"parameter {name!r} shape {state[name].shape} != expected {p.data.shape}")
            # into the arrays, which may be views of an optimizer's vector
            p.data[...] = state[name]

    def forward(self, features, assign_mode: str = "hard") -> tuple[Tensor, list[Assignment]]:
        """Run a pack of bags through the layer stack, pooling and task head.

        ``features`` is one (M, d) bag (a pack of one) or a list of them.
        Returns the (B, C) outputs, row b for bag b, and one ``Assignment``
        per layer whose rows follow the packed instances and whose counts and
        aggregates are stacked per bag, (B*K,) and (B*K, d).

        ``assign_mode="soft"`` replaces the hard straight-through assignment
        with a row-softmax so the whole forward map is smooth; used only by
        the finite-difference gradient suite.
        """
        cfg = self.config
        bags = features if isinstance(features, (list, tuple)) else [features]
        bags = [np.asarray(X, dtype=np.float64) for X in bags]
        if not bags:
            raise DataError("a pack needs at least one bag")
        for X in bags:
            if X.ndim != 2 or X.shape[1] != cfg.d:
                raise DataError(f"bag features must be (M, {cfg.d}), got {X.shape}")
            if X.shape[0] < 1:
                raise DataError("bag has no instances")
        packed = bags[0] if len(bags) == 1 else np.concatenate(bags)
        try:
            H = Tensor(packed)   # the leaf check is the one finiteness check
        except NumericalError as exc:
            raise DataError("bag features contain non-finite values") from exc
        seg = ad.Segments([X.shape[0] for X in bags])

        S = self.params["anchors"]
        S_seg = ad.Segments([seg.rows])  # the first layer's anchors are shared
        assignments: list[Assignment] = []
        for l in range(cfg.layers):
            A = cosine_alignment(H, S, S_seg)
            A_hat = ste_assign(A) if assign_mode == "hard" else _soft_assign(A)
            S_agg, counts = aggregate_anchors(H, A_hat, S, seg)
            # no tape array is written in place, so the record holds references
            assignments.append(Assignment(alignment=A.data, counts=counts, aggregated=S_agg.data))
            if not cfg.ablate_route:
                H = route_update(H, A_hat, S_agg,
                                 self.params[f"route{l}.w1"], self.params[f"route{l}.b1"],
                                 self.params[f"route{l}.w2"], self.params[f"route{l}.b2"], seg)
            if cfg.ablate_reducer or not self._reduce_at(l):
                S = S_agg
            else:
                S = cluster_reduce(S_agg,
                                   self.params[f"reduce{l}.w1"], self.params[f"reduce{l}.b1"],
                                   self.params[f"reduce{l}.w2"], self.params[f"reduce{l}.b2"],
                                   seg)
            S_seg = seg

        if cfg.pooling == "gated_attention":
            pooled, _ = gated_attention_pool(
                H, self.params["attn.V"], self.params["attn.U"], self.params["attn.w"], seg)
        else:  # anchor_mean
            pooled = anchor_mean_pool(S, seg)

        out = ad.linear(pooled, self.params["head.w"], self.params["head.b"])
        return out, assignments


def random_anchor_init(pool: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random anchors with per-dimension std matched to the pooled features."""
    pool = np.asarray(pool, dtype=np.float64)
    mu = pool.mean(axis=0)
    sd = pool.std(axis=0)
    return mu[None, :] + rng.standard_normal((k, pool.shape[1])) * sd[None, :]
