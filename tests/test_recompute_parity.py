"""Rebuilt arrays give the same bits: the fused nodes against the bodies
that kept every array their backward reads.

``cosine_alignment`` rebuilds the normalised rows, ``route_update`` its MLP
input (one more context matmul) and ``gated_attention_pool`` keeps its
activations in place of its pre-activations; op outputs take over and add
their gradients in place. Below are the bodies as they were before, with the
out-of-place ``_accum``: logits, routing records, per-bag losses and every
parameter gradient must equal theirs bit for bit.
"""

import numpy as np
import pytest

from mico import autodiff as ad
from mico import losses as losses_mod
from mico import model as model_mod
from mico.autodiff import Tensor, _make
from mico.data import FeatureBag
from mico.errors import ConfigError, GraphError, NumericalError, ShapeError
from mico.losses import SubtypeLabel, SurvivalLabel
from mico.model import NORM_CLAMP, MicoConfig, MicoModel, _block_transpose
from test_model import ref_gelu as _gelu
from test_model import ref_gelu_and_slope as _gelu_and_slope
from test_model import ref_sigmoid as _sigmoid

# survival bin edges: a time of b + 0.5 falls in bin b of 4
EDGES = np.array([1.0, 2.0, 3.0])

_zero_norm_clamps = 0


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        # ``+`` and ``np.copyto`` would both broadcast it without a word
        raise GraphError(f"backward: gradient of shape {g.shape} for a {t._op!r} tensor "
                         f"of shape {t.data.shape}")
    if t.grad is None:
        if t._grad_slot is None:
            t.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            np.copyto(t._grad_slot, g)
            t.grad = t._grad_slot
    elif t.grad is t._grad_slot:
        t.grad += g   # the bits of ``t.grad + g``, with no new array
    else:
        t.grad = t.grad + g


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
    if not (np.all(np.isfinite(H.data)) and np.all(np.isfinite(S.data))):
        raise NumericalError("cosine_alignment: non-finite input")

    # the arithmetic of ``np.linalg.norm(x, axis=1)``, without its copy x.conj()
    u = np.sqrt((H.data * H.data).sum(axis=1))
    v = np.sqrt((S.data * S.data).sum(axis=1))
    n_clamped = int(np.sum(u < NORM_CLAMP) + np.sum(v < NORM_CLAMP))
    if n_clamped:
        _zero_norm_clamps += n_clamped
    u = np.maximum(u, NORM_CLAMP)
    v = np.maximum(v, NORM_CLAMP)
    Hn = H.data / u[:, None]
    Sn = S.data / v[:, None]
    A = seg.matmul(Hn, Sn, trans_y=True)

    def bw(g):
        gA = g * A
        _accum(H, (seg.matmul(g, Sn) - Hn * gA.sum(axis=1)[:, None]) / u[:, None])
        _accum(S, (seg.outer(g, Hn) - Sn * seg.sum(gA).reshape(-1)[:, None]) / v[:, None])

    return _make(A, (H, S), "cosine_alignment", bw)


def _gelu_mlp(X: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
    """Y = gelu(X w1 + b1) w2 + b2, and its backward: ``bw(g)`` accumulates
    the four weight gradients for the upstream gradient g of Y and returns
    the gradient of X."""
    P = X @ w1.data
    P += b1.data
    Y = _gelu(P) @ w2.data
    Y += b2.data

    def bw(g):
        gP = g @ w2.data.T
        act, slope = _gelu_and_slope(P)
        gP *= slope
        _accum(w1, X.T @ gP)
        _accum(b1, gP.sum(axis=0))
        _accum(w2, act.T @ g)
        _accum(b2, g.sum(axis=0))
        return gP @ w1.data.T

    return Y, bw


def route_update(H: Tensor, A_hat: Tensor, S_agg: Tensor,
                 w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                 seg: ad.Segments) -> Tensor:
    """Residual instance refinement: h' = h + MLP(h + assigned context),
    each row's context drawn from its own bag's anchors."""
    X = H.data + seg.matmul(A_hat.data, S_agg.data)
    Y, mlp_bw = _gelu_mlp(X, w1, b1, w2, b2)

    def bw(g):
        gX = mlp_bw(g)
        _accum(H, g + gX)
        _accum(A_hat, seg.matmul(gX, S_agg.data, trans_y=True))
        _accum(S_agg, seg.outer(A_hat.data, gX))

    return _make(H.data + Y, (H, A_hat, S_agg, w1, b1, w2, b2), "route_update", bw)


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
        _accum(S_agg, _block_transpose(mlp_bw(_block_transpose(g, bags)), bags))

    return _make(_block_transpose(Y, bags), (S_agg, r1, rb1, r2, rb2), "cluster_reduce", bw)


def gated_attention_pool(H: Tensor, V: Tensor, U: Tensor, w: Tensor,
                         seg: ad.Segments) -> tuple[Tensor, np.ndarray]:
    """Gated attention over each bag's instances; returns the (B, d) pooled
    features and the attention weights (which sum to 1 within each bag)."""
    PV = H.data @ V.data
    PU = H.data @ U.data
    scores = ((np.tanh(PV) * _sigmoid(PU)) @ w.data).reshape(-1)
    e = np.exp(scores - seg.spread(seg.max(scores)))
    attn = e / seg.spread(seg.sum(e))

    def bw(g):
        g_attn = attn * (H.data * seg.spread(g)).sum(axis=1)
        g_scores = g_attn - attn * seg.spread(seg.sum(g_attn))
        a, b = np.tanh(PV), _sigmoid(PU)
        gate = a * b
        g_gate = g_scores[:, None] * w.data.T
        gPV = g_gate * b
        gPV *= 1.0 - a * a
        gPU = g_gate * a
        gPU *= b * (1.0 - b)
        # g spread again, not held as an (N, d) copy through the gate gradients
        _accum(H, attn[:, None] * seg.spread(g) + gPV @ V.data.T + gPU @ U.data.T)
        _accum(V, H.data.T @ gPV)
        _accum(U, H.data.T @ gPU)
        _accum(w, gate.T @ g_scores[:, None])

    pooled = _make(seg.sum(attn[:, None] * H.data), (H, V, U, w), "gated_attention_pool", bw)
    return pooled, attn


ORACLE_OPS = ("cosine_alignment", "route_update", "cluster_reduce", "gated_attention_pool")


@pytest.fixture
def oracle(monkeypatch):
    """Calling it swaps the old bodies and the out-of-place ``_accum`` in."""
    def swap():
        for name in ORACLE_OPS:
            monkeypatch.setattr(model_mod, name, globals()[name])
        for mod in (ad, model_mod, losses_mod):
            monkeypatch.setattr(mod, "_accum", _accum)
    return swap


def _run(model, bags, mode):
    """Logits, routing records, per-bag losses and parameter gradients of one
    taped forward and backward."""
    ad.zero_grad(model.params.values())
    out, assignments = model.forward([b.features for b in bags], assign_mode=mode)
    labels = [b.label for b in bags]
    if model.config.task == "survival":
        loss, per_bag = losses_mod.survival_nll(out, labels, EDGES)
    else:
        loss, per_bag = losses_mod.cross_entropy(out, labels, model.config.subtype_classes)
    ad.backward(loss)
    grads = {name: p.grad.copy() for name, p in model.params.items() if p.grad is not None}
    return out.data, assignments, per_bag, grads


def _assert_same_run(got, want):
    (logits, assignments, per_bag, grads), (logits0, assignments0, per_bag0, grads0) = got, want
    assert np.array_equal(logits, logits0)
    assert np.array_equal(per_bag, per_bag0)
    assert len(assignments) == len(assignments0)
    for a, b in zip(assignments, assignments0):
        for field in ("alignment", "indices", "counts", "aggregated"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert grads.keys() == grads0.keys()
    for name in grads0:
        assert np.array_equal(grads[name], grads0[name]), name


def _bags(rng, task, sizes, d):
    bags = []
    for i, m in enumerate(sizes):
        label = (SurvivalLabel(time=i % 4 + 0.5, event=i % 3 != 1) if task == "survival"
                 else SubtypeLabel(class_index=i % 2))
        bags.append(FeatureBag(bag_id=f"b{i}", features=rng.standard_normal((m, d)), label=label))
    return bags


def _check(oracle, cfg, sizes, mode):
    rng = np.random.default_rng(3)
    model = MicoModel(cfg, rng=rng)
    bags = _bags(rng, cfg.task, sizes, cfg.d)
    got = _run(model, bags, mode)
    oracle()
    _assert_same_run(got, _run(model, bags, mode))


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("sizes", [(37,), (25, 41, 30)], ids=["pack1", "pack3"])
@pytest.mark.parametrize("pooling", model_mod.POOLINGS)
@pytest.mark.parametrize("task", model_mod.TASKS)
def test_acceptance_size_matches_the_old_bodies(oracle, task, pooling, sizes, mode):
    cfg = MicoConfig(d=32, anchors=16, layers=2, task=task, pooling=pooling)
    _check(oracle, cfg, sizes, mode)


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("sizes", [(37,), (25, 41, 30)], ids=["pack1", "pack3"])
@pytest.mark.parametrize("ablation", ["ablate_route", "ablate_reducer"])
@pytest.mark.parametrize("task", model_mod.TASKS)
def test_ablations_match_the_old_bodies(oracle, task, ablation, sizes, mode):
    # without routing, the pool pools the bag features, which take no gradient
    cfg = MicoConfig(d=32, anchors=16, layers=2, task=task, **{ablation: True})
    _check(oracle, cfg, sizes, mode)


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_slide_size_matches_the_old_bodies(oracle, mode):
    cfg = MicoConfig(d=512, anchors=64, layers=3, task="subtype")
    _check(oracle, cfg, (1024,), mode)


def _ste_graph(rng, ste_feeds_route):
    """A graph in which ``ste_assign``'s input A has a second consumer: A
    feeds ``ste_assign`` and a row softmax, and ``route_update`` takes one
    through its instance rows and the other as its assignment."""
    def leaf(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    x, w, b = leaf(6, 3), leaf(3, 4), leaf(4)
    wh, bh = leaf(4, 3), leaf(3)
    rest = [leaf(4, 3), leaf(3, 2), leaf(2), leaf(2, 3), leaf(3)]
    A = ad.linear(x, w, b)
    hard, soft = model_mod.ste_assign(A), model_mod._soft_assign(A)
    routed, other = (hard, soft) if ste_feeds_route else (soft, hard)
    root = model_mod.route_update(ad.linear(other, wh, bh), routed, *rest, ad.Segments([6]))
    return root, [x, w, b, wh, bh, *rest]


@pytest.mark.parametrize("ste_feeds_route", [True, False], ids=["ste-route", "ste-rows"])
def test_in_place_gradients_through_ste_assign_match_out_of_place(oracle, ste_feeds_route):
    seed = np.random.default_rng(9).standard_normal((6, 3))
    kept = seed.copy()
    root, leaves = _ste_graph(np.random.default_rng(2), ste_feeds_route)
    ad.backward(root, seed)
    assert np.array_equal(seed, kept)
    oracle()
    root0, leaves0 = _ste_graph(np.random.default_rng(2), ste_feeds_route)
    ad.backward(root0, seed)
    for got, want in zip(leaves, leaves0):
        assert np.array_equal(got.grad, want.grad)
