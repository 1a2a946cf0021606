"""Tape lifetime: an op output dies with its last reference, and backward
spends the tape.

The lifetime checks run with the cycle collector off, so a node that sits
in a reference cycle stays alive and fails them.
"""

import contextlib
import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from mico import autodiff as ad
from mico import losses as losses_mod
from mico import model as model_mod
from mico.autodiff import Tensor
from mico.data import FeatureBag, SynthConfig, generate
from mico.losses import SubtypeLabel, SurvivalLabel
from mico.model import MicoConfig, MicoModel
from mico.train import TrainConfig, _pack_loss, train

# survival bin edges: a time of b + 0.5 falls in bin b of 4
EDGES = np.array([1.0, 2.0, 3.0])


@contextlib.contextmanager
def no_cycle_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _cosine(rng):
    H, S = leaf(rng, 5, 3), leaf(rng, 4, 3)
    return model_mod.cosine_alignment(H, S, ad.Segments([5])), [H, S]


def _ste(rng):
    A = leaf(rng, 5, 4)
    return model_mod.ste_assign(A), [A]


def _aggregate(rng):
    H, S = leaf(rng, 5, 3), leaf(rng, 4, 3)
    # anchor 3 stays empty, so the carried-through branch runs too
    W = Tensor(np.eye(4)[[0, 1, 2, 0, 1]], requires_grad=True)
    return model_mod.aggregate_anchors(H, W, S, ad.Segments([5]))[0], [H, W, S]


def _cosine_packed(rng):
    # three bags of 2, 1 and 3 rows, each aligned against its own 4 anchors
    H, S = leaf(rng, 6, 3), leaf(rng, 12, 3)
    return model_mod.cosine_alignment(H, S, ad.Segments([2, 1, 3])), [H, S]


def _aggregate_packed(rng):
    H, S = leaf(rng, 5, 3), leaf(rng, 4, 3)
    # shared anchors, two bags; anchor 3 stays empty in both
    W = Tensor(np.eye(4)[[0, 1, 2, 0, 1]], requires_grad=True)
    return model_mod.aggregate_anchors(H, W, S, ad.Segments([3, 2]))[0], [H, W, S]


def _soft(rng):
    A = leaf(rng, 5, 4)
    return model_mod._soft_assign(A), [A]


def _route(rng, sizes=(5,)):
    n, B = sum(sizes), len(sizes)
    leaves = [leaf(rng, n, 3), leaf(rng, n, 4), leaf(rng, 4 * B, 3),
              leaf(rng, 3, 2), leaf(rng, 2), leaf(rng, 2, 3), leaf(rng, 3)]
    return model_mod.route_update(*leaves, ad.Segments(list(sizes))), leaves


def _route_packed(rng):
    return _route(rng, (2, 1, 3))


def _reduce(rng, bags=1):
    leaves = [leaf(rng, 4 * bags, 3), leaf(rng, 4, 4), leaf(rng, 4), leaf(rng, 4, 2), leaf(rng, 2)]
    return model_mod.cluster_reduce(*leaves, ad.Segments([1] * bags)), leaves


def _reduce_packed(rng):
    return _reduce(rng, 3)


def _pool(rng, sizes=(5,)):
    leaves = [leaf(rng, sum(sizes), 3), leaf(rng, 3, 2), leaf(rng, 3, 2), leaf(rng, 2, 1)]
    return model_mod.gated_attention_pool(*leaves, ad.Segments(list(sizes)))[0], leaves


def _pool_packed(rng):
    return _pool(rng, (2, 1, 3))


def _linear(rng):
    x, w, b = leaf(rng, 3, 4), leaf(rng, 4, 2), leaf(rng, 2)
    return ad.linear(x, w, b), [x, w, b]


def _anchor_mean(rng, bags=1):
    S = leaf(rng, 4 * bags, 3)
    return model_mod.anchor_mean_pool(S, ad.Segments([1] * bags)), [S]


def _anchor_mean_packed(rng):
    return _anchor_mean(rng, 3)


def _survival(rng):
    z = leaf(rng, 3, 4)
    labels = [SurvivalLabel(time=i + 0.5, event=i != 1) for i in range(3)]
    return losses_mod.survival_nll(z, labels, EDGES)[0], [z]


def _cross_entropy(rng):
    z = leaf(rng, 3, 2)
    return losses_mod.cross_entropy(z, [SubtypeLabel(c) for c in (1, 0, 1)], 2)[0], [z]


# at least one case per function whose source calls _make(; each builds that
# op's output from fresh leaves and returns it with the leaves. The
# ".packed" cases run the segment-aware form over several bags.
CASES = {
    "autodiff.linear": _linear,
    "model.cosine_alignment": _cosine,
    "model.cosine_alignment.packed": _cosine_packed,
    "model.ste_assign": _ste,
    "model.aggregate_anchors": _aggregate,
    "model.aggregate_anchors.packed": _aggregate_packed,
    "model._soft_assign": _soft,
    "model.route_update": _route,
    "model.route_update.packed": _route_packed,
    "model.cluster_reduce": _reduce,
    "model.cluster_reduce.packed": _reduce_packed,
    "model.gated_attention_pool": _pool,
    "model.gated_attention_pool.packed": _pool_packed,
    "model.anchor_mean_pool": _anchor_mean,
    "model.anchor_mean_pool.packed": _anchor_mean_packed,
    "losses.survival_nll": _survival,
    "losses.cross_entropy": _cross_entropy,
}


def _seed(out):
    return np.random.default_rng(1).standard_normal(out.data.shape)


def _op_output_refs(root):
    """Weak references to every op output on the tape under ``root``."""
    refs, seen, stack = [], set(), [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._op != "leaf":
            refs.append(weakref.ref(t))
        stack.extend(t._children)
    return refs


def test_every_make_caller_has_a_lifetime_case():
    callers = set()
    for mod in (ad, model_mod, losses_mod):
        short = mod.__name__.rsplit(".", 1)[1]
        members = [fn for _, fn in inspect.getmembers(mod, inspect.isfunction)]
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            members += [fn for _, fn in inspect.getmembers(cls, inspect.isfunction)]
        for fn in members:
            # generated methods (dataclass __init__ and the like) have no file
            if (fn.__code__.co_filename == mod.__file__ and fn is not ad._make
                    and "_make(" in inspect.getsource(fn)):
                callers.add(f"{short}.{fn.__qualname__}")
    assert callers, "no _make caller found; the scan is broken"
    missing = callers - set(CASES)
    assert not missing, f"ops without a tape lifetime case: {sorted(missing)}"


@pytest.mark.parametrize("name", list(CASES))
def test_op_output_dies_with_its_last_reference(name):
    with no_cycle_collector():
        out, _ = CASES[name](np.random.default_rng(0))
        assert out._backward is not None
        ref = weakref.ref(out)
        del out
        assert ref() is None


@pytest.mark.parametrize("name", list(CASES))
def test_backward_spends_the_tape_and_keeps_leaf_grads(name):
    held, held_leaves = CASES[name](np.random.default_rng(0))
    ad.backward(held, _seed(held))
    assert held._backward is None and held._children == () and held.grad is None

    with no_cycle_collector():
        out, leaves = CASES[name](np.random.default_rng(0))
        ad.backward(out, _seed(out))
        ref = weakref.ref(out)
        del out
        assert ref() is None
    for a, b in zip(leaves, held_leaves):
        assert a.grad is not None and np.array_equal(a.grad, b.grad)


def _model_and_bag(task):
    rng = np.random.default_rng(5)
    model = MicoModel(MicoConfig(d=6, anchors=8, layers=2, task=task), rng=rng)
    label = (SurvivalLabel(time=1.5, event=True) if task == "survival"
             else SubtypeLabel(class_index=1))
    return model, FeatureBag(bag_id="b", features=rng.standard_normal((9, 6)), label=label)


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("task", ["survival", "subtype"])
def test_forward_without_backward_frees_the_tape(task, mode):
    model, bag = _model_and_bag(task)
    with no_cycle_collector():
        out, _ = model.forward(bag.features, assign_mode=mode)
        refs = _op_output_refs(out)
        del out
        assert len(refs) > 10
        assert [r for r in refs if r() is not None] == []


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("task", ["survival", "subtype"])
def test_backward_frees_intermediates_while_loss_lives(task, mode):
    model, bag = _model_and_bag(task)
    ad.backward(_pack_loss(model, [bag], EDGES, assign_mode=mode)[0])
    expected = {name: p.grad.copy() for name, p in model.params.items()}
    ad.zero_grad(model.params.values())

    with no_cycle_collector():
        loss = _pack_loss(model, [bag], EDGES, assign_mode=mode)[0]
        refs = _op_output_refs(loss)[1:]
        ad.backward(loss)
        assert [r for r in refs if r() is not None] == []
        assert np.isfinite(loss.data)
    for name, p in model.params.items():
        assert np.array_equal(p.grad, expected[name]), name


@pytest.mark.parametrize("grad_accum", [1, 2])
@pytest.mark.parametrize("task", ["survival", "subtype"])
def test_a_training_pack_records_at_most_12_nodes(task, grad_accum, monkeypatch, tmp_path):
    # acceptance size: one node per layer op, the head and the loss, however
    # many bags the pack holds
    nodes, packs = [], []
    backward, forward = ad.backward, MicoModel.forward

    def counting_backward(loss, grad=None):
        nodes.append(len(_op_output_refs(loss)))
        backward(loss, grad)

    def recording_forward(self, features, assign_mode="hard"):
        if ad._grad_enabled:
            packs.append(len(features))
        return forward(self, features, assign_mode)

    monkeypatch.setattr(ad, "backward", counting_backward)
    monkeypatch.setattr(MicoModel, "forward", recording_forward)
    bags = generate(SynthConfig(n_bags=12, d=32, seed=0, task=task, m_range=(25, 50)))
    train(TrainConfig(seed=0, task=task, epochs=2, anchor_count=16, layers=2,
                      grad_accum=grad_accum, n_folds=1), bags, out_dir=str(tmp_path))
    assert grad_accum in packs and len(nodes) == len(packs)
    assert max(nodes) <= 12 and len(set(nodes)) == 1, nodes


MIB = 1 << 20


def test_slide_size_tape_and_backward_peak_fit_their_budgets():
    # one slide-size bag, a pack of one: M = 1024 instances, d = h = 512,
    # K = 64 anchors halved over L = 3 layers, gated attention, subtype.
    # Each route_update keeps its (M, d) output and (M, h) MLP
    # pre-activation, and the pool tanh(PV) and sigmoid(PU), (M, h) each:
    # 3 * (4 + 4) + 2 * 4 = 32 MiB, plus 3.25 MiB of (M, K) alignments and
    # assignments and anchor-sized arrays. Keeping Hn and X as well
    # held 24 MiB more (59.2 MiB), and its backward peaked 91.3 MiB above
    # the live set. The pool's backward peaks first: beside the full tape it
    # holds two (M, h) temporaries and lets the gate activations go once
    # both gate gradients exist (43.5 MiB; 51.3 while it held four). The
    # gradients go to the optimizer's flat vector, as in training, so the
    # peak counts the tape and backward's temporaries.
    rng = np.random.default_rng(0)
    model = MicoModel(MicoConfig(d=512, anchors=64, layers=3, task="subtype"), rng=rng)
    opt = ad.Adam(model.trainable_params(), lr=1e-3)
    bag = FeatureBag(bag_id="b", features=rng.standard_normal((1024, 512)),
                     label=SubtypeLabel(class_index=1))
    opt.zero_grad()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        loss = _pack_loss(model, [bag], None)[0]
        tape = tracemalloc.get_traced_memory()[0] - live
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert tape <= 36 * MIB, f"tape {tape / MIB:.1f} MiB"
    assert peak <= 46 * MIB, f"backward peak {peak / MIB:.1f} MiB"
