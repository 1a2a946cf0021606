"""Tape lifetime: an op output dies with its last reference, and backward
spends the tape.

The lifetime checks run with the cycle collector off, so a node that sits
in a reference cycle stays alive and fails them.
"""

import contextlib
import gc
import inspect
import weakref

import numpy as np
import pytest

from mico import autodiff as ad
from mico import model as model_mod
from mico.autodiff import Tensor
from mico.data import FeatureBag
from mico.losses import SubtypeLabel, SurvivalLabel
from mico.model import MicoConfig, MicoModel
from mico.train import _bag_loss


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
    return model_mod.cosine_alignment(H, S), [H, S]


def _ste(rng):
    A = leaf(rng, 5, 4)
    return model_mod.ste_assign(A), [A]


def _aggregate(rng):
    H, S = leaf(rng, 5, 3), leaf(rng, 4, 3)
    # anchor 3 stays empty, so the carried-through branch runs too
    W = Tensor(np.eye(4)[[0, 1, 2, 0, 1]], requires_grad=True)
    return model_mod.aggregate_anchors(H, W, S)[0], [H, W, S]


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


def _binary(rng):
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    return ad.div(ad.mul(a, b), 2.0), [a, b]


def _unary(rng):
    a = leaf(rng, 3, 4)
    return ad.gelu(ad.tanh(a)), [a]


def _matmul(rng):
    a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
    return ad.matmul(a, b), [a, b]


def _matmul_packed(rng):
    a, b = leaf(rng, 5, 4), leaf(rng, 8, 2)
    return ad.matmul(a, b, ad.Segments([3, 2])), [a, b]


def _weighted_sum(rng):
    w, x = leaf(rng, 5), leaf(rng, 5, 3)
    return ad.weighted_sum(w, x, ad.Segments([1, 4])), [w, x]


def _softmax(rng):
    a = leaf(rng, 6)
    return ad.softmax(a, ad.Segments([2, 3, 1])), [a]


def _add_bias(rng):
    m, b = leaf(rng, 3, 4), leaf(rng, 4)
    return ad.add_bias(m, b), [m, b]


def _transpose(rng):
    a = leaf(rng, 3, 4)
    return ad.transpose(a), [a]


def _transpose_blocks(rng):
    a = leaf(rng, 6, 4)
    return ad.transpose(a, 3), [a]


def _reshape(rng):
    a = leaf(rng, 3, 4)
    return ad.reshape(a, (2, 6)), [a]


def _sum(rng):
    a = leaf(rng, 3, 4)
    return ad.sum_(a, axis=0), [a]


# at least one case per function whose source calls _make(; each builds that
# op's output from fresh leaves and returns it with the leaves. The
# ".packed" cases run the segment-aware form over several bags.
CASES = {
    "autodiff._binary": _binary,
    "autodiff._unary": _unary,
    "autodiff.matmul": _matmul,
    "autodiff.matmul.packed": _matmul_packed,
    "autodiff.weighted_sum": _weighted_sum,
    "autodiff.softmax": _softmax,
    "autodiff.add_bias": _add_bias,
    "autodiff.transpose": _transpose,
    "autodiff.transpose.packed": _transpose_blocks,
    "autodiff.reshape": _reshape,
    "autodiff.sum_": _sum,
    "model.cosine_alignment": _cosine,
    "model.cosine_alignment.packed": _cosine_packed,
    "model.ste_assign": _ste,
    "model.aggregate_anchors": _aggregate,
    "model.aggregate_anchors.packed": _aggregate_packed,
    "model._soft_assign": _soft,
}


def _scalar_loss(out, rng):
    return ad.sum_(ad.mul(out, Tensor(rng.standard_normal(out.data.shape))))


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
    for mod in (ad, model_mod):
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
    _scalar_loss(held, np.random.default_rng(1)).backward()
    assert held._backward is None and held._children == () and held.grad is None

    with no_cycle_collector():
        out, leaves = CASES[name](np.random.default_rng(0))
        ref = weakref.ref(out)
        loss = _scalar_loss(out, np.random.default_rng(1))
        del out
        loss.backward()
        assert ref() is None
        assert loss._children == ()
    for a, b in zip(leaves, held_leaves):
        assert a.grad is not None and np.array_equal(a.grad, b.grad)


def _model_and_bag(task):
    rng = np.random.default_rng(5)
    model = MicoModel(MicoConfig(d=6, anchors=8, layers=2, task=task), rng=rng)
    label = (SurvivalLabel(time=1.0, event=True, bin=1) if task == "survival"
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
    _bag_loss(model, bag, assign_mode=mode).backward()
    expected = {name: p.grad for name, p in model.params.items()}
    ad.zero_grad(model.params.values())

    with no_cycle_collector():
        loss = _bag_loss(model, bag, assign_mode=mode)
        refs = _op_output_refs(loss)[1:]
        loss.backward()
        assert [r for r in refs if r() is not None] == []
        assert np.isfinite(loss.data)
    for name, p in model.params.items():
        assert np.array_equal(p.grad, expected[name]), name
