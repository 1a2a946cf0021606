"""Packs: B bags run as one (sum of M, d) matrix with segment offsets.

The oracle for a pack is its bags run one at a time (packs of one): logits,
gradients of the summed loss, routing records. Evaluation scores a split in
packs under ``no_grad`` and must give the metrics of per-bag scoring.
"""

import importlib
import itertools

import numpy as np
import pytest

from mico import autodiff as ad
from mico.autodiff import Adam, Tensor
from mico.data import FeatureBag
from mico.errors import DataError
from mico.losses import SubtypeLabel, SurvivalLabel
from mico.model import MicoConfig, MicoModel, aggregate_anchors
from mico.train import _pack_loss, end_to_end_gradcheck, evaluate_model

# the module, not the ``mico.train`` function the package exports
train_mod = importlib.import_module("mico.train")

CONFIGS = list(itertools.product(
    ("survival", "subtype"), ("gated_attention", "anchor_mean"),
    (False, True), (False, True), ("hard", "soft"), (1, 2, 3)))
CONFIG_IDS = ["-".join(str(v) for v in c) for c in CONFIGS]


# survival bin edges: a time of b + 0.5 falls in bin b of 4
EDGES = np.array([1.0, 2.0, 3.0])


def rel_dev(a, b):
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def make_bags(rng, task, sizes, d):
    bags = []
    for i, m in enumerate(sizes):
        label = (SurvivalLabel(time=i % 4 + 0.5, event=i % 2 == 0)
                 if task == "survival" else SubtypeLabel(class_index=i % 2))
        bags.append(FeatureBag(bag_id=f"b{i}", features=rng.standard_normal((m, d)),
                               label=label))
    return bags


def make_model(task, pooling, ablate_route, ablate_reducer, layers, d=4, seed=0):
    cfg = MicoConfig(d=d, anchors=8, layers=layers, task=task, pooling=pooling,
                     ablate_route=ablate_route, ablate_reducer=ablate_reducer)
    return MicoModel(cfg, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_pack_logits_and_gradients_match_per_bag(config):
    # the soft assignment is the smooth map the finite-difference suite checks
    task, pooling, ablate_route, ablate_reducer, mode, layers = config
    model = make_model(task, pooling, ablate_route, ablate_reducer, layers)
    rng = np.random.default_rng(1)
    bags = make_bags(rng, task, [5, 1, 7, 3, 2], d=4)
    single = np.concatenate([model.forward(b.features, mode)[0].data for b in bags])
    for B in range(1, 6):
        packed, _ = model.forward([b.features for b in bags[:B]], mode)
        assert packed.data.shape == (B, model.config.head_size)
        assert rel_dev(packed.data, single[:B]) <= 1e-12, B

    # the summed loss of the pack has the sum of the per-bag gradients
    params = model.trainable_params()
    ad.zero_grad(model.params.values())
    for bag in bags:
        ad.backward(_pack_loss(model, [bag], EDGES, mode)[0])
    expected = {name: p.grad for name, p in params.items()}
    ad.zero_grad(model.params.values())
    ad.backward(_pack_loss(model, bags, EDGES, mode)[0])
    for name, p in params.items():
        assert rel_dev(p.grad, expected[name]) <= 1e-12, name


@pytest.mark.parametrize("task", ["survival", "subtype"])
def test_finite_differences_through_segment_ops(task):
    errors = end_to_end_gradcheck(task, m_instances=12, d=8, anchors=4, layers=2,
                                  seed=0, pack=3)
    assert max(errors.values()) < 1e-4, errors


def test_pack_assignments_follow_packed_rows():
    model = make_model("subtype", "gated_attention", False, False, 2, d=6)
    rng = np.random.default_rng(2)
    bags = [rng.standard_normal((m, 6)) for m in (4, 1, 9)]
    _, packed = model.forward(bags)
    singles = [model.forward(X)[1] for X in bags]
    for layer, rec in enumerate(packed):
        K = rec.alignment.shape[1]
        assert rec.counts.shape == (3 * K,) and rec.aggregated.shape == (3 * K, 6)
        assert np.array_equal(rec.counts.reshape(3, K).sum(axis=1), [4, 1, 9])
        assert np.array_equal(rec.indices, np.concatenate([s[layer].indices for s in singles]))
        assert rel_dev(rec.aggregated,
                       np.concatenate([s[layer].aggregated for s in singles])) <= 1e-12


def test_empty_anchor_carries_each_bags_previous_value():
    # two bags share first-layer anchors; anchor 1 is empty in bag 0 only
    H = Tensor([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], requires_grad=True)
    W = Tensor([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    S = Tensor([[0.25, 0.75], [1.0 / 3.0, 2.0 / 7.0]], requires_grad=True)
    agg, counts = aggregate_anchors(H, W, S, ad.Segments([1, 2]))
    assert np.array_equal(counts, [1.0, 0.0, 1.0, 1.0])
    assert np.array_equal(agg.data[1], S.data[1])
    assert np.array_equal(agg.data[[0, 2, 3]], H.data[[0, 2, 1]])
    ad.backward(agg, np.ones_like(agg.data))
    # only bag 0's empty anchor passes gradient to the shared anchors
    assert np.array_equal(S.grad, [[0.0, 0.0], [1.0, 1.0]])


def test_forward_rejects_a_bad_bag_in_a_pack():
    model = make_model("subtype", "gated_attention", False, False, 2)
    rng = np.random.default_rng(3)
    with pytest.raises(DataError):
        model.forward([rng.standard_normal((3, 4)), np.zeros((0, 4))])
    with pytest.raises(DataError):
        model.forward([rng.standard_normal((3, 4)), rng.standard_normal((3, 5))])


class TestNoGrad:
    def test_records_nothing_and_restores(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros(2))
        with ad.no_grad():
            y = ad.linear(x, x, b)
            assert not y.requires_grad and y._children == () and y._backward is None
            with pytest.raises(RuntimeError):
                with ad.no_grad():
                    raise RuntimeError("leaves the block")
            assert not ad.linear(x, x, b).requires_grad
        ad.backward(ad.linear(x, x, b), np.ones((2, 2)))
        assert np.array_equal(x.grad, np.full((2, 2), 4.0))

    def test_forward_matches_the_recorded_forward(self):
        model = make_model("survival", "gated_attention", False, False, 2)
        X = np.random.default_rng(4).standard_normal((6, 4))
        recorded, _ = model.forward(X)
        with ad.no_grad():
            bare, _ = model.forward(X)
        assert bare._children == () and np.array_equal(bare.data, recorded.data)


def test_assignment_records_survive_later_forward_and_step():
    model = make_model("subtype", "gated_attention", False, False, 2, d=6)
    rng = np.random.default_rng(5)
    bag = make_bags(rng, "subtype", [8], d=6)[0]
    _, records = model.forward(bag.features)
    snapshot = [{k: np.copy(v) for k, v in vars(r).items()} for r in records]
    opt = Adam(model.trainable_params(), lr=0.1)
    ad.backward(_pack_loss(model, [bag], EDGES)[0])
    opt.step()
    model.forward(make_bags(rng, "subtype", [5], d=6)[0].features)
    ad.backward(_pack_loss(model, [bag], EDGES)[0])
    opt.step()
    for rec, snap in zip(records, snapshot):
        for key, value in vars(rec).items():
            assert np.array_equal(value, snap[key]), key


class TestEvaluatePacks:
    @pytest.mark.parametrize("task", ["survival", "subtype"])
    def test_pack_budget_does_not_change_metrics(self, task, monkeypatch):
        model = make_model(task, "gated_attention", False, False, 2)
        rng = np.random.default_rng(6)
        bags = make_bags(rng, task, rng.integers(1, 20, size=30), d=4)
        for bag in bags:
            if task == "survival":
                bag.label.time = float(rng.uniform(0.5, 5.0))
        metrics = {}
        # one bag per pack, a few bags per pack, the whole split in one pack
        for budget in (1, 40, 1 << 30):
            monkeypatch.setattr(train_mod, "PACK_ELEMENTS", budget)
            metrics[budget] = evaluate_model(model, bags)
        assert metrics[1] == metrics[40] == metrics[1 << 30]

    def test_packs_keep_order_and_budget(self, monkeypatch):
        monkeypatch.setattr(train_mod, "PACK_ELEMENTS", 100)
        rng = np.random.default_rng(7)
        bags = make_bags(rng, "subtype", [10, 10, 5, 30, 2, 2], d=4)
        packs = [[b.bag_id for b in p] for p in train_mod._packs(bags)]
        assert packs == [["b0", "b1", "b2"], ["b3"], ["b4", "b5"]]

    def test_one_forward_per_pack(self, monkeypatch):
        model = make_model("subtype", "gated_attention", False, False, 2)
        rng = np.random.default_rng(8)
        bags = make_bags(rng, "subtype", [5] * 10, d=4)
        calls = []
        forward = MicoModel.forward

        def counting(self, features, assign_mode="hard"):
            calls.append(len(features))
            return forward(self, features, assign_mode)

        monkeypatch.setattr(MicoModel, "forward", counting)
        monkeypatch.setattr(train_mod, "PACK_ELEMENTS", 4 * 5 * 4)
        evaluate_model(model, bags)
        assert calls == [4, 4, 2]
