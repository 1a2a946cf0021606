"""Property tests of packing over random pack shapes (needs ``hypothesis``).

Over random bag counts, bag sizes (M = 1 included), feature widths, anchor
counts and layer counts: a pack's logits equal its bags' per-bag logits, the
gradient of its summed loss equals the sum of its bags' gradients, every
layer's assignment counts add up to each bag's size, and permuting the bags
of a pack permutes its output rows, and layer l aligns each bag against
K0/2^l anchors (K0 under reducer ablation).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mico import autodiff as ad  # noqa: E402
from mico.data import FeatureBag  # noqa: E402
from mico.losses import SubtypeLabel, SurvivalLabel  # noqa: E402
from mico.model import MicoConfig, MicoModel  # noqa: E402
from mico.train import _pack_loss  # noqa: E402

# derandomized: the suite draws the same examples on every run
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def packs(draw):
    layers = draw(st.integers(1, 3))
    cfg = MicoConfig(
        d=draw(st.integers(1, 6)), anchors=(2 ** layers) * draw(st.integers(1, 3)),
        layers=layers, task=draw(st.sampled_from(["survival", "subtype"])),
        pooling=draw(st.sampled_from(["gated_attention", "anchor_mean"])),
        ablate_route=draw(st.booleans()), ablate_reducer=draw(st.booleans()))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = MicoModel(cfg, rng=rng)
    return model, [rng.standard_normal((m, cfg.d)) for m in sizes]


def close(a, b, rtol=1e-12):
    return float(np.max(np.abs(a - b))) <= rtol * max(1.0, float(np.max(np.abs(b))))


@PROPERTY_SETTINGS
@given(packs())
def test_packed_logits_equal_per_bag_logits(case):
    model, bags = case
    packed, _ = model.forward(bags)
    single = np.concatenate([model.forward(X)[0].data for X in bags])
    assert close(packed.data, single)


@PROPERTY_SETTINGS
@given(packs())
def test_packed_group_gradient_equals_sum_of_per_bag_gradients(case):
    model, arrays = case
    cfg = model.config
    bags = [FeatureBag(bag_id=f"b{i}", features=X,
                       label=(SurvivalLabel(time=i % cfg.survival_bins + 0.5, event=i % 2 == 0)
                              if cfg.task == "survival" else SubtypeLabel(i % cfg.subtype_classes)))
            for i, X in enumerate(arrays)]
    # a time of b + 0.5 falls in bin b
    edges = np.arange(1.0, cfg.survival_bins)
    params = model.trainable_params()
    for bag in bags:
        ad.backward(_pack_loss(model, [bag], edges)[0])
    expected = {name: p.grad for name, p in params.items()}
    ad.zero_grad(model.params.values())
    ad.backward(_pack_loss(model, bags, edges)[0])
    for name, p in params.items():
        assert close(p.grad, expected[name]), name
    ad.zero_grad(model.params.values())


@PROPERTY_SETTINGS
@given(packs())
def test_counts_are_conserved_per_bag(case):
    model, bags = case
    _, records = model.forward(bags)
    sizes = [X.shape[0] for X in bags]
    for rec in records:
        assert np.array_equal(rec.counts.reshape(len(bags), -1).sum(axis=1), sizes)


@PROPERTY_SETTINGS
@given(packs())
def test_anchors_halve_at_every_layer(case):
    model, bags = case
    cfg = model.config
    _, records = model.forward(bags)
    assert len(records) == cfg.layers
    for l, rec in enumerate(records):
        k = cfg.anchors if cfg.ablate_reducer else cfg.anchors // 2 ** l
        assert rec.alignment.shape[1] == k, l
        assert rec.counts.size == len(bags) * k, l
        assert rec.aggregated.shape == (len(bags) * k, cfg.d), l


@PROPERTY_SETTINGS
@given(packs(), st.randoms(use_true_random=False))
def test_permuting_bags_permutes_output_rows(case, random):
    model, bags = case
    order = list(range(len(bags)))
    random.shuffle(order)
    out, _ = model.forward(bags)
    permuted, _ = model.forward([bags[i] for i in order])
    assert close(permuted.data, out.data[order])
