import math

import numpy as np
import pytest

from mico import autodiff as ad
from mico.autodiff import Tensor
from mico.errors import ConfigError, DataError, UndefinedMetricError
from mico.losses import (
    SubtypeLabel,
    SurvivalLabel,
    cross_entropy,
    quantile_bin_edges,
    risk_score,
    survival_curve,
    survival_nll,
    time_to_bin,
)
from mico.metrics import binary_auc, c_index, classification_metrics
from test_autodiff import fd_grad, max_rel_err

# four bins: a time of b + 0.5 falls in bin b
EDGES = np.array([1.0, 2.0, 3.0])


class TestSurvivalNll:
    def test_event_in_first_bin_is_neg_log_hazard(self):
        logits = np.array([0.4, -1.0, 2.0, 0.0])
        loss, _ = survival_nll(Tensor(logits[None]), [SurvivalLabel(0.5, True)], EDGES)
        p0 = 1.0 / (1.0 + math.exp(-0.4))
        assert float(loss.data) == pytest.approx(-math.log(p0), abs=1e-12)

    def test_censored_last_bin_all_half_hazards(self):
        # censored in bin 3 with every hazard 0.5: -sum of four log(0.5)
        loss, _ = survival_nll(Tensor(np.zeros((1, 4))), [SurvivalLabel(9.0, False)], EDGES)
        assert float(loss.data) == pytest.approx(4 * math.log(2.0), abs=1e-12)

    def test_event_middle_bin_hand_formula(self):
        logits = np.array([0.3, -0.7, 1.1])
        p = 1.0 / (1.0 + np.exp(-logits))
        expected = -(math.log(1 - p[0]) + math.log(1 - p[1]) + math.log(p[2]))
        loss, _ = survival_nll(Tensor(logits[None]), [SurvivalLabel(2.5, True)], EDGES[:2])
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)

    def test_survival_curve_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        curve = survival_curve(rng.standard_normal(6))
        assert np.all(np.diff(curve) <= 0)
        assert np.all((curve > 0) & (curve <= 1))

    def test_risk_score_complements_curve(self):
        logits = np.array([0.5, -0.5, 1.5, 0.0])
        assert risk_score(logits) == pytest.approx(1.0 - survival_curve(logits)[-1])

    @pytest.mark.parametrize("label", [
        SurvivalLabel(1.5, True),
        SurvivalLabel(2.5, False),
    ])
    def test_gradient_matches_finite_differences(self, label):
        rng = np.random.default_rng(1)
        za = rng.standard_normal((1, 4))

        def loss_val():
            return float(survival_nll(Tensor(za), [label], EDGES)[0].data)

        z = Tensor(za, requires_grad=True)
        ad.backward(survival_nll(z, [label], EDGES)[0])
        assert max_rel_err(z.grad, fd_grad(loss_val, za)) < 1e-6

    def test_batch_sums_per_bag_losses(self):
        # one node for B bags: its per-bag values are the single-bag losses,
        # its value their sum, and its gradient matches finite differences
        rng = np.random.default_rng(3)
        za = 3.0 * rng.standard_normal((5, 4))
        labels = [SurvivalLabel((3 * i) % 4 + 0.5, i % 2 == 0) for i in range(5)]
        loss, per_bag = survival_nll(Tensor(za), labels, EDGES)
        single = [float(survival_nll(Tensor(za[i:i + 1]), [lab], EDGES)[0].data)
                  for i, lab in enumerate(labels)]
        assert np.array_equal(per_bag, single)
        assert float(loss.data) == pytest.approx(sum(single), abs=1e-12)
        z = Tensor(za, requires_grad=True)
        ad.backward(survival_nll(z, labels, EDGES)[0])
        numeric = fd_grad(lambda: float(survival_nll(Tensor(za), labels, EDGES)[0].data), za)
        assert max_rel_err(z.grad, numeric) < 1e-6

    def test_output_shape_must_match_labels(self):
        labels = [SurvivalLabel(0.5, True)] * 2
        with pytest.raises(ConfigError, match="2 rows of 4"):
            survival_nll(Tensor(np.zeros((1, 4))), labels, EDGES)
        with pytest.raises(ConfigError):
            survival_nll(Tensor(np.zeros(8)), labels, EDGES)

    def test_one_bin_rejected(self):
        with pytest.raises(ConfigError, match="at least 2 bins"):
            survival_nll(Tensor(np.zeros((1, 1))), [SurvivalLabel(0.5, True)], [])

    def test_time_on_an_edge_falls_in_the_upper_bin(self):
        # bins are right-closed at their edges, as in time_to_bin
        logits = np.array([0.3, -0.7, 1.1, 0.2])
        p = 1.0 / (1.0 + np.exp(-logits))
        event_in_2 = -(math.log(1 - p[0]) + math.log(1 - p[1]) + math.log(p[2]))
        censored_in_2 = -(math.log(1 - p[0]) + math.log(1 - p[1]) + math.log(1 - p[2]))
        for event, expected in ((True, event_in_2), (False, censored_in_2)):
            loss, _ = survival_nll(Tensor(logits[None]), [SurvivalLabel(2.0, event)], EDGES)
            assert float(loss.data) == pytest.approx(expected, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(DataError):
            SurvivalLabel(-1.0, True)


class TestCrossEntropy:
    def test_uniform_logits_give_log_n(self):
        loss, _ = cross_entropy(Tensor(np.zeros((1, 2))), [SubtypeLabel(1)], 2)
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_near_certain_correct_class(self):
        loss, _ = cross_entropy(Tensor(np.array([[20.0, 0.0]])), [SubtypeLabel(0)], 2)
        assert float(loss.data) < 1e-4

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(2)
        za = rng.standard_normal((4, 3))
        z = Tensor(za, requires_grad=True)
        loss, per_bag = cross_entropy(z, [SubtypeLabel(c) for c in (2, 0, 1, 2)], 3)
        ad.backward(loss)
        soft = np.exp(za - za.max(axis=1, keepdims=True))
        soft /= soft.sum(axis=1, keepdims=True)
        expected = soft - np.eye(3)[[2, 0, 1, 2]]
        assert np.max(np.abs(z.grad - expected)) < 1e-12
        assert np.max(np.abs(per_bag + np.log(soft[range(4), [2, 0, 1, 2]]))) < 1e-12

    def test_class_out_of_range(self):
        with pytest.raises(ConfigError):
            cross_entropy(Tensor(np.zeros((1, 2))), [SubtypeLabel(2)], 2)
        with pytest.raises(ConfigError, match="1 rows of 2"):
            cross_entropy(Tensor(np.zeros((2, 2))), [SubtypeLabel(1)], 2)


class TestBinning:
    def test_quartile_edges_of_uniform_grid(self):
        times = np.arange(1.0, 9.0)  # 1..8
        edges = quantile_bin_edges(times, 4)
        assert edges.shape == (3,)
        assert np.array_equal(edges, np.quantile(times, [0.25, 0.5, 0.75]))

    def test_time_to_bin_boundaries(self):
        edges = np.array([2.0, 5.0, 9.0])
        assert time_to_bin(0.0, edges) == 0
        assert time_to_bin(2.0, edges) == 1   # right-closed at edges
        assert time_to_bin(6.0, edges) == 2
        assert time_to_bin(100.0, edges) == 3

    def test_too_few_times(self):
        with pytest.raises(DataError):
            quantile_bin_edges([1.0, 2.0], 4)


def c_index_oracle(risks, labels):
    num = den = 0.0
    for i in range(len(labels)):
        for j in range(len(labels)):
            if labels[i].time < labels[j].time and labels[i].event:
                den += 1
                if risks[i] > risks[j]:
                    num += 1
                elif risks[i] == risks[j]:
                    num += 0.5
    return num / den


class TestCIndex:
    def test_perfect_ranking(self):
        labels = [SurvivalLabel(t, True) for t in (1.0, 2.0, 3.0)]
        assert c_index([3.0, 2.0, 1.0], labels) == 1.0

    def test_inverted_ranking(self):
        labels = [SurvivalLabel(t, True) for t in (1.0, 2.0, 3.0)]
        assert c_index([1.0, 2.0, 3.0], labels) == 0.0

    def test_all_tied_risks(self):
        labels = [SurvivalLabel(t, True) for t in (1.0, 2.0, 3.0)]
        assert c_index([5.0, 5.0, 5.0], labels) == 0.5

    def test_censored_sample_not_a_comparable_anchor(self):
        # sample 0 censored: the (0, 1) pair does not count
        labels = [SurvivalLabel(1.0, False), SurvivalLabel(2.0, True),
                  SurvivalLabel(3.0, True)]
        assert c_index([0.0, 1.0, 0.0], labels) == 1.0

    def test_matches_pure_python_oracle_on_random_data(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(5, 30))
            risks = rng.standard_normal(n)
            if rng.random() < 0.3:
                risks = np.round(risks)  # force ties
            labels = [SurvivalLabel(float(rng.uniform(0, 10)), bool(rng.random() < 0.7))
                      for _ in range(n)]
            if not any(lab.event for lab in labels):
                continue
            assert c_index(risks, labels) == c_index_oracle(risks, labels)

    def test_symmetry_under_risk_negation(self):
        rng = np.random.default_rng(4)
        risks = rng.standard_normal(20)
        labels = [SurvivalLabel(float(rng.uniform(0, 5)), True) for _ in range(20)]
        assert c_index(risks, labels) + c_index(-risks, labels) == pytest.approx(1.0)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        risks = rng.uniform(0.1, 3.0, size=15)
        labels = [SurvivalLabel(float(rng.uniform(0, 5)), bool(rng.random() < 0.8))
                  for _ in range(15)]
        assert c_index(risks, labels) == c_index(np.log(risks), labels)

    def test_no_comparable_pairs(self):
        labels = [SurvivalLabel(1.0, False), SurvivalLabel(2.0, False)]
        with pytest.raises(UndefinedMetricError):
            c_index([0.1, 0.2], labels)


def auc_trapezoid_oracle(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    thresholds = np.concatenate([[np.inf], np.unique(scores)[::-1], [-np.inf]])
    pts = []
    for th in thresholds:
        pred = scores >= th
        tpr = (pred & (labels == 1)).sum() / (labels == 1).sum()
        fpr = (pred & (labels == 0)).sum() / (labels == 0).sum()
        pts.append((fpr, tpr))
    pts.sort()
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


class TestAuc:
    def test_interleaved_ties_give_half(self):
        assert binary_auc([0.6, 0.4, 0.6, 0.4], [1, 1, 0, 0]) == 0.5

    def test_perfect_separation(self):
        assert binary_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_matches_trapezoid_roc_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(6, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            scores = np.round(rng.standard_normal(n), 1)  # plenty of ties
            assert abs(binary_auc(scores, labels)
                       - auc_trapezoid_oracle(scores, labels)) < 1e-12

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetricError):
            binary_auc([0.1, 0.2], [1, 1])


class TestClassificationMetrics:
    def test_confusion_matrix_hand_case(self):
        # preds: 1 0 1 1 ; truth: 1 0 0 1 -> acc 0.75
        scores = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.7], [0.4, 0.6]])
        labels = [SubtypeLabel(c) for c in (1, 0, 0, 1)]
        m = classification_metrics(scores, labels)
        assert m.acc == 0.75
        # class 0: tp=1 fp=0 fn=1 -> f1 = 2/3; class 1: tp=2 fp=1 fn=0 -> f1 = 4/5
        assert m.macro_f1 == pytest.approx((2 / 3 + 4 / 5) / 2)
        assert m.auc == pytest.approx(binary_auc(scores[:, 1], [1, 0, 0, 1]))

    def test_perfect_predictions(self):
        scores = np.array([[0.9, 0.1], [0.1, 0.9]])
        m = classification_metrics(scores, [SubtypeLabel(0), SubtypeLabel(1)])
        assert (m.acc, m.macro_f1, m.auc) == (1.0, 1.0, 1.0)

    def test_single_class_still_reports_acc_and_f1(self):
        scores = np.array([[0.2, 0.8], [0.3, 0.7]])
        m = classification_metrics(scores, [SubtypeLabel(1), SubtypeLabel(1)])
        assert m.acc == 1.0
        assert m.auc is None

    def test_perfect_three_class_scores_give_auc_one(self):
        scores = np.eye(3)[[0, 1, 2, 2, 0]]
        m = classification_metrics(scores, [SubtypeLabel(c) for c in (0, 1, 2, 2, 0)])
        assert (m.acc, m.macro_f1, m.auc) == (1.0, 1.0, 1.0)

    def test_three_class_auc_is_the_one_vs_rest_mean(self):
        rng = np.random.default_rng(4)
        scores = rng.random((30, 3))
        y = np.arange(30) % 3
        m = classification_metrics(scores, [SubtypeLabel(int(c)) for c in y])
        assert m.auc == pytest.approx(np.mean([binary_auc(scores[:, c], y == c)
                                               for c in range(3)]), abs=1e-15)

    def test_three_class_auc_skips_an_absent_class(self):
        scores = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5]])
        m = classification_metrics(scores, [SubtypeLabel(c) for c in (0, 1, 1)])
        assert m.auc == pytest.approx((binary_auc(scores[:, 0], [1, 0, 0])
                                       + binary_auc(scores[:, 1], [0, 1, 1])) / 2)

    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            classification_metrics(np.zeros((3, 2)), [SubtypeLabel(0)])
