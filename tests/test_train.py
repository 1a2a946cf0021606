import copy
import json
import os
import types
from dataclasses import replace

import numpy as np
import pytest

from mico import autodiff as ad
from mico import train as train_mod
from mico.autodiff import Adam, Tensor, zero_grad
from mico.data import SynthConfig, generate
from mico.errors import ConfigError, DataError, NumericalError
from mico.losses import SubtypeLabel
from mico.model import MicoModel
from mico.train import (
    EarlyStopper,
    TrainConfig,
    _pack_loss,
    ablate,
    comparison_table,
    evaluate_checkpoint,
    evaluate_model,
    export_assignments,
    sweep_anchors,
    train,
    train_fold,
)


def test_mico_train_names_the_module():
    import mico
    assert isinstance(mico.train, types.ModuleType)
    assert mico.train.train is train


def small_bags(task="subtype", n=24, seed=0, **kw):
    return generate(SynthConfig(n_bags=n, d=6, seed=seed, task=task,
                                m_range=(5, 10), n_prototypes=3, **kw))


def tiny_config(task="subtype", **kw):
    base = dict(seed=3, task=task, epochs=2, anchor_count=4, layers=2,
                early_stop_patience=8)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize("field", [{"lr": 0.0}, {"seed": -1}, {"grad_accum": 0},
                                       {"n_folds": 0}, {"pooling": "max"}, {"epochs": 1.5}],
                             ids=["lr", "seed", "grad_accum", "n_folds", "pooling", "epochs"])
    def test_bad_field_rejected_when_built(self, field):
        with pytest.raises(ConfigError):
            tiny_config(**field)

    def test_replaced_copy_is_validated(self):
        # ablate and sweep_anchors run replace() copies; 6 anchors do not halve twice
        with pytest.raises(ConfigError, match="anchor count 6"):
            replace(tiny_config(layers=2), anchor_count=6)


class TestEarlyStopper:
    def test_improvement_resets_streak(self):
        s = EarlyStopper(patience=2)
        assert s.update(0.5, 1)
        assert not s.update(0.4, 2)
        assert s.update(0.6, 3)
        assert s.streak == 0 and s.best_epoch == 3

    def test_stops_after_patience_flat_epochs(self):
        s = EarlyStopper(patience=3)
        s.update(0.5, 1)
        for e in range(2, 5):
            s.update(0.5, e)  # ties are not improvements
        assert s.should_stop

    def test_never_improving_run_stops_at_patience_plus_one(self, monkeypatch, tmp_path):
        calls = []

        def scripted_val(metrics, task):
            # called once per epoch, with that epoch's validation metrics
            epoch = len(calls) + 1
            calls.append(epoch)
            return 1.0 if epoch == 1 else 0.0

        monkeypatch.setattr(train_mod, "_val_score", scripted_val)
        cfg = tiny_config(epochs=50, early_stop_patience=8, n_folds=1)
        report = train(cfg, small_bags(), out_dir=str(tmp_path))
        fold = report.folds[0]
        assert fold.epochs_run == 9
        assert fold.best_epoch == 1
        assert max(calls) == 9


class TestTrain:
    def test_report_shape_and_metrics(self, tmp_path):
        report = train(tiny_config(), small_bags(), out_dir=str(tmp_path))
        assert len(report.folds) == 4
        for fold in report.folds:
            assert set(fold.metrics) == {"acc", "f1", "auc"}
            assert len(fold.train_loss_curve) == fold.epochs_run
        assert set(report.mean) == {"acc", "f1", "auc"}
        assert any("Adam" in note for note in report.notes)

    def test_survival_task_reports_c_index(self, tmp_path):
        report = train(tiny_config(task="survival"), small_bags(task="survival"),
                       out_dir=str(tmp_path))
        for fold in report.folds:
            assert 0.0 <= fold.metrics["c_index"] <= 1.0

    def test_deterministic_given_seed(self, tmp_path):
        a = train(tiny_config(), small_bags(), out_dir=str(tmp_path / "a"))
        b = train(tiny_config(), small_bags(), out_dir=str(tmp_path / "b"))
        assert replace(a, wall_clock_s=0.0).to_json() == replace(b, wall_clock_s=0.0).to_json()

    def test_three_classes_early_stop_on_macro_auc(self, tmp_path):
        # three classes by tertile of the tumor fraction; with no AUC, every
        # validation score would be the 0.5 stand-in and epoch 1 would win
        bags = small_bags(n=72)
        rho = np.array([np.mean(b.true_type_map == 0) for b in bags])
        cuts = np.quantile(rho, [1 / 3, 2 / 3])
        for bag, r in zip(bags, rho):
            bag.label = SubtypeLabel(class_index=int(np.searchsorted(cuts, r, side="right")))
        report = train(tiny_config(epochs=6, lr=2e-3, subtype_classes=3, n_folds=2), bags,
                       out_dir=str(tmp_path))
        for fold in report.folds:
            assert fold.best_epoch > 1 and len(set(fold.val_metric_curve)) > 1
        assert report.mean["auc"] > 0.9

    @pytest.mark.parametrize("grad_accum,patience,epochs", [(100, 8, 2), (15, 1, 5)],
                             ids=["epochs-end", "early-stop"])
    def test_fold_without_an_optimizer_step_fails(self, grad_accum, patience, epochs):
        # 7 training bags an epoch for 2 epochs never fill the group; under
        # patience 1 the unchanged model stops the run after epoch 2, before
        # epoch 3 would have filled a group of 15
        bags = small_bags(n=12)
        config = tiny_config(grad_accum=grad_accum, early_stop_patience=patience, epochs=epochs)
        with pytest.raises(ConfigError, match=(
                f"fold 0: no optimizer step in 2 epochs of 7 training bags: "
                f"a grad_accum group of {grad_accum} was never filled")):
            train_fold(config, 0, bags[:7], bags[7:9], bags[9:], np.random.SeedSequence(0))

    def test_training_reduces_loss(self, tmp_path):
        cfg = tiny_config(epochs=15, lr=5e-3, n_folds=1)
        report = train(cfg, small_bags(n=32), out_dir=str(tmp_path))
        curve = report.folds[0].train_loss_curve
        assert curve[-1] < curve[0]

    def test_grad_accum_step_equivalence(self):
        # two identical bags with grad_accum=2, one pack as in training, must
        # take the same single Adam step as one bag with grad_accum=1 (the
        # accumulated loss is averaged)
        bags = small_bags(n=2, seed=5)
        bags[1].features = bags[0].features.copy()
        bags[1].label = copy.deepcopy(bags[0].label)

        def one_update(bag_list, accum):
            rng = np.random.default_rng(0)
            model = MicoModel(tiny_config().model_config(6), rng=rng)
            opt = Adam(model.params, lr=1e-3)
            ad.backward(_pack_loss(model, bag_list, None)[0], 1.0 / accum)
            opt.step()
            return model.state_arrays()

        double = one_update(bags, accum=2)
        single = one_update(bags[:1], accum=1)
        for name in double:
            assert np.allclose(double[name], single[name], atol=1e-12)

    def test_groups_carry_over_epochs_and_step_once_each(self, monkeypatch):
        # 12 training bags at grad_accum=5 over 3 epochs: one Adam step per
        # 5 bags run, the group cut by an epoch's end finished in the next
        packs, steps = [], []
        forward, step = MicoModel.forward, Adam.step

        def recording_forward(self, features, assign_mode="hard"):
            if ad._grad_enabled:
                packs.append(len(features))
            return forward(self, features, assign_mode)

        monkeypatch.setattr(MicoModel, "forward", recording_forward)
        monkeypatch.setattr(Adam, "step", lambda opt: steps.append(len(packs)) or step(opt))
        bags = small_bags()
        train_fold(tiny_config(epochs=3, grad_accum=5), 0, bags[:12], bags[12:18], bags[18:],
                   np.random.SeedSequence(0))
        assert packs == [5, 5, 2, 3, 5, 4, 1, 5, 5, 1]
        assert steps == [1, 2, 4, 5, 7, 8, 9]

    def test_diverging_pack_names_its_bag(self, monkeypatch):
        # one pack per epoch; the bag blown up after epoch 1 is tenth in
        # epoch 2's pack, and the error names it, not the pack's first bag
        bags = small_bags()
        train_bags = bags[:12]

        def blow_up(model, val_bags):
            train_bags[5].features = train_bags[5].features * 1e307
            return evaluate_model(model, val_bags)

        monkeypatch.setattr(train_mod, "evaluate_model", blow_up)
        with pytest.raises(NumericalError, match=r"^fold 0: .+ on bag 'bag0005' at epoch 2$"):
            train_fold(tiny_config(grad_accum=12), 0, train_bags, bags[12:18], bags[18:],
                       np.random.SeedSequence(0))

    def test_diverging_run_names_a_non_finite_parameter(self, monkeypatch):
        bags = small_bags()

        def poison(model, val_bags):
            metrics = evaluate_model(model, val_bags)
            model.params["head.w"].data[0, 0] = np.nan
            return metrics

        monkeypatch.setattr(train_mod, "evaluate_model", poison)
        with pytest.raises(NumericalError, match=r"^fold 0: NaN/Inf loss on bag 'bag\d+' "
                                                 r"at epoch 2; parameter 'head.w' holds a "
                                                 r"non-finite value$"):
            train_fold(tiny_config(grad_accum=3), 0, bags[:12], bags[12:18], bags[18:],
                       np.random.SeedSequence(0))

    @pytest.mark.parametrize("scores,epochs,patience,copied,best", [
        ([0.6, 0.9, 0.7, 0.8], 4, 8, [1, 2], 2),
        ([0.6, 0.9, 0.1, 0.1], 6, 2, [1, 2], 2),
        ([0.6, 0.5, 0.9], 3, 8, [1], 3),
    ], ids=["best-early", "early-stop", "best-last"])
    def test_best_state_is_copied_after_each_improving_epoch_but_the_last(
            self, monkeypatch, scores, epochs, patience, copied, best):
        # the parameters each epoch was scored with, the test scoring's last;
        # the early-stopped run ends after epoch 4 of 6
        seen, copies = [], []
        state_arrays = MicoModel.state_arrays

        def recording_evaluate(model, bags):
            seen.append({name: p.data.copy() for name, p in model.params.items()})
            return evaluate_model(model, bags)

        def spying_state_arrays(model):
            copies.append(len(seen))   # the epochs scored so far
            return state_arrays(model)

        monkeypatch.setattr(train_mod, "evaluate_model", recording_evaluate)
        monkeypatch.setattr(train_mod, "_val_score", lambda metrics, task: scores[len(seen) - 1])
        monkeypatch.setattr(MicoModel, "state_arrays", spying_state_arrays)
        bags = small_bags()
        result, model, _ = train_fold(
            tiny_config(epochs=epochs, early_stop_patience=patience), 0,
            bags[:12], bags[12:18], bags[18:], np.random.SeedSequence(0))
        assert copies == copied
        assert result.best_epoch == best and result.epochs_run == len(scores)
        assert len(seen) == len(scores) + 1
        for name, p in model.params.items():
            assert np.array_equal(p.data, seen[best - 1][name]), name
            assert np.array_equal(seen[-1][name], seen[best - 1][name]), name
        if best < len(scores):
            assert any(not np.array_equal(seen[best - 1][n], seen[len(scores) - 1][n])
                       for n in seen[0])

    def test_task_label_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            train(tiny_config(task="survival"), small_bags(task="subtype"),
                  out_dir=str(tmp_path))

    def test_mixed_feature_dims_rejected_before_fold_0(self, monkeypatch, tmp_path):
        bags = small_bags(n=16)
        bags[9].features = bags[9].features[:, :4]
        monkeypatch.setattr(train_mod, "train_fold", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(DataError, match=r"^bag 'bag0009' has dim 4, but the first "
                                            r"bag 'bag0000' has dim 6$"):
            train(tiny_config(), bags, out_dir=str(tmp_path))

    def test_train_and_evaluate_leave_the_bags_unchanged(self, tmp_path):
        bags = small_bags(task="survival")
        before = copy.deepcopy(bags)
        out = str(tmp_path / "run")
        train(tiny_config(task="survival", n_folds=2), bags, out_dir=out)
        evaluate_checkpoint(os.path.join(out, "fold0.mico"), bags)
        for bag, old in zip(bags, before):
            for key, value in vars(bag).items():
                assert np.array_equal(value, vars(old)[key]), (bag.bag_id, key)


def nmi(a, b):
    """Normalized mutual information of two labelings, I(a; b) / sqrt(H(a)·H(b))
    (Strehl & Ghosh 2002, "Cluster Ensembles", JMLR)."""
    _, a = np.unique(a, return_inverse=True)
    _, b = np.unique(b, return_inverse=True)
    joint = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(joint, (a, b), 1.0)
    joint /= joint.sum()
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    nz = joint > 0
    mi = np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz]))
    return mi / np.sqrt(np.sum(pa * np.log(pa)) * np.sum(pb * np.log(pb)))


def test_nmi_of_known_labelings():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert nmi(a, 5 - a) == pytest.approx(1.0)
    assert nmi(a, np.array([0, 1, 0, 1, 0, 1])) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layer0_anchors_recover_the_planted_tissue_types(seed):
    # at noise_std 1 the K-means-seeded layer-0 anchors split the test bags'
    # instances by planted type: NMI 0.79-0.84 over seeds 0-9, where random
    # anchors (ablate_kmeans_init) gave 0.54-0.77 over seeds 0-4 and 0.56-0.72
    # on these three; the layer-1 anchors, half as many, are not held
    bags = generate(SynthConfig(n_bags=120, d=32, seed=seed, task="subtype", noise_std=1.0))
    config = TrainConfig(seed=seed, task="subtype", epochs=10, anchor_count=16, layers=2)
    _, model, _ = train_fold(config, 0, bags[:72], bags[72:96], bags[96:],
                             np.random.SeedSequence(seed))
    with ad.no_grad():
        _, assignments = model.forward([b.features for b in bags[96:]])
    types = np.concatenate([b.true_type_map for b in bags[96:]])
    assert nmi(assignments[0].indices, types) > 0.75


class TestArtifacts:
    def test_out_dir_contains_checkpoints_and_report(self, tmp_path):
        out = str(tmp_path / "run")
        report = train(tiny_config(), small_bags(), out_dir=out)
        for i in range(4):
            assert os.path.exists(os.path.join(out, f"fold{i}.mico"))
        with open(os.path.join(out, "report.json")) as f:
            on_disk = json.load(f)
        assert on_disk["mean"] == report.mean

    def test_a_killed_writers_temporaries_are_removed_and_nothing_else(self, tmp_path):
        # open_atomic names a temporary ".<target>.<12 hex digits>.tmp"
        out = tmp_path / "run"
        out.mkdir()
        stale = [".fold0.mico.0123456789ab.tmp", ".fold7.mico.deadbeef0000.tmp",
                 ".report.json.a1b2c3d4e5f6.tmp"]
        kept = ["notes.tmp", ".fold0.mico.bak", ".fold0.mico.0123456789ab.tmp.bak",
                ".fold0.mico.0123456789.tmp", ".sweep_table.txt.0123456789ab.tmp"]
        for name in stale + kept:
            (out / name).write_text("partial")
        train(tiny_config(n_folds=2), small_bags(), out_dir=str(out))
        assert sorted(os.listdir(out)) == sorted(kept + ["fold0.mico", "fold1.mico",
                                                        "report.json"])

    def test_evaluate_checkpoint_matches_in_memory_eval(self, tmp_path):
        out = str(tmp_path / "run")
        bags = small_bags()
        report = train(tiny_config(), bags, out_dir=out)
        fold = report.folds[0]
        by_id = {b.bag_id: b for b in bags}
        test_bags = [by_id[i] for i in fold.test_ids]
        got = evaluate_checkpoint(os.path.join(out, "fold0.mico"), test_bags)
        for m, v in fold.metrics.items():
            assert got[m] == pytest.approx(v, abs=1e-12)

    def test_evaluate_checkpoint_task_mismatch(self, tmp_path):
        # the checkpoint and the bags do not fit: a data error, not a config one
        out = str(tmp_path / "run")
        train(tiny_config(n_folds=1), small_bags(), out_dir=out)
        with pytest.raises(DataError, match=r"^bag 'bag0000' carries a SurvivalLabel, "
                                            r"but checkpoint has task 'subtype'$"):
            evaluate_checkpoint(os.path.join(out, "fold0.mico"),
                                small_bags(task="survival"))

    def test_evaluate_checkpoint_dim_mismatch(self, tmp_path):
        out = str(tmp_path / "run")
        train(tiny_config(n_folds=1), small_bags(), out_dir=out)
        wrong = generate(SynthConfig(n_bags=4, d=5, seed=1, task="subtype",
                                     m_range=(5, 8), n_prototypes=3))
        with pytest.raises(DataError):
            evaluate_checkpoint(os.path.join(out, "fold0.mico"), wrong)

    def test_export_assignments_table(self, tmp_path):
        out = str(tmp_path / "run")
        bags = small_bags()
        train(tiny_config(n_folds=1), bags, out_dir=out)
        text = export_assignments(os.path.join(out, "fold0.mico"), bags[0])
        lines = text.strip().split("\n")
        assert lines[0].startswith("# instance x y anchor_l0")
        assert len(lines) == 1 + bags[0].n_instances
        for line in lines[1:]:
            cols = line.split()
            l0, l1 = int(cols[3]), int(cols[4])
            assert 0 <= l0 < 4 and 0 <= l1 < 2  # 4 anchors halved once

    def test_export_groups_clean_instances_together(self, tmp_path):
        # with zero noise, instances of the same planted type must share a
        # layer-0 anchor
        bags = small_bags(n=16, noise_std=0.0, seed=9)
        out = str(tmp_path / "run")
        train(tiny_config(n_folds=1, anchor_count=8, layers=1), bags, out_dir=out)
        bag = max(bags, key=lambda b: b.n_instances)
        text = export_assignments(os.path.join(out, "fold0.mico"), bag)
        rows = [line.split() for line in text.strip().split("\n")[1:]]
        anchor_of = {}
        for row in rows:
            t = int(bag.true_type_map[int(row[0])])
            anchor_of.setdefault(t, set()).add(row[3])
        assert all(len(s) == 1 for s in anchor_of.values())


class TestAblateAndSweep:
    def test_ablation_grid(self, tmp_path):
        out = str(tmp_path / "abl")
        reports = ablate(tiny_config(n_folds=2), small_bags(), out_dir=out)
        assert set(reports) == {"full", "w/o anchor init", "w/o reducer", "w/o route"}
        assert reports["w/o anchor init"].folds[0].anchor_init == "random"
        assert reports["full"].folds[0].anchor_init == "kmeans"
        assert os.path.exists(os.path.join(out, "ablation_table.txt"))

    def test_each_row_sets_every_ablation_field(self, tmp_path):
        # the caller's ablation flags do not leak into the rows
        reports = ablate(tiny_config(n_folds=1, epochs=1, ablate_route=True,
                                     ablate_reducer=True), small_bags(), out_dir=str(tmp_path))
        flags = {name: tuple(r.config[f] for f in
                             ("ablate_kmeans_init", "ablate_reducer", "ablate_route"))
                 for name, r in reports.items()}
        assert flags == {"full": (False, False, False),
                         "w/o anchor init": (True, False, False),
                         "w/o reducer": (False, True, False),
                         "w/o route": (False, False, True)}

    def test_sweep_counts_and_files(self, tmp_path):
        out = str(tmp_path / "sweep")
        reports = sweep_anchors(tiny_config(n_folds=2), small_bags(),
                                counts=(4, 8), out_dir=out)
        assert set(reports) == {4, 8}
        with open(os.path.join(out, "sweep_data.csv")) as f:
            rows = f.read().strip().split("\n")
        assert rows[0].startswith("anchors,")
        assert len(rows) == 3

    @pytest.mark.parametrize("counts", [(), (4, 8, 4)])
    def test_sweep_rejects_empty_or_repeated_counts(self, counts, monkeypatch, tmp_path):
        monkeypatch.setattr(train_mod, "train", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(ConfigError, match="distinct"):
            sweep_anchors(tiny_config(layers=2), small_bags(), counts=counts,
                          out_dir=str(tmp_path))

    def test_sweep_rejects_indivisible_count(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep_anchors(tiny_config(layers=2), small_bags(), counts=(6,),
                          out_dir=str(tmp_path))

    def test_comparison_table_lists_all_methods(self, tmp_path):
        reports = ablate(tiny_config(n_folds=2, epochs=1), small_bags(), out_dir=str(tmp_path))
        table = comparison_table(reports, "subtype")
        for name in reports:
            assert name in table
