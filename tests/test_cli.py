import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mico.checkpoint import save_checkpoint
from mico.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from mico.data import FeatureBag, read_bag, write_bag
from mico.losses import SubtypeLabel
from mico.model import MicoConfig, MicoModel


def synth_config(tmp_path, **kw):
    cfg = dict(n_bags=24, d=6, seed=0, task="subtype", m_range=[5, 10],
               n_prototypes=3)
    cfg.update(kw)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    return str(path)


TRAIN_FLAGS = ["--seed", "3", "--epochs", "2", "--anchor-count", "4",
               "--layers", "2", "--task", "subtype"]


def make_dataset(tmp_path, **kw):
    data_dir = str(tmp_path / "data")
    assert main(["synth", "--config", synth_config(tmp_path, **kw),
                 "--out", data_dir]) == EXIT_OK
    return data_dir


def make_checkpoint(tmp_path, config=None, drop=()):
    """A CRC-valid checkpoint of a fresh model matching make_dataset's bags;
    ``config`` replaces the saved config and ``drop`` removes parameters."""
    cfg = MicoConfig(d=6, anchors=4, layers=2, task="subtype")
    state = MicoModel(cfg, rng=np.random.default_rng(0)).state_arrays()
    for name in drop:
        del state[name]
    path = str(tmp_path / "model.mico")
    save_checkpoint(path, cfg.to_dict() if config is None else config, state)
    return path


def relabel_bag(data_dir, name, class_index):
    path = os.path.join(data_dir, name)
    bag = read_bag(path)
    bag.label = SubtypeLabel(class_index=class_index)
    write_bag(bag, path)


class TestExitCodes:
    def test_synth_ok(self, tmp_path, capsys):
        make_dataset(tmp_path)
        assert "wrote 24 bags" in capsys.readouterr().out

    def test_bad_synth_config_returns_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_bags": 5, "d": 4, "seed": 0,
                                    "n_prototypes": 1}))
        assert main(["synth", "--config", str(path),
                     "--out", str(tmp_path / "d")]) == EXIT_CONFIG

    def test_unknown_synth_field_returns_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_bags": 5, "d": 4, "seed": 0, "bogus": 1}))
        assert main(["synth", "--config", str(path),
                     "--out", str(tmp_path / "d")]) == EXIT_CONFIG

    def test_missing_dataset_returns_data_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "out")] + TRAIN_FLAGS) == EXIT_DATA

    def test_corrupt_bag_returns_data_error(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        bag_path = os.path.join(data_dir, "bag0000.mbag")
        with open(bag_path, "rb") as f:
            raw = bytearray(f.read())
        raw[-10] ^= 0xFF
        with open(bag_path, "wb") as f:
            f.write(bytes(raw))
        assert main(["train", "--data", data_dir,
                     "--out", str(tmp_path / "out")] + TRAIN_FLAGS) == EXIT_DATA

    def test_missing_bag_returns_data_error(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        os.remove(os.path.join(data_dir, "bag0003.mbag"))
        assert main(["train", "--data", data_dir,
                     "--out", str(tmp_path / "out")] + TRAIN_FLAGS) == EXIT_DATA

    def test_fold_without_an_optimizer_step_returns_config_error(self, tmp_path, capsys):
        data_dir = make_dataset(tmp_path, n_bags=12, d=4, m_range=[3, 6])
        out_dir = tmp_path / "out"
        assert main(["train", "--data", data_dir, "--out", str(out_dir), "--seed", "3",
                     "--task", "subtype", "--grad-accum", "100", "--epochs", "2",
                     "--n-folds", "1", "--anchor-count", "4", "--layers", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: fold 0: no optimizer step")
        assert not (out_dir / "report.json").exists()

    def test_missing_checkpoint_returns_data_error(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        assert main(["evaluate", "--checkpoint", str(tmp_path / "none.mico"),
                     "--data", data_dir]) == EXIT_DATA

    @pytest.mark.parametrize("config,drop,message", [
        ({"task": "subtype", "anchors": 4, "layers": 2}, (), "'d'"),
        ({"d": 6, "anchors": 6, "layers": 2, "task": "subtype"}, (), "anchor count 6"),
        ({"d": 6, "anchors": 4.0, "layers": 2, "task": "subtype"}, (), "float"),
        ({"d": 6, "anchors": 4, "layers": 2, "task": "subtype", "subtype_classes": 1}, (),
         "subtype_classes"),
        (None, ("head.b",), "'head.b'"),
    ], ids=["missing-d", "indivisible-anchors", "float-anchors", "one-class", "missing-param"])
    def test_malformed_checkpoint_returns_data_error(self, tmp_path, capsys,
                                                      config, drop, message):
        data_dir = make_dataset(tmp_path)
        ckpt = make_checkpoint(tmp_path, config=config, drop=drop)
        assert main(["evaluate", "--checkpoint", ckpt, "--data", data_dir]) == EXIT_DATA
        assert message in capsys.readouterr().err

    def test_checkpoint_with_a_retired_config_field_still_loads(self, tmp_path, capsys):
        # MicoConfig held ablate_kmeans_init until the model stopped reading it
        data_dir = make_dataset(tmp_path)
        capsys.readouterr()
        cfg = dict(MicoConfig(d=6, anchors=4, layers=2, task="subtype").to_dict(),
                   ablate_kmeans_init=True)
        assert main(["evaluate", "--checkpoint", make_checkpoint(tmp_path, config=cfg),
                     "--data", data_dir]) == EXIT_OK
        assert set(json.loads(capsys.readouterr().out)) == {"acc", "f1", "auc"}

    def test_export_to_missing_dir_returns_data_error(self, tmp_path, capsys):
        data_dir = make_dataset(tmp_path)
        out = str(tmp_path / "missing" / "a.txt")
        assert main(["export-assignments", "--checkpoint", make_checkpoint(tmp_path),
                     "--bag", os.path.join(data_dir, "bag0001.mbag"),
                     "--out", out]) == EXIT_DATA
        assert out in capsys.readouterr().err

    def test_train_out_under_regular_file_returns_data_error(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["train", "--data", data_dir, "--out", str(blocker / "run")]
                    + TRAIN_FLAGS) == EXIT_DATA

    def test_class_out_of_range_in_train_returns_data_error(self, tmp_path, capsys):
        data_dir = make_dataset(tmp_path)
        relabel_bag(data_dir, "bag0005.mbag", 2)
        assert main(["train", "--data", data_dir,
                     "--out", str(tmp_path / "out")] + TRAIN_FLAGS) == EXIT_DATA
        assert "class 2" in capsys.readouterr().err

    def test_class_out_of_range_in_evaluate_returns_data_error(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        relabel_bag(data_dir, "bag0005.mbag", 2)
        assert main(["evaluate", "--checkpoint", make_checkpoint(tmp_path),
                     "--data", data_dir]) == EXIT_DATA

    def test_mixed_feature_dims_in_train_returns_data_error(self, tmp_path, capsys):
        data_dir = make_dataset(tmp_path)
        path = os.path.join(data_dir, "bag0007.mbag")
        bag = read_bag(path)
        write_bag(FeatureBag(bag_id=bag.bag_id, features=np.ones((5, 4)), label=bag.label), path)
        assert main(["train", "--data", data_dir,
                     "--out", str(tmp_path / "out")] + TRAIN_FLAGS) == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: bag 'bag0007' has dim 4, but the first bag 'bag0000' has dim 6\n")

    def test_diverging_run_returns_numerical_error(self, tmp_path, capsys):
        data_dir = make_dataset(tmp_path)
        with np.errstate(all="ignore"):
            code = main(["train", "--data", data_dir, "--out", str(tmp_path / "out"),
                         "--lr", "1e300"] + TRAIN_FLAGS)
        assert code == EXIT_NUMERICAL
        # one line naming the fold, the first diverging bag of its pack and
        # the epoch
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical error: fold 0: .+ on bag 'bag\d{4}' at epoch \d+"
                            r"(; parameter '[\w.]+' holds a non-finite value)?\n", err), err

    def test_diverging_run_prints_only_the_error(self, tmp_path):
        # NumPy's overflow warnings go to stderr outside pytest's capture, so
        # the command runs in a process of its own
        data_dir = make_dataset(tmp_path)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        proc = subprocess.run(
            [sys.executable, "-m", "mico.cli", "train", "--data", data_dir,
             "--out", str(tmp_path / "out"), "--lr", "1e300"] + TRAIN_FLAGS,
            capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("numerical error: fold 0")

    @pytest.mark.parametrize("value", ["0.1", True, "nan", "inf", 0, -1e-3, None])
    def test_bad_learning_rate_returns_config_error(self, tmp_path, capsys, value):
        data_dir = make_dataset(tmp_path)
        cfg_path = tmp_path / "train.json"
        # JSON has no NaN or infinity; Python's json module writes and reads them
        lr = float(value) if value in ("nan", "inf") else value
        cfg_path.write_text(json.dumps({"lr": lr}))
        assert main(["train", "--data", data_dir, "--out", str(tmp_path / "out"),
                     "--config", str(cfg_path)] + TRAIN_FLAGS) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "lr" in err

    def test_batch_size_in_config_returns_config_error(self, tmp_path, capsys):
        # batch size is fixed at 1 and is no config field, so even 1 is unknown
        data_dir = make_dataset(tmp_path)
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"batch_size": 1}))
        assert main(["train", "--data", data_dir, "--out", str(tmp_path / "out"),
                     "--config", str(cfg_path)] + TRAIN_FLAGS) == EXIT_CONFIG
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("anchor_count", 4.0), ("layers", 1.0), ("epochs", 1.5), ("n_folds", 2.0),
        ("kmeans_pool_cap", 10.5), ("mlp_hidden", 3.0), ("grad_accum", True),
    ])
    def test_non_integer_config_field_returns_config_error(self, tmp_path, capsys,
                                                           field, value):
        data_dir = make_dataset(tmp_path)
        cfg = {"epochs": 2, "anchor_count": 4, "layers": 2, field: value}
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--data", data_dir, "--out", str(tmp_path / "out"),
                     "--config", str(cfg_path), "--seed", "3",
                     "--task", "subtype"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err and "integer" in err

    @pytest.mark.parametrize("field,value", [
        ("n_folds", 0), ("n_folds", -1), ("kmeans_pool_cap", 0), ("mlp_hidden", -1),
        ("mlp_hidden", 0), ("subtype_classes", 1), ("survival_bins", 1),
    ])
    def test_out_of_range_config_field_returns_config_error(self, tmp_path, capsys,
                                                            field, value):
        data_dir = make_dataset(tmp_path)
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({field: value}))
        assert main(["train", "--data", data_dir, "--out", str(tmp_path / "out"),
                     "--config", str(cfg_path)] + TRAIN_FLAGS) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and field in err

    def test_config_is_checked_before_the_data_is_read(self, tmp_path, capsys):
        # 6 anchors do not halve twice; the dataset does not exist
        args = ["train", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "out")]
        assert main(args + TRAIN_FLAGS + ["--anchor-count", "6"]) == EXIT_CONFIG
        assert "anchor count 6" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        (["train", "--data", "d", "--out", "o"], "--seed is required"),
        (["train", "--data", "d", "--out", "o", "--seed", "1", "--task", "x"], "--task"),
        (["train", "--data", "d", "--out", "o", "--seed", "1", "--epochs", "1.5"], "--epochs"),
        (["bogus"], "'bogus'"),
    ], ids=["missing-seed", "bad-task", "float-epochs", "unknown-command"])
    def test_usage_error_returns_config_error(self, tmp_path, capsys, args, message):
        # the data path does not exist: usage is checked before any read
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command,flag", [
        ("ablate", ["--ablate-route"]), ("ablate", ["--ablate-reducer"]),
        ("ablate", ["--ablate-kmeans-init"]), ("sweep-anchors", ["--anchor-count", "4"]),
    ], ids=["ablate-route", "ablate-reducer", "ablate-kmeans-init", "sweep-anchor-count"])
    def test_flag_the_command_varies_is_rejected(self, tmp_path, capsys, command, flag):
        # each row or run sets that field itself, so the flag would be ignored
        args = [command, "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
                "--seed", "3"] + flag
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and flag[0] in err

    def test_sweep_base_config_takes_the_first_count(self, tmp_path, capsys):
        # the default 64 anchors do not halve 7 times, but no run uses 64: the
        # config passes and the missing data is what fails
        args = ["sweep-anchors", "--data", str(tmp_path / "missing"), "--out",
                str(tmp_path / "o"), "--seed", "3", "--layers", "7", "--counts", "128,256"]
        assert main(args) == EXIT_DATA
        assert "missing" in capsys.readouterr().err

    @pytest.mark.parametrize("synth,argv,message", [
        ({"n_bags": 2.5}, None, "n_bags must be an integer"),
        ({"n_bags": True}, None, "n_bags must be an integer"),
        ({"m_range": 5}, None, "m_range must be two integers"),
        ({"m_range": [5, 7.5]}, None, "m_range must be two integers"),
        ({"seed": -1}, None, "seed must be >= 0"),
        ({"noise_std": -1}, None, "noise_std must be >= 0"),
        ({"prototype_separation": "x"}, None, "prototype_separation must be a finite number"),
        (None, ["train", "--data", "d", "--out", "o", "--seed", "-1"], "seed must be >= 0"),
        (None, ["gradcheck", "--seed", "-1"], "seed must be >= 0"),
    ], ids=["float-n-bags", "bool-n-bags", "int-m-range", "float-m-range", "negative-seed",
            "negative-noise", "string-separation", "train-negative-seed",
            "gradcheck-negative-seed"])
    def test_bad_config_value_returns_config_error(self, tmp_path, capsys, synth, argv,
                                                   message):
        if argv is None:
            argv = ["synth", "--config", synth_config(tmp_path, **synth),
                    "--out", str(tmp_path / "data")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("args", [["--help"], ["train", "--help"]])
    def test_help_exits_zero(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_OK
        assert "usage: mico" in capsys.readouterr().out

    def test_seed_from_config_file(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"seed": 3, "task": "subtype", "epochs": 1,
                                        "anchor_count": 4, "layers": 2, "n_folds": 1}))
        out_dir = tmp_path / "run"
        assert main(["train", "--data", data_dir, "--out", str(out_dir),
                     "--config", str(cfg_path)]) == EXIT_OK
        assert json.loads((out_dir / "report.json").read_text())["config"]["seed"] == 3

    @pytest.mark.parametrize("content", ["[1, 2]", "3", "null", '"seed"'])
    def test_config_file_not_an_object_returns_config_error(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(content)
        assert main(["train", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
                     "--config", str(cfg_path), "--seed", "3"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "JSON object" in err

    def test_task_mismatch_returns_config_error(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        args = ["train", "--data", data_dir, "--out", str(tmp_path / "out"),
                "--seed", "3", "--epochs", "1", "--anchor-count", "4",
                "--layers", "2", "--task", "survival"]
        assert main(args) == EXIT_CONFIG

    def test_gradcheck_ok(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gradient check passed" in out
        # single bags and packs of three, so every fused node's segment form
        for task in ("survival", "subtype"):
            for pack in (1, 3):
                assert f"{task}, pack of {pack}: max relative error" in out


class TestFullFlow:
    def test_synth_train_evaluate_export(self, tmp_path, capsys):
        data_dir = make_dataset(tmp_path)
        out_dir = str(tmp_path / "run")

        assert main(["train", "--data", data_dir, "--out", out_dir]
                    + TRAIN_FLAGS) == EXIT_OK
        out = capsys.readouterr().out
        assert "auc:" in out and "report.json" in out
        assert os.path.exists(os.path.join(out_dir, "report.json"))

        ckpt = os.path.join(out_dir, "fold0.mico")
        assert main(["evaluate", "--checkpoint", ckpt,
                     "--data", data_dir]) == EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) == {"acc", "f1", "auc"}

        export_path = str(tmp_path / "assign.txt")
        assert main(["export-assignments", "--checkpoint", ckpt,
                     "--bag", os.path.join(data_dir, "bag0001.mbag"),
                     "--out", export_path]) == EXIT_OK
        with open(export_path) as f:
            assert f.readline().startswith("# instance")

    def test_config_file_merged_with_flag_overrides(self, tmp_path, capsys):
        data_dir = make_dataset(tmp_path)
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"task": "subtype", "epochs": 5,
                                        "anchor_count": 4, "layers": 2}))
        out_dir = str(tmp_path / "run")
        assert main(["train", "--data", data_dir, "--out", out_dir,
                     "--config", str(cfg_path), "--seed", "3",
                     "--epochs", "1"]) == EXIT_OK
        with open(os.path.join(out_dir, "report.json")) as f:
            report = json.load(f)
        assert report["config"]["epochs"] == 1  # flag wins over file

    def test_ablate_prints_table(self, tmp_path, capsys):
        data_dir = make_dataset(tmp_path)
        args = ["ablate", "--data", data_dir, "--out", str(tmp_path / "abl"),
                "--seed", "3", "--epochs", "1", "--anchor-count", "4",
                "--layers", "2", "--task", "subtype", "--n-folds", "2"]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        assert "w/o route" in out and "full" in out

    def test_sweep_anchors(self, tmp_path, capsys):
        data_dir = make_dataset(tmp_path)
        args = ["sweep-anchors", "--data", data_dir,
                "--out", str(tmp_path / "sweep"), "--counts", "4,8",
                "--seed", "3", "--epochs", "1",
                "--layers", "2", "--task", "subtype", "--n-folds", "2"]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        assert "4 anchors" in out and "8 anchors" in out

    @pytest.mark.parametrize("counts", [",", "4,4"])
    @pytest.mark.parametrize("out_exists", [False, True])
    def test_sweep_empty_or_repeated_counts_returns_config_error(self, tmp_path, capsys,
                                                                 counts, out_exists):
        data_dir = make_dataset(tmp_path)
        out = tmp_path / "sweep"
        if out_exists:
            out.mkdir()
        args = ["sweep-anchors", "--data", data_dir, "--out", str(out), "--counts", counts,
                "--seed", "3", "--task", "subtype", "--layers", "2"]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "distinct" in err
        assert not out.exists() or not any(out.iterdir())

    def test_sweep_bad_counts_returns_config_error(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        args = ["sweep-anchors", "--data", data_dir,
                "--out", str(tmp_path / "sweep"), "--counts", "4,nope",
                "--seed", "3", "--task", "subtype"]
        assert main(args) == EXIT_CONFIG
