"""Datasets past `data.RESIDENT_BYTES`: the bags after the resident prefix of
the manifest keep only their headers and read their features from their
files at each use, checked again each time, with the bits of resident bags."""

import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mico import cli, data
from mico.cli import EXIT_DATA, EXIT_OK, main
from mico.data import (StreamedBag, SynthConfig, generate, make_folds, read_bag, read_dataset,
                       write_bag, write_dataset)
from mico.errors import ChecksumError, DataError, HeaderError
from mico.losses import SubtypeLabel
from mico.model import MicoModel
from mico.train import (TrainConfig, _model_from_checkpoint, _outputs, ablate,
                        evaluate_checkpoint, train)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def write(tmp_path, n_bags=24, **synth):
    cfg = dict(n_bags=n_bags, d=6, seed=0, task="subtype", m_range=(5, 10), n_prototypes=3)
    cfg.update(synth)
    path = str(tmp_path / "data")
    write_dataset(generate(SynthConfig(**cfg)), path)
    return path


def config(**kw):
    return TrainConfig(**dict(dict(seed=3, task="subtype", epochs=2, anchor_count=4, layers=2,
                                   n_folds=2), **kw))


def counting_reads(monkeypatch):
    """The paths `data.read_bag` is called with from here on, in call order."""
    calls = []
    real = data.read_bag

    def read_bag(path, **kw):
        calls.append(path)
        return real(path, **kw)

    monkeypatch.setattr(data, "read_bag", read_bag)
    return calls


def of_file_bytes(x) -> bool:
    """Whether array ``x`` is a view whose memory is the bytes of a file read."""
    while isinstance(x, np.ndarray):
        x = x.base
    return isinstance(x, bytes)


def flip_a_feature_byte(path):
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0x01
    open(path, "wb").write(bytes(raw))


class TestResidency:
    def test_resident_bags_are_a_prefix_of_the_manifest(self, tmp_path, monkeypatch):
        path = write(tmp_path)
        whole = read_dataset(path)
        sizes = [b.features.nbytes for b in whole]
        # bag k does not fit, and a later, smaller one would
        k = next(k for k in range(1, 23) if sizes[k] > min(sizes[k + 1:]))
        monkeypatch.setattr(data, "RESIDENT_BYTES", sum(sizes[:k]) + min(sizes[k + 1:]))
        bags = read_dataset(path)
        assert [isinstance(b, StreamedBag) for b in bags] == [False] * k + [True] * (24 - k)
        for got, want in zip(bags, whole):
            assert (got.bag_id, got.label, got.shape) == (want.bag_id, want.label, want.shape)
            assert np.array_equal(got.features, want.features)
            assert got.coords is None and got.true_type_map is None

    def test_the_default_cap_keeps_an_acceptance_size_dataset_whole(self, tmp_path):
        assert not any(isinstance(b, StreamedBag) for b in read_dataset(write(tmp_path)))

    def test_reading_a_streamed_bag_copies_no_features(self, tmp_path, monkeypatch):
        # a resident read holds the file's bytes and the copy it keeps
        path = write(tmp_path, n_bags=4, d=64, m_range=(1024, 1024))
        bag_bytes = 1024 * 64 * 8
        monkeypatch.setattr(data, "RESIDENT_BYTES", 0)
        tracemalloc.start()
        try:
            bags = read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(isinstance(b, StreamedBag) for b in bags)
        assert peak < 1.5 * bag_bytes

    def test_setup_still_checks_every_file_whole(self, tmp_path, monkeypatch):
        path = write(tmp_path)
        flip_a_feature_byte(os.path.join(path, "bag0020.mbag"))
        monkeypatch.setattr(data, "RESIDENT_BYTES", 0)
        with pytest.raises(ChecksumError):
            read_dataset(path)


class TestReRead:
    @pytest.fixture
    def streamed(self, tmp_path, monkeypatch):
        path = write(tmp_path, n_bags=3)
        monkeypatch.setattr(data, "RESIDENT_BYTES", 0)
        return path, read_dataset(path)

    def test_each_use_reads_the_file_again(self, streamed, monkeypatch):
        path, bags = streamed
        calls = counting_reads(monkeypatch)
        first, again = bags[1].features, bags[1].features
        assert calls == [os.path.join(path, "bag0001.mbag")] * 2
        assert first is not again and np.array_equal(first, again)
        # a view of the file's bytes, not a copy of them
        assert not first.flags.writeable and first.flags.c_contiguous
        assert of_file_bytes(first)

    def test_a_view_reads_the_file_once_with_no_copy_and_the_same_checks(self, streamed,
                                                                         monkeypatch):
        path, bags = streamed
        calls = []
        real = data.read_bag
        monkeypatch.setattr(data, "read_bag", lambda p, **kw: calls.append(kw) or real(p, **kw))
        view = bags[1].features
        assert calls == [{"metadata": False}]
        assert not view.flags.writeable and of_file_bytes(view)
        assert np.array_equal(view, read_bag(os.path.join(path, "bag0001.mbag")).features)
        with open(os.path.join(path, "bag0002.mbag"), "rb") as f:
            other = f.read()
        with open(os.path.join(path, "bag0001.mbag"), "wb") as f:
            f.write(other)
        with pytest.raises(HeaderError, match="bag 'bag0001' changed since its dataset was read"):
            bags[1].features

    def test_a_flipped_byte_fails_the_crc(self, streamed):
        path, bags = streamed
        flip_a_feature_byte(os.path.join(path, "bag0001.mbag"))
        with pytest.raises(ChecksumError):
            bags[1].features

    def test_another_valid_bag_in_its_place_is_refused(self, streamed):
        path, bags = streamed
        with open(os.path.join(path, "bag0002.mbag"), "rb") as f:
            other = f.read()
        with open(os.path.join(path, "bag0001.mbag"), "wb") as f:
            f.write(other)
        with pytest.raises(HeaderError, match="bag 'bag0001' changed since its dataset was read"):
            bags[1].features

    def test_a_new_label_is_refused(self, streamed):
        path, bags = streamed
        bag = read_bag(os.path.join(path, "bag0001.mbag"))
        bag.label = SubtypeLabel(class_index=1 - bag.label.class_index)
        write_bag(bag, os.path.join(path, "bag0001.mbag"))
        with pytest.raises(HeaderError, match="changed since its dataset was read"):
            bags[1].features

    def test_a_deleted_file_is_a_data_error(self, streamed):
        path, bags = streamed
        os.remove(os.path.join(path, "bag0001.mbag"))
        with pytest.raises(DataError, match="cannot read file"):
            bags[1].features


class TestTraining:
    def test_each_bag_use_reads_its_file_once_and_sizes_read_none(self, tmp_path, monkeypatch):
        path = write(tmp_path)
        monkeypatch.setattr(data, "RESIDENT_BYTES", 0)
        bags = read_dataset(path)
        cfg = config(epochs=3, early_stop_patience=4)
        calls = counting_reads(monkeypatch)
        report = train(cfg, bags, out_dir=str(tmp_path / "run"))

        want = Counter()
        folds = make_folds(sorted(b.bag_id for b in bags), n_folds=cfg.n_folds, seed=cfg.seed)
        for (train_ids, val_ids, test_ids), fold in zip(folds, report.folds):
            assert fold.epochs_run == cfg.epochs
            # the K-means pool takes every row, then each epoch's training
            # and validation, then the test
            want.update({b: 1 + cfg.epochs for b in train_ids})
            want.update({b: cfg.epochs for b in val_ids})
            want.update(test_ids)
        assert Counter(os.path.basename(p)[:-len(".mbag")] for p in calls) == want

    def test_training_and_evaluation_copy_no_streamed_features(self, tmp_path, monkeypatch):
        # the forward never writes its input, so a streamed bag feeds it the
        # very view of its checked file bytes that ``features`` returns
        path = write(tmp_path)
        monkeypatch.setattr(data, "RESIDENT_BYTES", 0)
        bags = read_dataset(path)
        views, inputs = [], []
        features = StreamedBag.features
        monkeypatch.setattr(StreamedBag, "features",
                            property(lambda bag: views.append(features.fget(bag)) or views[-1]))
        forward = MicoModel.forward
        monkeypatch.setattr(MicoModel, "forward",
                            lambda model, xs, *a, **kw: inputs.extend(xs) or
                            forward(model, xs, *a, **kw))
        train(config(), bags, out_dir=str(tmp_path / "run"))
        evaluations(str(tmp_path / "run" / "fold0.mico"), bags)
        assert inputs
        handed = {id(v) for v in views}
        for x in inputs:
            assert id(x) in handed
            assert not x.flags.writeable and of_file_bytes(x)

    @pytest.fixture(scope="class")
    def resident_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("resident")
        path = write(tmp)
        bags = read_dataset(path)
        assert not any(isinstance(b, StreamedBag) for b in bags)
        train(config(), bags, out_dir=str(tmp / "train"))
        ablate(config(epochs=1), bags, out_dir=str(tmp / "ablate"))
        return path, tmp, evaluations(str(tmp / "train" / "fold0.mico"), bags)

    @pytest.mark.parametrize("cap", ["zero", "one-bag", "default"])
    def test_outputs_keep_their_bits_at_every_cap(self, resident_run, tmp_path, monkeypatch, cap):
        path, resident, evaluated = resident_run
        first = read_bag(os.path.join(path, "bag0000.mbag")).features.nbytes
        limit = {"zero": 0, "one-bag": first, "default": data.RESIDENT_BYTES}[cap]
        monkeypatch.setattr(data, "RESIDENT_BYTES", limit)
        bags = read_dataset(path)
        streamed = sum(isinstance(b, StreamedBag) for b in bags)
        assert streamed == {"zero": 24, "one-bag": 23, "default": 0}[cap]

        train(config(), bags, out_dir=str(tmp_path / "train"))
        ablate(config(epochs=1), bags, out_dir=str(tmp_path / "ablate"))
        assert run_files(tmp_path) == run_files(resident)
        metrics, logits = evaluations(str(tmp_path / "train" / "fold0.mico"), bags)
        assert metrics == evaluated[0] and np.array_equal(logits, evaluated[1])


def evaluations(checkpoint, bags):
    return (evaluate_checkpoint(checkpoint, bags),
            _outputs(_model_from_checkpoint(checkpoint, bags), bags))


def run_files(root) -> dict:
    """The bytes of every file of the train and ablate runs under ``root``,
    each report with its wall clock masked."""
    files = {}
    for run in ("train", "ablate"):
        for dirpath, _, names in os.walk(os.path.join(root, run)):
            for name in names:
                full = os.path.join(dirpath, name)
                blob = open(full, "rb").read()
                if name == "report.json":
                    blob = re.sub(rb'"wall_clock_s": [^\n,]*', b"", blob)
                files[os.path.relpath(full, root)] = blob
    assert len(files) == 3 + 4 * 3 + 1
    return files


class TestCli:
    @pytest.mark.parametrize("change", ["flipped-byte", "other-bag", "deleted"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_a_bag_changed_after_the_dataset_was_read_exits_2(self, tmp_path, monkeypatch,
                                                              capsys, command, change):
        path = write(tmp_path)
        flags = ["--seed", "3", "--epochs", "1", "--anchor-count", "4", "--layers", "2",
                 "--task", "subtype", "--n-folds", "1"]
        assert main(["train", "--data", path, "--out", str(tmp_path / "run")] + flags) == EXIT_OK
        capsys.readouterr()
        victim = os.path.join(path, "bag0005.mbag")

        def read_then_change(data_dir):
            bags = data.read_dataset(data_dir)
            if change == "flipped-byte":
                flip_a_feature_byte(victim)
            elif change == "other-bag":
                with open(os.path.join(path, "bag0006.mbag"), "rb") as f:
                    other = f.read()
                with open(victim, "wb") as f:
                    f.write(other)
            else:
                os.remove(victim)
            return bags

        monkeypatch.setattr(data, "RESIDENT_BYTES", 0)
        monkeypatch.setattr(cli, "read_dataset", read_then_change)
        if command == "train":
            argv = ["train", "--data", path, "--out", str(tmp_path / "again")] + flags
        else:
            argv = ["evaluate", "--data", path,
                    "--checkpoint", str(tmp_path / "run" / "fold0.mico")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        message = {"flipped-byte": "CRC32 mismatch", "other-bag": "changed since its dataset",
                   "deleted": "cannot read file"}[change]
        assert re.fullmatch(rf"data error: {re.escape(victim)}: [^\n]*{message}[^\n]*\n", err), err


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM is read from Linux's /proc/self/status")
def test_peak_memory_does_not_grow_with_the_number_of_streamed_bags(tmp_path):
    # N and 4N slide-like bags, trained in fresh processes with no bag
    # resident: the peaks differ by less than one bag's features
    m, d, n = 512, 128, 8
    script = textwrap.dedent("""
        import sys
        from mico import data
        from mico.train import TrainConfig, train

        data.RESIDENT_BYTES = 0
        bags = data.read_dataset(sys.argv[1])
        train(TrainConfig(seed=1, task="subtype", epochs=1, anchor_count=8, layers=2,
                          n_folds=1, kmeans_pool_cap=512), bags, out_dir=sys.argv[2])
        with open("/proc/self/status") as f:
            print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")))
    """)
    peaks = []
    for count in (n, 4 * n):
        root = tmp_path / str(count)
        write_dataset(generate(SynthConfig(n_bags=count, d=d, seed=2, task="subtype",
                                           m_range=(m, m))), str(root / "data"))
        proc = subprocess.run([sys.executable, "-c", script, str(root / "data"), str(root / "run")],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
        peaks.append(int(proc.stdout) * 1024)
        assert json.loads((root / "run" / "report.json").read_text())["folds"]
    assert abs(peaks[1] - peaks[0]) < m * d * 8, peaks
