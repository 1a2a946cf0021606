"""glibc malloc thresholds: importing mico starts them at the ceiling of
glibc's adaptive rule, so the arrays a pack or a training step frees stay
mapped for the next one instead of being faulted in again.

The fault counts run in fresh processes, since glibc's own thresholds move
with what a process has already freed.
"""

import json
import os
import subprocess
import sys
import textwrap
import types

import pytest

import mico
from mico.cli import main
from mico.data import SynthConfig, generate, write_dataset

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# arguments of mallopt that set the thresholds
APPLIED = [(-3, 32 << 20), (-1, 64 << 20)]


def run_python(script: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC, **env))


class TestPolicy:
    @pytest.fixture
    def calls(self, monkeypatch):
        """The mallopt calls made through a stub libc, on a host that
        reports glibc."""
        recorded = []

        def mallopt(param, value):
            recorded.append((param, value))
            return 1

        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(mico.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        return recorded

    def test_sets_both_thresholds_at_the_ceiling(self, calls):
        assert mico._set_malloc_thresholds({}) is True
        assert calls == APPLIED

    @pytest.mark.parametrize("environ", [
        {"MALLOC_MMAP_THRESHOLD_": "131072"},
        {"MALLOC_TRIM_THRESHOLD_": "131072"},
        {"MALLOC_TOP_PAD_": "0"},
        {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"},
        {"GLIBC_TUNABLES": "glibc.rtld.nns=4:glibc.malloc.arena_max=2"},
    ])
    def test_a_glibc_malloc_setting_in_the_environment_wins(self, calls, environ):
        assert mico._set_malloc_thresholds(environ) is False
        assert calls == []

    def test_a_tunable_of_another_subsystem_does_not_count(self, calls):
        assert mico._set_malloc_thresholds({"GLIBC_TUNABLES": "glibc.rtld.nns=4"}) is True
        assert calls == APPLIED

    def test_no_libc_handle(self, calls, monkeypatch):
        def cdll(name):
            raise OSError("no handle")

        monkeypatch.setattr(mico.ctypes, "CDLL", cdll)
        assert mico._set_malloc_thresholds({}) is False
        assert calls == []

    def test_no_mallopt(self, calls, monkeypatch):
        monkeypatch.setattr(mico.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert mico._set_malloc_thresholds({}) is False
        assert calls == []

    @pytest.mark.parametrize("confstr", [lambda name: "musl", lambda name: None])
    def test_not_glibc(self, calls, monkeypatch, confstr):
        monkeypatch.setattr(os, "confstr", confstr)
        assert mico._set_malloc_thresholds({}) is False
        assert calls == []

    def test_unknown_confstr_name(self, calls, monkeypatch):
        def confstr(name):
            raise ValueError("unrecognized configuration name")

        monkeypatch.setattr(os, "confstr", confstr)
        assert mico._set_malloc_thresholds({}) is False
        assert calls == []

    def test_a_refused_value_reads_not_applied(self, calls, monkeypatch):
        refused = []

        def mallopt(param, value):
            refused.append((param, value))
            return 0

        monkeypatch.setattr(mico.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert mico._set_malloc_thresholds({}) is False
        # the trim threshold is left alone once the first value is refused
        assert refused == APPLIED[:1]


FAULTS = {
    # the second of two scorings of 300 acceptance-size bags: 23 packs
    "evaluate": """
        from mico.data import SynthConfig, generate
        from mico.model import MicoConfig, MicoModel
        from mico.train import evaluate_model

        bags = generate(SynthConfig(n_bags=300, d=32, seed=1, task="subtype"))
        model = MicoModel(MicoConfig(d=32, anchors=16, layers=2, task="subtype"),
                          rng=np.random.default_rng(0))
        evaluate_model(model, bags)
        before = minor_faults()
        evaluate_model(model, bags)
    """,
    # two slide-size training steps after two warm-up steps
    "train": """
        from mico import autodiff as ad
        from mico.data import FeatureBag
        from mico.losses import SubtypeLabel
        from mico.model import MicoConfig, MicoModel
        from mico.train import _pack_loss

        rng = np.random.default_rng(0)
        model = MicoModel(MicoConfig(d=256, anchors=32, layers=3, task="subtype"), rng=rng)
        opt = ad.Adam(model.trainable_params(), lr=1e-3)
        bag = FeatureBag(bag_id="b", features=rng.standard_normal((1024, 256)),
                         label=SubtypeLabel(1))

        def step():
            loss, _ = _pack_loss(model, [bag], None)
            ad.backward(loss)
            opt.step()
            opt.zero_grad()

        step()
        step()
        before = minor_faults()
        step()
        step()
    """,
}


@pytest.mark.skipif(not mico.MALLOC_THRESHOLDS_SET,
                    reason="the malloc thresholds were not set in this process")
@pytest.mark.parametrize("job", sorted(FAULTS))
def test_repeated_work_faults_in_no_fresh_pages(job):
    # at glibc's default thresholds the evaluation faults about 5,800 pages
    # and the training steps about 13,000
    script = textwrap.dedent("""
        import resource
        import numpy as np

        def minor_faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    """) + textwrap.dedent(FAULTS[job]) + "print(minor_faults() - before)\n"
    faults = int(run_python(script).stdout)
    assert faults < 200


@pytest.mark.skipif(not mico.MALLOC_THRESHOLDS_SET,
                    reason="the malloc thresholds were not set in this process")
@pytest.mark.parametrize("synth,flags", [
    ({"n_bags": 40, "d": 16}, ["--anchor-count", "8", "--layers", "2", "--epochs", "3"]),
    # every elementwise chain of the model splits into several row blocks
    ({"n_bags": 8, "d": 256, "m_range": (400, 600)},
     ["--anchor-count", "32", "--layers", "3", "--n-folds", "2", "--epochs", "2"]),
])
def test_outputs_do_not_depend_on_where_arrays_live(tmp_path, synth, flags):
    # a process whose glibc maps every array above 128 KiB and trims the heap
    # at 128 KiB trains the same bits as this one, under the policy
    write_dataset(generate(SynthConfig(seed=3, task="subtype", **synth)), str(tmp_path / "data"))
    args = ["train", "--data", str(tmp_path / "data"), "--seed", "5", "--task", "subtype"] + flags
    assert main(args + ["--out", str(tmp_path / "policy")]) == 0
    run_python("""
        import sys
        import mico
        from mico.cli import main
        if mico.MALLOC_THRESHOLDS_SET:
            sys.exit("the policy did not step aside")
        sys.exit(main(sys.argv[1:]))
    """, *args, "--out", str(tmp_path / "aggressive"),
        GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072:glibc.malloc.trim_threshold=131072")

    reports = []
    for run in ("policy", "aggressive"):
        report = json.loads((tmp_path / run / "report.json").read_text())
        report.pop("wall_clock_s")
        reports.append(report)
    assert reports[0] == reports[1]
    names = sorted(p.name for p in (tmp_path / "policy").glob("*.mico"))
    assert names and names == sorted(p.name for p in (tmp_path / "aggressive").glob("*.mico"))
    for name in names:
        assert (tmp_path / "policy" / name).read_bytes() == (tmp_path / "aggressive" / name).read_bytes()
