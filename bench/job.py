"""Run one benchmark job in a fresh process and print its result as one JSON line.

    python3 bench/job.py '<job spec as JSON>'

A job is what a user of the program runs as one command: a cross-validated
training run ("train") or the scoring of a dataset with a saved checkpoint
("eval"). Each job has a process of its own, so its peak resident memory
is its own and not what an earlier job left behind. The benchmark never
calls the garbage collector or changes its thresholds: the program's memory
is measured as the program leaves it.

The job times its set-up (dataset read, anchor init or checkpoint load) apart
from its throughput, then checks the program's outputs. A `MicoError` or a
failed check makes the job fail; its message is in the result.
"""

from __future__ import annotations

import env

env.configure()
env.import_mico()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402

data = importlib.import_module("mico.data")
ckpt = importlib.import_module("mico.checkpoint")
errors = importlib.import_module("mico.errors")
model_mod = importlib.import_module("mico.model")
train_mod = importlib.import_module("mico.train")


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space (VmHWM).

    Not ru_maxrss: Linux carries the parent's high-water mark over into a
    child when it execs, so that figure would count the benchmark's parent.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_train(spec: dict, tr: tracing.Tracer) -> tuple[dict, list[str]]:
    cfg = train_mod.TrainConfig(**spec["config"])
    start = time.perf_counter()
    bags = data.read_dataset(spec["data"])
    read_s = time.perf_counter() - start
    start = time.perf_counter()
    report = train_mod.train(cfg, bags, out_dir=spec["out"])
    wall_s = time.perf_counter() - start
    anchor_s = tr.total_s("kmeans.subsample_pool") + tr.total_s("kmeans.fit")
    peak = peak_rss_mb()

    folds = data.make_folds(sorted(b.bag_id for b in bags), n_folds=cfg.n_folds, seed=cfg.seed)
    passes = sum(f.epochs_run * len(train_ids) for f, (train_ids, _, _) in zip(report.folds, folds))
    quality = "c_index" if cfg.task == "survival" else "auc"
    result = {
        "setup_s": read_s + anchor_s,
        "bags_per_s": passes / (wall_s - anchor_s),
        "peak_rss_mb": peak,
        "quality_name": quality,
        "quality": report.mean[quality],
        "outcome": [f.metrics for f in report.folds],
        "passes": passes,
        "epochs_run": sum(f.epochs_run for f in report.folds),
    }

    tr.phase = "check"
    problems = []
    by_id = {b.bag_id: b for b in bags}
    for f in report.folds:
        if f.epochs_run != cfg.epochs:
            problems.append(f"fold {f.fold} ran {f.epochs_run} epochs, not the fixed {cfg.epochs}")
        test = [by_id[i] for i in f.test_ids]
        if cfg.task == "subtype" and len({b.label.class_index for b in test}) < 2:
            problems.append(f"fold {f.fold}: test split holds one class, so its AUC is undefined")
        again = train_mod.evaluate_checkpoint(os.path.join(spec["out"], f"fold{f.fold}.mico"), test)
        if again != f.metrics:
            problems.append(f"fold {f.fold}: checkpoint scores {again}, training scored {f.metrics}")
    return result, problems


def class1_scores(model, bags) -> np.ndarray:
    """Class-1 softmax probability per bag, computed as `evaluate_model` does,
    so that ties between bags fall the same way."""
    scores = []
    for bag in bags:
        out, _ = model.forward(bag.features)
        z = out.data.reshape(-1)
        e = np.exp(z - z.max())
        scores.append((e / e.sum())[1])
    return np.array(scores)


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC as the Mann-Whitney U statistic over mid-ranks of the pooled scores."""
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    ranks = np.empty(len(scores))
    i = 0
    while i < len(ordered):
        j = i
        while j + 1 < len(ordered) and ordered[j + 1] == ordered[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def run_eval(spec: dict, tr: tracing.Tracer) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    bags = data.read_dataset(spec["data"])
    config, state = ckpt.load_checkpoint(spec["checkpoint"])
    model = model_mod.MicoModel(model_mod.MicoConfig.from_dict(config), rng=np.random.default_rng(0))
    model.load_state_arrays(state)
    setup_s = time.perf_counter() - start
    start = time.perf_counter()
    metrics = train_mod.evaluate_model(model, bags)
    eval_s = time.perf_counter() - start
    result = {
        "setup_s": setup_s,
        "bags_per_s": len(bags) / eval_s,
        "peak_rss_mb": peak_rss_mb(),
        "quality_name": "auc",
        "quality": metrics["auc"],
        "outcome": metrics,
    }

    tr.phase = "check"
    problems = []
    if spec["full_check"]:
        labels = np.array([b.label.class_index for b in bags])
        own = mann_whitney_auc(class1_scores(model, bags), labels)
        if own != metrics["auc"]:
            problems.append(f"evaluate_model AUC {metrics['auc']!r} != recomputed {own!r}")
        via_ckpt = train_mod.evaluate_checkpoint(spec["checkpoint"], bags)["auc"]
        if via_ckpt != own:
            problems.append(f"evaluate_checkpoint AUC {via_ckpt!r} != recomputed {own!r}")
    return result, problems


def main() -> None:
    spec = json.loads(sys.argv[1])
    tr = tracing.Tracer()
    if spec["trace"]:
        tracing.install_all(tr)
    else:
        tracing.install_anchor_clock(tr)
    clamps = model_mod.zero_norm_clamp_count()
    run = run_train if spec["kind"] == "train" else run_eval
    try:
        result, problems = run(spec, tr)
    except errors.MicoError as exc:
        print(json.dumps({"ok": False, "error": f"{type(exc).__name__}: {exc}"}))
        return
    if spec["trace"]:
        layers = tracing.layer_metrics(tr)
        layers["model.zero_norm_clamps"] = model_mod.zero_norm_clamp_count() - clamps
        if spec["kind"] == "train":
            layers["train.epochs_run"] = result["epochs_run"]
            layers["train.steps"] = layers["autodiff.adam_step.calls"]
            # every backward that is not a training pass is train_fold's probe
            probes = layers["autodiff.backward.calls"] - result["passes"]
            layers["train.probe_passes"] = probes
            layers["train.probe_share"] = probes / result["passes"]
        result["layers"] = layers
        tr.write(spec["trace_out"])
    result["ok"] = not problems
    result["error"] = "; ".join(problems) or None
    print(json.dumps(result))


if __name__ == "__main__":
    main()
