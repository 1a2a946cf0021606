"""The benchmark's workloads: the inputs each one generates from its seed, and
the jobs it runs on them.

Every workload is a closed loop in one process at a time: a job runs one bag
at a time, as the program does, and the next job starts when the last one
has ended. The program receives only the generated inputs, written in its own
file formats (MBAG1 bags, MICO1 checkpoints).
"""

from __future__ import annotations

import importlib
import os

import numpy as np

data = importlib.import_module("mico.data")


def _seeds(seed: int) -> tuple[int, int]:
    """Independent seeds for the data generator and for the training run."""
    data_seed, train_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(data_seed), int(train_seed)


def _train_job(data_dir: str, out_dir: str, **config) -> dict:
    # patience beyond the epoch count turns early stopping off, so every run
    # does the same number of steps whatever the last digits of its floats
    config["early_stop_patience"] = config["epochs"] + 1
    return {"kind": "train", "data": data_dir, "out": out_dir, "config": config}


def _train_small(seed: int, work: str) -> tuple[list[dict], dict]:
    data_seed, train_seed = _seeds(seed)
    bags = data.generate(data.SynthConfig(
        n_bags=200, d=32, seed=data_seed, task="survival", censoring_rate=0.15))
    data.write_dataset(bags, os.path.join(work, "data"))
    job = _train_job(os.path.join(work, "data"), os.path.join(work, "run"),
                     seed=train_seed, task="survival", epochs=2, lr=2e-3,
                     anchor_count=16, layers=2, n_folds=4)
    return [], job


def _balanced_bags(n: int, seed: int, **synth) -> tuple[list, list]:
    """The first n/2 bags of each class that one generator stream yields."""
    half = n // 2
    total = 2 * n
    while True:
        bags = data.generate(data.SynthConfig(n_bags=total, seed=seed, task="subtype", **synth))
        pos = [b for b in bags if b.label.class_index == 1][:half]
        neg = [b for b in bags if b.label.class_index == 0][:half]
        if len(pos) == len(neg) == half:
            return pos, neg
        total *= 2


def _train_slide(seed: int, work: str) -> tuple[list[dict], dict]:
    data_seed, train_seed = _seeds(seed)
    n_bags = 12
    pos, neg = _balanced_bags(n_bags, data_seed, d=512, m_range=(1024, 1024))
    # Name the bags so that the classes alternate along test, val, train of
    # the one fold: three test bags then always hold both classes, and the
    # test AUC is defined.
    ids = [f"bag{i:04d}" for i in range(n_bags)]
    train_ids, val_ids, test_ids = data.make_folds(ids, n_folds=1, seed=train_seed)[0]
    bags = [b for pair in zip(pos, neg) for b in pair]
    for bag, bag_id in zip(bags, test_ids + val_ids + train_ids):
        bag.bag_id = bag_id
    data.write_dataset(bags, os.path.join(work, "data"))
    # a 2048-row pool keeps K-means' (n, k, d) distance temporary at 512 MiB,
    # one of the largest allocations of the run
    job = _train_job(os.path.join(work, "data"), os.path.join(work, "run"),
                     seed=train_seed, task="subtype", epochs=1,
                     anchor_count=64, layers=3, n_folds=1, kmeans_pool_cap=2048)
    return [], job


def _eval_small(seed: int, work: str) -> tuple[list[dict], dict]:
    data_seed, train_seed = _seeds(seed)
    bags = data.generate(data.SynthConfig(n_bags=1100, d=32, seed=data_seed, task="subtype"))
    data.write_dataset(bags[:100], os.path.join(work, "train"))
    data.write_dataset(bags[100:], os.path.join(work, "eval"))
    # preparation: train the checkpoint that the measured jobs score with
    prep = _train_job(os.path.join(work, "train"), os.path.join(work, "ckpt"),
                      seed=train_seed, task="subtype", epochs=5, lr=2e-3,
                      anchor_count=16, layers=2, n_folds=1)
    job = {"kind": "eval", "data": os.path.join(work, "eval"),
           "checkpoint": os.path.join(work, "ckpt", "fold0.mico")}
    return [prep], job


_PREPARE = {"train-small": _train_small, "train-slide": _train_slide, "eval-small": _eval_small}
NAMES = list(_PREPARE)


def prepare(name: str, seed: int, work: str) -> tuple[list[dict], dict]:
    """Write the inputs of workload ``name`` under ``work``. Returns the jobs
    that prepare the measured job, and the measured job itself."""
    return _PREPARE[name](seed, work)
