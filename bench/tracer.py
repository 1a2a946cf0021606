"""Spans around the calls into each layer of ``mico``, recorded from outside it.

A `Tracer` replaces module and class attributes of the program with wrappers
that record one span per call: its name, start, end, the span it ran inside,
and the phase of the job ("run" for the measured work, "check" for the
correctness checks after it). Spans stay in memory until the job ends.

`layer_metrics` turns the spans into per-layer numbers. A span's self time is
its duration minus the time covered by its child spans. Per-call times are
means over the calls a job made; counts and sizes are per job unless the
name says otherwise.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from importlib import import_module

import numpy as np

OPS = ("cosine_alignment", "ste_assign", "aggregate_anchors",
       "route_update", "cluster_reduce", "gated_attention_pool")
# ops that record a single tape node, so their backward is one closure
SINGLE_NODE_OPS = ("cosine_alignment", "ste_assign", "aggregate_anchors")
LOSSES = ("survival_nll", "cross_entropy")
METRICS = ("c_index", "classification_metrics")
MIB = 2.0 ** 20


class Tracer:
    def __init__(self):
        self.phase = "run"
        self.spans: list[list] = []   # [name, start, end, parent index or -1, phase]
        self.values: list[tuple[str, float, str]] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, value: float) -> None:
        self.values.append((name, float(value), self.phase))

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span named ``name``;
        ``on_return(result, args)`` runs after the span has closed."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.exit(idx)
            if on_return is not None:
                on_return(result, args)
            return result

        setattr(owner, attr, wrapper)

    def total_s(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"],
                       "spans": self.spans}, f)


def install_anchor_clock(tracer: Tracer) -> None:
    """The two calls that make up per-fold anchor init, which the untraced
    run needs to separate set-up time from training time."""
    kmeans = import_module("mico.kmeans")
    tracer.wrap(kmeans, "subsample_pool", "kmeans.subsample_pool")
    tracer.wrap(kmeans, "fit", "kmeans.fit")


def install_all(tracer: Tracer) -> None:
    data, ckpt, kmeans, model, ad, train = (import_module(f"mico.{name}") for name in (
        "data", "checkpoint", "kmeans", "model", "autodiff", "train"))

    def file_mb(key):
        return lambda result, args: tracer.record(key, os.path.getsize(args[0]) / MIB)

    def kmeans_sizes(result, args):
        n, d = np.shape(args[0])
        k = result.centers.shape[0]
        tracer.record("kmeans.fit.iterations", result.iterations_run)
        tracer.record("kmeans.pool_rows", n)
        # _sq_dists materialises an (n, k, d) float64 difference array
        tracer.record("kmeans.dist_temp_mb", n * k * d * 8 / MIB)

    def forward_tape(result, args):
        out, assignments = result
        nodes, nbytes, seen, stack = 0, 0, set(), [out]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t._children:
                nodes += 1
                nbytes += t.data.nbytes
                stack.extend(t._children)
        tracer.record("autodiff.tape_nodes_per_bag", nodes)
        tracer.record("autodiff.tape_mb_per_bag", nbytes / MIB)
        for layer, a in enumerate(assignments):
            tracer.record(f"model.empty_anchor_share.l{layer}", np.mean(a.counts == 0))

    def timed_backward(name):
        def hook(result, args):
            out = result[0] if isinstance(result, tuple) else result
            closure = out._backward
            if closure is None:
                return

            def timed():
                idx = tracer.enter(name)
                try:
                    closure()
                finally:
                    tracer.exit(idx)

            out._backward = timed
        return hook

    tracer.wrap(data, "read_dataset", "data.read_dataset")
    tracer.wrap(data, "read_bag", "data.read_bag", file_mb("data.read_bag.mb"))
    for owner in (ckpt, train):
        tracer.wrap(owner, "load_checkpoint", "checkpoint.load", file_mb("checkpoint.mb"))
    tracer.wrap(train, "save_checkpoint", "checkpoint.save", file_mb("checkpoint.mb"))
    tracer.wrap(kmeans, "subsample_pool", "kmeans.subsample_pool")
    tracer.wrap(kmeans, "fit", "kmeans.fit", kmeans_sizes)
    tracer.wrap(model.MicoModel, "forward", "model.forward", forward_tape)
    for op in OPS:
        hook = timed_backward(f"model.{op}.bwd") if op in SINGLE_NODE_OPS else None
        tracer.wrap(model, op, f"model.{op}", hook)
    tracer.wrap(ad, "backward", "autodiff.backward")
    tracer.wrap(ad.Adam, "step", "autodiff.adam_step")
    for fn in LOSSES:
        tracer.wrap(train, fn, f"losses.{fn}")
    for fn in METRICS:
        tracer.wrap(train, fn, f"metrics.{fn}")
    for fn in ("train", "train_fold", "evaluate_model", "evaluate_checkpoint"):
        tracer.wrap(train, fn, f"train.{fn}")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one job. A layer the job never called is left
    out, so that another job's numbers can stand in for it.

    Everything comes from the "run" phase, except the checkpoint load, which
    a training job only makes in its round-trip check.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    dur: dict[str, list[float]] = defaultdict(list)
    own: dict[str, list[float]] = defaultdict(list)
    for i, (name, start, end, _, phase) in enumerate(spans):
        if phase == "run" or name == "checkpoint.load":
            dur[name].append(1e3 * (end - start))
            own[name].append(1e3 * (end - start - covered[i]))
    vals: dict[str, list[float]] = defaultdict(list)
    for name, value, phase in tracer.values:
        if phase == "run" or name == "checkpoint.mb":
            vals[name].append(value)

    m: dict[str, float] = {}

    def mean_ms(span, key, self_time=False):
        if dur[span]:
            m[key] = float(np.mean((own if self_time else dur)[span]))

    def calls(span, key):
        if dur[span]:
            m[key] = len(dur[span])

    mean_ms("autodiff.backward", "autodiff.backward.self_ms", self_time=True)
    calls("autodiff.backward", "autodiff.backward.calls")
    mean_ms("autodiff.adam_step", "autodiff.adam_step.ms")
    calls("autodiff.adam_step", "autodiff.adam_step.calls")
    if dur["model.forward"]:
        m["model.forward.ms_p50"] = float(np.percentile(dur["model.forward"], 50))
        m["model.forward.ms_p99"] = float(np.percentile(dur["model.forward"], 99))
        m["model.forward.calls"] = len(dur["model.forward"])
    for op in OPS:
        mean_ms(f"model.{op}", f"model.{op}.fwd_ms", self_time=True)
        calls(f"model.{op}", f"model.{op}.calls")
    for op in SINGLE_NODE_OPS:
        mean_ms(f"model.{op}.bwd", f"model.{op}.bwd_ms")
    mean_ms("kmeans.fit", "kmeans.fit.ms")
    mean_ms("kmeans.subsample_pool", "kmeans.subsample_pool.ms")
    mean_ms("data.read_bag", "data.read_bag.ms")
    calls("data.read_bag", "data.read_bag.calls")
    mean_ms("checkpoint.save", "checkpoint.save.ms")
    mean_ms("checkpoint.load", "checkpoint.load.ms")
    for fn in LOSSES:
        mean_ms(f"losses.{fn}", f"losses.{fn}.ms")
        mean_ms(f"losses.{fn}", "losses.task_loss.ms")
    for fn in METRICS:
        mean_ms(f"metrics.{fn}", f"metrics.{fn}.ms")
        mean_ms(f"metrics.{fn}", "metrics.task_metric.ms")
    if dur["train.evaluate_model"]:
        m["train.evaluate_model.ms"] = float(np.sum(dur["train.evaluate_model"]))

    for key in ("autodiff.tape_nodes_per_bag", "autodiff.tape_mb_per_bag",
                "kmeans.fit.iterations", "kmeans.pool_rows", "kmeans.dist_temp_mb",
                "checkpoint.mb"):
        if vals[key]:
            m[key] = float(np.mean(vals[key]))
    if vals["data.read_bag.mb"]:
        m["data.read_bag.mb"] = float(np.sum(vals["data.read_bag.mb"]))
    for key in sorted(k for k in vals if k.startswith("model.empty_anchor_share.")):
        m[key] = float(np.mean(vals[key]))
    return m
