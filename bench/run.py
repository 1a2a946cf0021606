"""The mico benchmark: end-to-end and per-layer numbers for three workloads.

    python3 bench/run.py --workload train-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout; it imports the program from ``src/``.
For each workload it writes inputs generated from ``--seed`` into
``.bench_work/``, then runs jobs (see job.py), one process at a time, until
``--seconds`` have passed. Every job checks the program's outputs, and every
job's outcome must be bit-identical to the first one's, since all of them run
the same inputs.

With ``--trace 0`` the jobs run untraced and the last line of standard output
is a JSON object whose metrics are the end-to-end metrics of BENCHMARK.json:
medians over the run's jobs. With ``--trace 1`` the run alternates untraced
and traced jobs; the traced ones give the per-layer metrics of
BENCHMARK.json, the untraced ones the baseline for the tracing overhead.
The last traced job of each workload leaves its spans in ``.bench_out/``.

``--all`` runs every workload in turn and prints one table, a column per
workload, in place of the JSON line.
"""

from __future__ import annotations

import env

env.configure()
env.import_mico()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402

BENCH = env.ROOT / "bench"
JOB_TIMEOUT_S = 150
with open(env.ROOT / "BENCHMARK.json") as _f:
    SPEC = json.load(_f)
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_job(spec: dict, trace: bool, trace_out: str | None = None, full_check: bool = False) -> dict:
    spec = dict(spec, trace=trace, trace_out=trace_out, full_check=full_check)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "job.py"), json.dumps(spec)],
                              capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
                              cwd=env.ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"job ran longer than {JOB_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"ok": False, "error": f"job exited with code {proc.returncode}: " + " | ".join(tail)}
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns its jobs and the metrics taken from them."""
    os.makedirs(env.ROOT / ".bench_work", exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=env.ROOT / ".bench_work")
    trace_dir = env.ROOT / ".bench_out"
    try:
        prep_specs, job_spec = workloads.prepare(name, seed, work)
        prep = [run_job(s, trace, str(trace_dir / f"{name}-prep.spans.json"))
                for s in prep_specs]
        jobs: list[tuple[bool, dict]] = []
        start = time.perf_counter()
        while all(p["ok"] for p in prep) and (not jobs or time.perf_counter() - start < seconds):
            jobs.append((False, run_job(job_spec, False, full_check=not jobs)))
            if trace:
                out = str(trace_dir / f"{name}.spans.json")
                jobs.append((True, run_job(job_spec, True, out)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every job ran the same inputs, so every outcome must match the first
    ok = [r for _, r in jobs if r["ok"]]
    for _, r in jobs:
        if r["ok"] and r["outcome"] != ok[0]["outcome"]:
            r["ok"] = False
            r["error"] = f"outcome {r['outcome']} differs from the first job's {ok[0]['outcome']}"
    untraced = [r for traced, r in jobs if r["ok"] and not traced]
    traced = [r for traced, r in jobs if r["ok"] and traced]
    result = {
        "name": name, "jobs": len(untraced),
        "attempted": len(prep) + len(jobs),
        "failed": sum(not r["ok"] for r in prep + [r for _, r in jobs]),
        "errors": [r["error"] for r in prep + [r for _, r in jobs] if not r["ok"]],
        "e2e": {}, "layers": {},
    }
    if not untraced or (trace and not traced):
        return result
    result["e2e"] = {key: statistics.median(r[key] for r in untraced) for key in E2E}
    result["quality_name"] = untraced[0]["quality_name"]
    result["quality"] = untraced[0]["quality"]
    if trace:
        # layers the measured job never calls (K-means, backward and Adam in
        # eval-small) come from the traced preparation job
        layers = {}
        for r in prep:
            layers.update(r["layers"])
        keys = {k for r in traced for k in r["layers"]}
        for key in keys:
            layers[key] = statistics.median(r["layers"][key] for r in traced if key in r["layers"])
        rate = statistics.median(r["bags_per_s"] for r in traced)
        layers["trace.overhead"] = result["e2e"]["bags_per_s"] / rate
        layers["quality.test_metric"] = result["quality"]
        result["layers"] = layers
    return result


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or abs(value) >= 1000:
        return f"{value:.0f}"
    return f"{value:.4g}"


def e2e_rows(r: dict) -> dict[str, tuple[object, str]]:
    """End-to-end metrics under the names a reader of this workload expects."""
    rows = {}
    if r["e2e"]:
        rate = "eval_bags_per_s" if r["name"].startswith("eval") else "train_bags_per_s"
        rows["setup_s"] = (r["e2e"]["setup_s"], "s")
        rows[rate] = (r["e2e"]["bags_per_s"], "bags/s")
        rows["peak_rss_mb"] = (r["e2e"]["peak_rss_mb"], "MiB")
        rows[r["quality_name"]] = (r["quality"], "score")
    rows["error_rate"] = (r["failed"] / r["attempted"], "share")
    rows["jobs"] = (r["jobs"], "count")
    return rows


def print_table(results: list[dict], trace: bool) -> None:
    e2e = [e2e_rows(r) for r in results]
    names = ["setup_s", "train_bags_per_s", "eval_bags_per_s", "peak_rss_mb",
             "c_index", "auc", "error_rate", "jobs"]
    layer_keys = list(PER_LAYER) + sorted({k for r in results for k in r["layers"]} - set(PER_LAYER))
    width = max(len(k) for k in names + (layer_keys if trace else [])) + 2
    head = "".join(f"{r['name']:>14}" for r in results)
    print(f"{'metric':<{width}}{head}  unit")
    for name in names:
        cells = [rows.get(name) for rows in e2e]
        if any(cells):
            unit = next(c[1] for c in cells if c)
            print(f"{name:<{width}}" + "".join(f"{_fmt(c[0] if c else None):>14}" for c in cells)
                  + f"  {unit}")
    if trace:
        print(f"-- per layer, traced run {'-' * 40}")
        for key in layer_keys:
            cells = [r["layers"].get(key) for r in results]
            unit = PER_LAYER.get(key) or ("ms" if key.endswith(".ms") else "share")
            print(f"{key:<{width}}" + "".join(f"{_fmt(c):>14}" for c in cells) + f"  {unit}")
    for r in results:
        for err in r["errors"]:
            print(f"{r['name']}: failed: {err}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=workloads.NAMES)
    which.add_argument("--all", action="store_true", help="run every workload, print one table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    names = workloads.NAMES if args.all else [args.workload]
    print("provenance " + json.dumps(env.provenance(",".join(names), args.seed)))
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    print_table(results, bool(args.trace))
    if args.all:
        return 0 if all(r["failed"] == 0 for r in results) else 1

    r = results[0]
    wanted = PER_LAYER if args.trace else E2E
    values = r["layers"] if args.trace else r["e2e"]
    if not values:
        print("no job succeeded; nothing was measured", file=sys.stderr)
        return 1
    metrics = {}
    for key, unit in wanted.items():
        if key not in values:
            print(f"metric {key} was not measured", file=sys.stderr)
            return 1
        metrics[key] = {"value": values[key], "unit": unit}
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
