"""Command-line entry points.

Subcommands: synth, train, evaluate, ablate, sweep-anchors,
export-assignments, gradcheck. Exit codes: 0 success, 1 usage/config error,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .data import SynthConfig, generate, read_bag, read_dataset, write_dataset
from .errors import ConfigError, DataError, MicoError, NumericalError
from .model import POOLINGS, TASKS
from .train import (
    TrainConfig,
    ablate,
    comparison_table,
    end_to_end_gradcheck,
    evaluate_checkpoint,
    export_assignments,
    sweep_anchors,
)
from .train import train as run_training

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error exits 1, not argparse's 2
        raise ConfigError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            values = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} holds a {type(values).__name__}, not a JSON object")
    return values


def _train_config(args, **fixed) -> TrainConfig:
    """The config from ``--config``, then the flags, then ``fixed``."""
    values = _load_json(args.config) if args.config else {}
    for f in fields(TrainConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    values.update(fixed)
    if "seed" not in values:
        raise ConfigError("--seed is required")
    try:
        cfg = TrainConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"bad training config: {exc}") from exc
    cfg.validate()
    return cfg


def _add_train_flags(p: argparse.ArgumentParser, varied: tuple[str, ...] = ()) -> None:
    """The TrainConfig flags, less those the subcommand sets itself
    (``varied``: "anchor_count", "ablate")."""
    p.add_argument("--config", help="JSON file with TrainConfig fields")
    p.add_argument("--seed", type=int, help="required here or in --config")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--grad-accum", dest="grad_accum", type=int)
    p.add_argument("--early-stop-patience", dest="early_stop_patience", type=int)
    if "anchor_count" not in varied:
        p.add_argument("--anchor-count", dest="anchor_count", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--pooling", choices=POOLINGS)
    p.add_argument("--n-folds", dest="n_folds", type=int)
    if "ablate" not in varied:
        p.add_argument("--ablate-route", dest="ablate_route", action="store_const", const=True)
        p.add_argument("--ablate-reducer", dest="ablate_reducer", action="store_const",
                       const=True)
        p.add_argument("--ablate-kmeans-init", dest="ablate_kmeans_init",
                       action="store_const", const=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mico", description="Context-aware cluster-routing MIL harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic bag dataset")
    p.add_argument("--config", required=True, help="JSON file with SynthConfig fields")
    p.add_argument("--out", required=True, help="output dataset directory")

    p = sub.add_parser("train", help="cross-validated training run")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("ablate", help="full model plus the three ablations")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p, varied=("ablate",))

    p = sub.add_parser("sweep-anchors", help="one run per anchor count")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--counts", default="32,64,128")
    _add_train_flags(p, varied=("anchor_count",))

    p = sub.add_parser("export-assignments", help="per-layer anchor assignment of one bag")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bag", required=True)
    p.add_argument("--out", help="output text file (default: stdout)")

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "synth":
        raw = _load_json(args.config)
        try:
            cfg = SynthConfig(**raw)
        except TypeError as exc:
            raise ConfigError(f"bad synth config: {exc}") from exc
        bags = generate(cfg)
        manifest = write_dataset(bags, args.out)
        print(f"wrote {len(bags)} bags, manifest {manifest}")

    elif args.command == "train":
        cfg = _train_config(args)
        report = run_training(cfg, read_dataset(args.data), out_dir=args.out)
        for m, v in report.mean.items():
            print(f"{m}: {v:.4f} ± {report.std[m]:.4f}")
        print(f"report written to {args.out}/report.json")

    elif args.command == "evaluate":
        metrics = evaluate_checkpoint(args.checkpoint, read_dataset(args.data))
        print(json.dumps(metrics, sort_keys=True, indent=2))

    elif args.command == "ablate":
        cfg = _train_config(args)
        reports = ablate(cfg, read_dataset(args.data), out_dir=args.out)
        print(comparison_table(reports, cfg.task), end="")

    elif args.command == "sweep-anchors":
        try:
            counts = [int(c) for c in args.counts.split(",") if c]
        except ValueError as exc:
            raise ConfigError(f"bad --counts value {args.counts!r}") from exc
        # every run overrides the anchor count; the base config takes the first
        cfg = _train_config(args, **({"anchor_count": counts[0]} if counts else {}))
        reports = sweep_anchors(cfg, read_dataset(args.data),
                                counts=counts, out_dir=args.out)
        labeled = {f"{c} anchors": r for c, r in reports.items()}
        print(comparison_table(labeled, cfg.task), end="")

    elif args.command == "export-assignments":
        text = export_assignments(args.checkpoint, read_bag(args.bag))
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
            print(f"wrote {args.out}")
        else:
            print(text, end="")

    elif args.command == "gradcheck":
        if args.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        worst = 0.0
        # a pack of three runs every fused node's segment form too
        for task in TASKS:
            for pack in (1, 3):
                errors = end_to_end_gradcheck(task, seed=args.seed, pack=pack)
                task_worst = max(errors.values())
                worst = max(worst, task_worst)
                print(f"{task}, pack of {pack}: max relative error {task_worst:.3e} "
                      f"over {len(errors)} parameter groups")
        if worst >= 1e-4:
            raise NumericalError(f"gradient check failed: max relative error {worst:.3e}")
        print("gradient check passed")

    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataError, MicoError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        # reads raise DataError, so this is an output that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
