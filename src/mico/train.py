"""Training, evaluation, ablation and sweep harness.

Protocol per fold: K-means anchor initialization on the training instances,
epoch loop over shuffled bags in grad-accum groups (each group one packed
forward and backward of the summed per-bag losses), Adam step per group,
per-epoch validation with early stopping, best-epoch restore, single test
evaluation. The optimizer is Adam rather than the composite optimizer
some MIL training setups use; the substitution is noted in every report.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import framing, kmeans
from .autodiff import Adam, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .data import FeatureBag, make_folds
from .errors import ConfigError, DataError, HeaderError, NumericalError, UndefinedMetricError
from .losses import (
    SubtypeLabel,
    SurvivalLabel,
    cross_entropy,
    quantile_bin_edges,
    risk_score,
    survival_nll,
)
from .metrics import c_index, classification_metrics
from .model import MicoConfig, MicoModel, ModelFields, check_field_types, random_anchor_init

OPTIMIZER_NOTE = "optimizer: Adam substituted for the Ranger-style optimizer"
KMEANS_NOTE = "anchor K-means runs per fold on that fold's training instances only"


@dataclass(kw_only=True)
class TrainConfig(ModelFields):
    seed: int
    epochs: int = 200
    lr: float = 2e-4
    grad_accum: int = 2
    early_stop_patience: int = 8
    anchor_count: int = 64
    ablate_kmeans_init: bool = False
    n_folds: int = 4
    kmeans_pool_cap: int = 50000

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr!r}")
        if self.grad_accum < 1:
            raise ConfigError(f"grad_accum must be >= 1, got {self.grad_accum}")
        if self.epochs < 1 or self.early_stop_patience < 1:
            raise ConfigError("epochs and early_stop_patience must be positive")
        if self.n_folds < 1:
            raise ConfigError(f"n_folds must be >= 1, got {self.n_folds}")
        if self.kmeans_pool_cap < 1:
            raise ConfigError(f"kmeans_pool_cap must be >= 1, got {self.kmeans_pool_cap}")
        # the model fields, by MicoConfig's rules; d=1 is always valid, and
        # the real d is known only once the data is read
        self.model_config(1)

    def model_config(self, d: int) -> MicoConfig:
        # the ModelFields, d and the anchor count; training-only fields are dropped
        return MicoConfig.from_dict(dict(asdict(self), d=d, anchors=self.anchor_count))


class EarlyStopper:
    """Stops after `patience` consecutive epochs without strict improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = 0
        self.streak = 0

    def update(self, metric: float, epoch: int) -> bool:
        if metric > self.best:
            self.best = metric
            self.best_epoch = epoch
            self.streak = 0
            return True
        self.streak += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.streak >= self.patience


@dataclass
class FoldResult:
    fold: int
    metrics: dict
    best_epoch: int
    epochs_run: int
    anchor_init: str
    train_loss_curve: list[float] = field(default_factory=list)
    val_metric_curve: list[float] = field(default_factory=list)
    test_ids: list[str] = field(default_factory=list)


@dataclass
class RunReport:
    config: dict
    folds: list[FoldResult]
    mean: dict
    std: dict
    notes: list[str]
    wall_clock_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _metric_names(task: str) -> list[str]:
    return ["c_index"] if task == "survival" else ["acc", "f1", "auc"]


def _check_feature_dim(bags: list[FeatureBag], d: int, source: str) -> None:
    """Raise DataError naming the first bag whose dim is not ``source``'s ``d``."""
    for bag in bags:
        if bag.shape[1] != d:
            raise DataError(f"bag {bag.bag_id!r} has dim {bag.shape[1]}, but {source} has dim {d}")


def _check_task_labels(bags: list[FeatureBag], task: str, n_classes: int,
                       source: str | None = None) -> None:
    """Raise on the first bag whose label ``task`` cannot score. A label of
    the other task is a ConfigError, the run's configured task being wrong,
    or, given the ``source`` of the task (a checkpoint), a DataError naming
    it: the bags do not fit that file. A class out of range is a DataError."""
    want = SurvivalLabel if task == "survival" else SubtypeLabel
    for bag in bags:
        if not isinstance(bag.label, want):
            kind = type(bag.label).__name__
            if source is not None:
                raise DataError(
                    f"bag {bag.bag_id!r} carries a {kind}, but {source} has task {task!r}")
            raise ConfigError(f"task {task!r} but bag {bag.bag_id!r} carries a {kind}")
        if want is SubtypeLabel and bag.label.class_index >= n_classes:
            raise DataError(
                f"bag {bag.bag_id!r} has class {bag.label.class_index}, "
                f"but the task has {n_classes} classes")


def _pack_loss(model: MicoModel, bags: list[FeatureBag], edges: np.ndarray | None,
               assign_mode: str = "hard") -> tuple[Tensor, np.ndarray]:
    """The summed task loss of a pack of bags, from one packed forward, and
    the (B,) per-bag losses; survival bins times on the fold's ``edges``."""
    out, _ = model.forward([b.features for b in bags], assign_mode=assign_mode)
    cfg = model.config
    labels = [b.label for b in bags]
    if cfg.task == "survival":
        return survival_nll(out, labels, edges)
    return cross_entropy(out, labels, cfg.subtype_classes)


def _divergence(exc: NumericalError, model: MicoModel, pack: list[FeatureBag],
                edges: np.ndarray | None, fold_index: int, epoch: int) -> NumericalError:
    """The error for a pack whose loss is not finite. It names the pack's
    first bag whose own loss is not finite (or cannot be computed), found by
    scoring each bag alone, and the first trainable parameter holding a
    non-finite value, if any. Runs only once a run has diverged."""
    culprit = pack[0]
    for bag in pack:
        try:
            with ad.no_grad():
                finite = np.isfinite(_pack_loss(model, [bag], edges)[0].data)
        except NumericalError:
            finite = False
        if not finite:
            culprit = bag
            break
    msg = f"fold {fold_index}: {exc} on bag {culprit.bag_id!r} at epoch {epoch}"
    bad = [name for name, p in model.trainable_params().items()
           if not np.all(np.isfinite(p.data))]
    if bad:
        msg += f"; parameter {bad[0]!r} holds a non-finite value"
    return NumericalError(msg)


# Evaluation scores whole bags, in split order, and training runs each
# grad-accum group, in packs of at most this many feature values (sum of
# M * d); a larger bag, such as a slide-size one (1024 x 512), is a pack of
# one. About 14 acceptance-size bags fit. Larger packs were no faster in
# evaluation and raised peak memory, since every fresh multi-MiB temporary is
# paid for in page faults.
PACK_ELEMENTS = 1 << 14


def _packs(bags: list[FeatureBag]):
    pack, size = [], 0
    for bag in bags:
        m, d = bag.shape
        if pack and size + m * d > PACK_ELEMENTS:
            yield pack
            pack, size = [], 0
        pack.append(bag)
        size += m * d
    if pack:
        yield pack


def _outputs(model: MicoModel, bags: list[FeatureBag]) -> np.ndarray:
    """The (len(bags), C) model outputs, one forward per pack, with no tape."""
    with ad.no_grad():
        outs = [model.forward([b.features for b in pack])[0].data for pack in _packs(bags)]
    return np.concatenate(outs) if outs else np.zeros((0, model.config.head_size))


def evaluate_model(model: MicoModel, bags: list[FeatureBag]) -> dict:
    """Deterministic metrics over a bag list; parameters are not mutated."""
    cfg = model.config
    _check_task_labels(bags, cfg.task, cfg.subtype_classes)
    out = _outputs(model, bags)
    if cfg.task == "survival":
        try:
            return {"c_index": c_index([risk_score(z) for z in out], [b.label for b in bags])}
        except UndefinedMetricError:
            return {"c_index": 0.5}
    e = np.exp(out - out.max(axis=1, keepdims=True))
    cm = classification_metrics(e / e.sum(axis=1, keepdims=True), [b.label for b in bags])
    return {"acc": cm.acc, "f1": cm.macro_f1,
            "auc": 0.5 if cm.auc is None else cm.auc}


def _val_score(metrics: dict, task: str) -> float:
    return metrics["c_index"] if task == "survival" else metrics["auc"]


def _init_anchors(config: TrainConfig, train_bags: list[FeatureBag],
                  pool_seed: int, init_rng: np.random.Generator) -> tuple[np.ndarray, str]:
    pool = kmeans.subsample_pool(train_bags, config.kmeans_pool_cap, seed=pool_seed)
    if config.ablate_kmeans_init:
        return random_anchor_init(pool, config.anchor_count, init_rng), "random"
    result = kmeans.fit(pool, config.anchor_count, seed=pool_seed)
    return result.centers, "kmeans"


def train_fold(config: TrainConfig, fold_index: int,
               train_bags: list[FeatureBag], val_bags: list[FeatureBag],
               test_bags: list[FeatureBag], fold_seed: np.random.SeedSequence
               ) -> tuple[FoldResult, MicoModel, np.ndarray | None]:
    """Train one fold; returns the result, the best-state model and the
    survival bin edges (None for subtype).

    The parameters are copied after each improving epoch but the last, and
    the copy is loaded back once the epochs after it ran without improving.
    Every validation score is finite (a ratio of pair counts, or the 0.5
    stand-in), so epoch 1 always improves and the initial parameters are
    never the best state."""
    d = train_bags[0].shape[1]
    seeds = fold_seed.generate_state(3)
    init_rng = np.random.default_rng(int(seeds[0]))
    shuffle_rng = np.random.default_rng(int(seeds[1]))

    edges = None
    if config.task == "survival":
        edges = quantile_bin_edges([b.label.time for b in train_bags], config.survival_bins)

    anchors, init_kind = _init_anchors(config, train_bags, int(seeds[2]), init_rng)
    model = MicoModel(config.model_config(d), rng=init_rng, anchor_init=anchors)
    opt = Adam(model.trainable_params(), lr=config.lr)

    stopper = EarlyStopper(config.early_stop_patience)
    best_state = None
    loss_curve: list[float] = []
    val_curve: list[float] = []
    pending = 0
    epochs_run = 0

    for epoch in range(1, config.epochs + 1):
        epochs_run = epoch
        order = shuffle_rng.permutation(len(train_bags))
        losses = []
        start = 0
        while start < len(order):
            # a grad-accum group; the first may finish the last epoch's group
            group = [train_bags[int(j)] for j in order[start:start + config.grad_accum - pending]]
            start += len(group)
            for pack in _packs(group):
                # a diverging run is reported by the checks below, as one
                # error; NumPy's overflow warnings on the way would be noise
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    try:
                        loss, per_bag = _pack_loss(model, pack, edges)
                        if not np.isfinite(loss.data):
                            raise NumericalError("NaN/Inf loss")
                    except NumericalError as exc:
                        raise _divergence(exc, model, pack, edges, fold_index, epoch) from exc
                    losses.extend(per_bag.tolist())
                    # seeding the summed loss with 1/grad_accum makes one
                    # accumulated step match an averaged batch of grad_accum bags
                    ad.backward(loss, 1.0 / config.grad_accum)
            pending += len(group)
            if pending == config.grad_accum:
                opt.step()
                opt.zero_grad()
                pending = 0
        loss_curve.append(float(np.mean(losses)))

        val_metric = _val_score(evaluate_model(model, val_bags), config.task)
        val_curve.append(val_metric)

        if stopper.update(val_metric, epoch):
            # the old copy goes first, so that two never live at once
            best_state = None
            if epoch < config.epochs:
                best_state = model.state_arrays()
        if stopper.should_stop:
            break

    if opt.t == 0:
        # the best state would be the initial one, reported as if trained
        raise ConfigError(
            f"fold {fold_index}: no optimizer step in {epochs_run} epochs of "
            f"{len(train_bags)} training bags: a grad_accum group of "
            f"{config.grad_accum} was never filled")
    if best_state is not None:
        model.load_state_arrays(best_state)
    metrics = evaluate_model(model, test_bags)

    result = FoldResult(
        fold=fold_index, metrics=metrics, best_epoch=stopper.best_epoch,
        epochs_run=epochs_run, anchor_init=init_kind,
        train_loss_curve=loss_curve, val_metric_curve=val_curve,
        test_ids=[b.bag_id for b in test_bags])
    return result, model, edges


def train(config: TrainConfig, bags: list[FeatureBag], out_dir: str) -> RunReport:
    """Full cross-validated run; writes per-fold checkpoints and the report
    to ``out_dir``."""
    _check_task_labels(bags, config.task, config.subtype_classes)
    start = time.monotonic()

    # every bag's id, so that make_folds rejects a repeated one
    folds = make_folds(sorted(b.bag_id for b in bags), n_folds=config.n_folds, seed=config.seed)
    by_id = {b.bag_id: b for b in bags}
    _check_feature_dim(bags, bags[0].shape[1], f"the first bag {bags[0].bag_id!r}")
    root_ss = np.random.SeedSequence(config.seed)
    fold_seeds = root_ss.spawn(config.n_folds)

    os.makedirs(out_dir, exist_ok=True)
    # what a killed run's writes left; the names are this run's files only
    framing.remove_temporaries(out_dir, r"fold\d+\.mico|report\.json")
    results: list[FoldResult] = []
    for i, (train_ids, val_ids, test_ids) in enumerate(folds):
        result, model, edges = train_fold(
            config, i,
            [by_id[b] for b in train_ids], [by_id[b] for b in val_ids],
            [by_id[b] for b in test_ids], fold_seeds[i])
        results.append(result)
        meta = asdict(model.config)
        meta["fold"] = i
        meta["best_epoch"] = result.best_epoch
        if edges is not None:
            meta["bin_edges"] = [float(e) for e in edges]
        save_checkpoint(os.path.join(out_dir, f"fold{i}.mico"), meta,
                        {name: p.data for name, p in model.params.items()})

    names = _metric_names(config.task)
    mean = {m: float(np.mean([r.metrics[m] for r in results])) for m in names}
    std = {m: (float(np.std([r.metrics[m] for r in results], ddof=1))
               if len(results) > 1 else 0.0) for m in names}

    report = RunReport(
        config=asdict(config), folds=results, mean=mean, std=std,
        notes=[OPTIMIZER_NOTE, KMEANS_NOTE],
        wall_clock_s=time.monotonic() - start)
    with framing.open_atomic(os.path.join(out_dir, "report.json")) as f:
        f.write(report.to_json())
    return report


def _model_from_checkpoint(path: str, bags: list[FeatureBag]) -> MicoModel:
    """Load a checkpoint into a model that accepts ``bags``. A checkpoint
    whose CRC holds but whose config or parameters do not fit together
    raises HeaderError."""
    cfg_dict, state = load_checkpoint(path)
    try:
        # a missing field raises TypeError
        model = MicoModel(MicoConfig.from_dict(cfg_dict), rng=np.random.default_rng(0))
        model.load_state_arrays(state)
    except (TypeError, ConfigError) as exc:
        raise HeaderError(f"{path}: malformed checkpoint: {exc}") from exc
    _check_feature_dim(bags, model.config.d, "checkpoint")
    _check_task_labels(bags, model.config.task, model.config.subtype_classes, "checkpoint")
    return model


def evaluate_checkpoint(path: str, bags: list[FeatureBag]) -> dict:
    return evaluate_model(_model_from_checkpoint(path, bags), bags)


# ---------------------------------------------------------------------------
# ablation and anchor sweep

# each row sets every ablation field, so a row is what its name says
# whatever the caller's config holds
_UNABLATED = {"ablate_kmeans_init": False, "ablate_reducer": False, "ablate_route": False}
ABLATIONS = [
    ("full", _UNABLATED),
    ("w/o anchor init", {**_UNABLATED, "ablate_kmeans_init": True}),
    ("w/o reducer", {**_UNABLATED, "ablate_reducer": True}),
    ("w/o route", {**_UNABLATED, "ablate_route": True}),
]


def ablate(config: TrainConfig, bags: list[FeatureBag], out_dir: str) -> dict[str, RunReport]:
    """Run the full protocol under each ablation with identical seeds/folds."""
    reports = {}
    for name, overrides in ABLATIONS:
        sub_dir = os.path.join(out_dir, name.replace("/", "_").replace(" ", "_"))
        reports[name] = train(replace(config, **overrides), bags, out_dir=sub_dir)
    with framing.open_atomic(os.path.join(out_dir, "ablation_table.txt")) as f:
        f.write(comparison_table(reports, config.task))
    return reports


def sweep_anchors(config: TrainConfig, bags: list[FeatureBag],
                  counts, out_dir: str) -> dict[int, RunReport]:
    """One full run per anchor count over shared folds and seeds."""
    # each copy validates itself, so a bad count fails before any run
    configs = {c: replace(config, anchor_count=c) for c in counts}
    if not configs or len(configs) != len(counts):
        raise ConfigError(f"anchor counts must be distinct and at least one, got {list(counts)}")
    reports = {c: train(cfg, bags, out_dir=os.path.join(out_dir, f"anchors{c}"))
               for c, cfg in configs.items()}
    labeled = {f"{c} anchors": r for c, r in reports.items()}
    with framing.open_atomic(os.path.join(out_dir, "sweep_table.txt")) as f:
        f.write(comparison_table(labeled, config.task))
    with framing.open_atomic(os.path.join(out_dir, "sweep_data.csv")) as f:
        names = _metric_names(config.task)
        f.write("anchors," + ",".join(
            f"{m}_mean,{m}_std" for m in names) + "\n")
        for c, r in reports.items():
            cells = [str(c)]
            for m in names:
                cells += [f"{r.mean[m]:.6f}", f"{r.std[m]:.6f}"]
            f.write(",".join(cells) + "\n")
    return reports


def comparison_table(reports: dict[str, RunReport], task: str) -> str:
    names = _metric_names(task)
    width = max(len(k) for k in reports) + 2
    header = "method".ljust(width) + "  ".join(m.rjust(15) for m in names)
    lines = [header, "-" * len(header)]
    for key, rep in reports.items():
        cells = [f"{rep.mean[m]:.4f} ± {rep.std[m]:.4f}".rjust(15) for m in names]
        lines.append(key.ljust(width) + "  ".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# assignment export

def export_assignments(ckpt_path: str, bag: FeatureBag) -> str:
    """Per-instance anchor assignment at every layer, as a text table."""
    model = _model_from_checkpoint(ckpt_path, [bag])
    with ad.no_grad():
        _, assignments = model.forward(bag.features)

    n_layers = len(assignments)
    lines = ["# instance x y " + " ".join(f"anchor_l{l}" for l in range(n_layers))]
    coords = bag.coords if bag.coords is not None else np.full((bag.n_instances, 2), np.nan)
    for m in range(bag.n_instances):
        per_layer = " ".join(str(int(a.indices[m])) for a in assignments)
        lines.append(f"{m} {coords[m, 0]:.3f} {coords[m, 1]:.3f} {per_layer}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# finite-difference gradient suite

FD_STEP = 1e-6


def finite_difference_grad(f, arr: np.ndarray) -> np.ndarray:
    """Central finite differences of scalar f with respect to every entry."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + FD_STEP
        hi = f()
        arr[idx] = orig - FD_STEP
        lo = f()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2.0 * FD_STEP)
        it.iternext()
    return g


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.abs(a) + np.abs(b), 1e-4)
    return float(np.max(np.abs(a - b) / scale))


def end_to_end_gradcheck(task: str, seed: int = 0, pack: int = 1) -> dict[str, float]:
    """Compare tape gradients of the full loss against central finite
    differences for every parameter group, on a model of d=8 features,
    4 anchors and 2 layers.

    With ``pack`` > 1 the loss is the summed loss of a pack of that many bags
    (12 instances, then half as many for each next bag, at least 1), so the
    check runs through the segment ops.

    Runs with the smooth (row-softmax) relaxation of the hard assignment:
    the straight-through surrogate is by construction not the derivative of
    the hard forward map, so its contract is checked analytically elsewhere
    while everything differentiable is checked here.
    """
    rng = np.random.default_rng(seed)
    d = 8
    cfg = MicoConfig(d=d, anchors=4, layers=2, task=task, survival_bins=4, subtype_classes=2)
    model = MicoModel(cfg, rng=rng)
    bags = []
    edges = np.array([1.0, 2.0, 3.0])   # bag i's time falls in bin (1 + i) % 4
    for i in range(pack):
        features = rng.standard_normal((max(1, 12 >> i), d))
        label = (SurvivalLabel(time=(1 + i) % 4 + 0.5, event=i % 2 == 0)
                 if task == "survival" else SubtypeLabel(class_index=(1 + i) % 2))
        bags.append(FeatureBag(bag_id=f"gradcheck{i}", features=features, label=label))

    def loss_value() -> float:
        return float(_pack_loss(model, bags, edges, assign_mode="soft")[0].data)

    ad.backward(_pack_loss(model, bags, edges, assign_mode="soft")[0])

    # no ablation and gated-attention pooling: every parameter has a gradient
    errors = {}
    for name, p in model.params.items():
        numeric = finite_difference_grad(loss_value, p.data)
        errors[name] = rel_error(p.grad, numeric)
    return errors
