"""Synthetic bag generation with planted, spatially dispersed prototypes,
bag file I/O (magic MBAG1, CRC-checked), datasets that keep only a prefix of
their bags in memory, and cross-validation fold splits."""

from __future__ import annotations

import os
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import framing
from .errors import ConfigError, DataError, HeaderError
from .losses import SubtypeLabel, SurvivalLabel
from .model import TASKS, check_field_types

MAGIC = b"MBAG1"

# generator constants: bag label threshold on the tumor fraction, and the
# exponential hazard rate as a function of it. The hazard spread and the
# extreme-leaning tumor-fraction draw keep survival ranking learnable on
# 50-bag test splits; a flatter hazard makes even a perfect ranker top out
# below a usable concordance.
SUBTYPE_THRESHOLD = 0.3
BASE_HAZARD = 0.05
HAZARD_SLOPE = 8.0
MAX_TUMOR_FRACTION = 0.6
RHO_BETA_SHAPE = 0.4

# coordinate layout: blobs live in disjoint cells of a coarse lattice
ARENA = 100.0
CELL_GRID = 5
BLOB_JITTER = 8.0

# `read_dataset` keeps bags in memory, in manifest order, while their
# features total at most this many bytes; every later bag is a `StreamedBag`.
# A fixed prefix needs no eviction, and under the cyclic order of epochs a
# cache smaller than the dataset would never hit. 16 MiB holds every
# acceptance-size dataset whole (1,000 bags of M <= 50, d = 32 is 12.2 MiB)
# and four slide-size bags (M = 1024, d = 512).
RESIDENT_BYTES = 16 << 20


@dataclass
class FeatureBag:
    bag_id: str
    features: np.ndarray                      # (M, d)
    coords: np.ndarray | None = None          # (M, 2), metadata only
    label: SurvivalLabel | SubtypeLabel | None = None
    true_type_map: np.ndarray | None = None   # (M,) generator ground truth

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DataError(f"bag {self.bag_id!r}: features must be (M>=1, d)")
        if not np.isfinite(self.features).all():
            raise DataError(f"bag {self.bag_id!r}: non-finite features")
        # the bag file stores M rows of each, so another shape cannot round-trip
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=np.float64)
            if self.coords.shape != (self.n_instances, 2):
                raise DataError(f"bag {self.bag_id!r}: coords must be ({self.n_instances}, 2), "
                                f"got {self.coords.shape}")
        if self.true_type_map is not None:
            self.true_type_map = np.asarray(self.true_type_map, dtype=np.int32)
            if self.true_type_map.shape != (self.n_instances,):
                raise DataError(f"bag {self.bag_id!r}: true_type_map must be "
                                f"({self.n_instances},), got {self.true_type_map.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        """(M, d), which a `StreamedBag` knows without reading its file."""
        return self.features.shape

    @property
    def n_instances(self) -> int:
        return self.shape[0]


class StreamedBag(FeatureBag):
    """A dataset bag whose features stay in its file. It holds the header
    `read_dataset` checked: the id, the label and (M, d). Each read of
    ``features`` reads the file again with ``read_bag(path,
    metadata=False)``, which checks its CRC, and returns the read-only view
    of the verified file bytes, with no copy of them. A file whose id, shape
    or label changed raises HeaderError, and a missing one DataError. It has
    no coords or type map."""

    def __init__(self, path: str, header: FeatureBag):
        self.path = path
        self.bag_id = header.bag_id
        self.label = header.label
        self._shape = header.shape

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def features(self) -> np.ndarray:
        bag = read_bag(self.path, metadata=False)
        if (bag.bag_id, bag.shape, bag.label) != (self.bag_id, self._shape, self.label):
            raise HeaderError(f"{self.path}: bag {self.bag_id!r} changed since its dataset was "
                              f"read: now bag {bag.bag_id!r} of shape {bag.shape}, {bag.label}")
        return bag.features

    def __repr__(self) -> str:
        return f"StreamedBag(path={self.path!r}, bag_id={self.bag_id!r}, shape={self._shape})"


@dataclass
class SynthConfig:
    n_bags: int
    d: int
    seed: int
    task: str = "survival"                    # one of model.TASKS
    m_range: tuple[int, int] = (25, 50)
    n_prototypes: int = 6
    prototype_separation: float = 10.0
    noise_std: float = 1.0
    tumor_prototype_index: int = 0
    dispersion: int = 3
    censoring_rate: float = 0.3

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if not (isinstance(self.m_range, (list, tuple)) and len(self.m_range) == 2
                and all(type(m) is int for m in self.m_range)):
            raise ConfigError(f"m_range must be two integers, got {self.m_range!r}")
        if self.n_bags < 1 or self.d < 1:
            raise ConfigError("n_bags and d must be positive")
        if self.n_prototypes < 2:
            raise ConfigError(f"need at least 2 prototypes, got {self.n_prototypes}")
        if self.dispersion < 2:
            raise ConfigError(f"dispersion must be >= 2, got {self.dispersion}")
        if not 0 <= self.censoring_rate < 1:
            raise ConfigError(f"censoring_rate must be in [0, 1), got {self.censoring_rate}")
        if not 0 <= self.tumor_prototype_index < self.n_prototypes:
            raise ConfigError("tumor_prototype_index out of range")
        if self.m_range[0] < 1 or self.m_range[0] > self.m_range[1]:
            raise ConfigError(f"bad m_range {self.m_range}")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.dispersion > CELL_GRID * CELL_GRID:
            raise ConfigError("dispersion exceeds available spatial cells")


def generate(config: SynthConfig) -> list[FeatureBag]:
    """Generate bags around prototype vectors on a sphere of radius
    ``prototype_separation``; tumor instances are scattered across
    ``dispersion`` spatially disjoint blobs."""
    rng = np.random.default_rng(config.seed)
    T, d = config.n_prototypes, config.d

    protos = rng.standard_normal((T, d))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    protos *= config.prototype_separation
    non_tumor = [i for i in range(T) if i != config.tumor_prototype_index]

    cell = ARENA / CELL_GRID
    cell_centers = np.array([[(i + 0.5) * cell, (j + 0.5) * cell]
                             for i in range(CELL_GRID) for j in range(CELL_GRID)])

    bags = []
    for b in range(config.n_bags):
        M = int(rng.integers(config.m_range[0], config.m_range[1] + 1))
        rho = float(MAX_TUMOR_FRACTION * rng.beta(RHO_BETA_SHAPE, RHO_BETA_SHAPE))
        n_tumor = int(round(rho * M))

        types = np.empty(M, dtype=np.int32)
        types[:n_tumor] = config.tumor_prototype_index
        types[n_tumor:] = rng.choice(non_tumor, size=M - n_tumor)

        features = protos[types] + rng.normal(0.0, config.noise_std, size=(M, d))

        coords = np.empty((M, 2))
        blob_cells = cell_centers[rng.choice(len(cell_centers), size=config.dispersion,
                                             replace=False)]
        for i in range(n_tumor):
            coords[i] = blob_cells[i % config.dispersion] + rng.uniform(-BLOB_JITTER,
                                                                        BLOB_JITTER, 2)
        coords[n_tumor:] = rng.uniform(0.0, ARENA, size=(M - n_tumor, 2))

        if config.task == "subtype":
            label = SubtypeLabel(class_index=1 if rho > SUBTYPE_THRESHOLD else 0)
        else:
            rate = BASE_HAZARD + HAZARD_SLOPE * rho
            t = float(rng.exponential(1.0 / rate))
            event = bool(rng.random() >= config.censoring_rate)
            time = t if event else t * float(rng.random())
            label = SurvivalLabel(time=time, event=event)

        bags.append(FeatureBag(bag_id=f"bag{b:04d}", features=features, coords=coords,
                               label=label, true_type_map=types))
    return bags


# ---------------------------------------------------------------------------
# bag file format
#
#   magic "MBAG1"
#   u16 bag_id length, utf-8 bag_id
#   u32 M, u32 d
#   u8 label kind (0 survival, 1 subtype), label payload
#     survival: f64 time, u8 event, i32 reserved (written as -1, ignored on read)
#     subtype:  i32 class index
#   u8 flags (bit0 coords, bit1 true_type_map)
#   features (M*d f64 LE), coords (M*2 f64), type map (M i32)
#   u32 CRC32 over everything before it

_KIND_SURVIVAL = 0
_KIND_SUBTYPE = 1
# the fixed-size fields, grouped so that a read takes three unpacks
_ID_LEN = struct.Struct("<H")
_DIMS_KIND = struct.Struct("<IIB")
_LABEL_FLAGS = {_KIND_SURVIVAL: struct.Struct("<dBiB"), _KIND_SUBTYPE: struct.Struct("<iB")}
_F8 = np.dtype("<f8")
_I4 = np.dtype("<i4")


def write_bag(bag: FeatureBag, path: str) -> None:
    bid = bag.bag_id.encode("utf-8")
    M, d = bag.features.shape
    flags = (1 if bag.coords is not None else 0) | (2 if bag.true_type_map is not None else 0)
    if isinstance(bag.label, SurvivalLabel):
        kind, label = _KIND_SURVIVAL, (bag.label.time, int(bag.label.event), -1)
    elif isinstance(bag.label, SubtypeLabel):
        kind, label = _KIND_SUBTYPE, (bag.label.class_index,)
    else:
        raise DataError(f"bag {bag.bag_id!r} has no label to serialize")
    parts = [_ID_LEN.pack(len(bid)), bid, _DIMS_KIND.pack(M, d, kind),
             _LABEL_FLAGS[kind].pack(*label, flags),
             np.ascontiguousarray(bag.features, dtype=_F8)]
    if bag.coords is not None:
        parts.append(np.ascontiguousarray(bag.coords, dtype=_F8))
    if bag.true_type_map is not None:
        parts.append(np.ascontiguousarray(bag.true_type_map, dtype=_I4))
    framing.write_framed(path, MAGIC, parts)


def read_bag(path: str, *, metadata: bool = True) -> FeatureBag:
    """Read and check one bag file. Every array of the bag is a read-only
    view of the verified file bytes, which it keeps alive. With
    ``metadata=False`` the coords and type map are not built: their sections
    are only checked to have their exact lengths, so a file with bytes
    missing or left over still raises HeaderError or TruncationError."""
    r = framing.read_framed(path, MAGIC)
    (id_len,) = r.unpack(_ID_LEN, "bag id length")
    bag_id = r.text(id_len, "bag id")
    M, d, kind = r.unpack(_DIMS_KIND, "dimensions and label kind")
    if M < 1 or d < 1:
        raise HeaderError(f"{path}: invalid dimensions M={M}, d={d}")
    if kind not in _LABEL_FLAGS:
        raise HeaderError(f"{path}: unknown label kind {kind}")
    *fields, flags = r.unpack(_LABEL_FLAGS[kind], "label and flags")
    if kind == _KIND_SURVIVAL:
        label = SurvivalLabel(time=fields[0], event=bool(fields[1]))
    else:
        label = SubtypeLabel(class_index=fields[0])
    features = r.array(_F8, (M, d), "features")
    section = r.array if metadata else r.skip
    coords = section(_F8, (M, 2), "coords") if flags & 1 else None
    type_map = section(_I4, (M,), "type map") if flags & 2 else None
    r.done()
    return FeatureBag(bag_id=bag_id, features=features, coords=coords,
                      label=label, true_type_map=type_map)


def write_dataset(bags: list[FeatureBag], out_dir: str) -> str:
    """Write one file per bag, ``<bag_id>.mbag``, plus a manifest listing
    them one a line. An id that would not read back as written (one holding
    "/", NUL or a line break, or with whitespace at either end) or that
    occurs twice raises DataError before any file is written."""
    seen = set()
    for bag in bags:
        if bag.bag_id != bag.bag_id.strip() or any(c in bag.bag_id for c in "/\0\n\r"):
            raise DataError(f"bag id {bag.bag_id!r} cannot name a dataset file")
        if bag.bag_id in seen:
            raise DataError(f"bag id {bag.bag_id!r} occurs more than once")
        seen.add(bag.bag_id)
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for bag in bags:
        rel = f"{bag.bag_id}.mbag"
        write_bag(bag, os.path.join(out_dir, rel))
        lines.append(rel)
    manifest = os.path.join(out_dir, "manifest.txt")
    with framing.open_atomic(manifest) as f:
        f.write("\n".join(lines) + "\n")
    return manifest


def read_dataset(data_dir: str) -> list[FeatureBag]:
    """Read every bag the manifest lists, in its order, with one
    ``read_bag(path, metadata=False)`` call per file. Each file is read and
    checked whole: its CRC, its header and the finiteness of its features.
    The bags hold only their features and labels: coords and type maps are
    for ``export-assignments``, which reads its bag with ``read_bag``. Bags
    stay in memory, as a read-only copy of their features, while the
    features read so far total at most `RESIDENT_BYTES`; from the first bag
    that does not fit on, each is a `StreamedBag`, which reads its file again
    at each use, and no copy of its features is made here. Either way a
    write to a bag's features raises. A bag id that occurs twice raises
    DataError."""
    manifest = os.path.join(data_dir, "manifest.txt")
    try:
        with open(manifest) as f:
            rels = [line.strip() for line in f if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read manifest {manifest}: {exc}") from exc
    bags, seen, budget = [], set(), RESIDENT_BYTES
    for rel in rels:
        path = os.path.join(data_dir, rel)
        bag = read_bag(path, metadata=False)
        if bag.bag_id in seen:
            raise DataError(f"bag id {bag.bag_id!r} occurs more than once")
        seen.add(bag.bag_id)
        if bag.features.nbytes <= budget:
            budget -= bag.features.nbytes
            bag.features = bag.features.copy()
            bag.features.flags.writeable = False
        else:
            budget = -1  # the resident bags are a prefix of the manifest
            bag = StreamedBag(path, bag)
        bags.append(bag)
    if not bags:
        raise DataError(f"manifest {manifest} lists no bags")
    return bags


# ---------------------------------------------------------------------------
# fold splitting

SPLIT = (0.60, 0.15, 0.25)  # the (train, val, test) fractions of every fold


def make_folds(bag_ids: list[str], n_folds: int = 4,
               seed: int = 0) -> list[tuple[list[str], list[str], list[str]]]:
    """Per-fold disjoint (train, val, test) id lists at the ``SPLIT`` ratios.

    Test sets are consecutive chunks of one fixed shuffle, so no bag is
    tested in two folds: ``n_folds`` chunks of ``n_test`` bags must fit in
    the ``n`` bags, else ConfigError. Rounding is to-nearest with the train
    split absorbing the remainder.
    """
    n = len(bag_ids)
    repeated = [b for b, count in Counter(bag_ids).items() if count > 1]
    if repeated:
        raise DataError(f"bag id {repeated[0]!r} occurs more than once")
    n_test = round(SPLIT[2] * n)
    n_val = round(SPLIT[1] * n)
    if n_test < 1 or n_val < 1 or n - n_test - n_val < 1:
        raise DataError(f"too few bags ({n}) for a {SPLIT} split")
    if n_folds * n_test > n:
        raise ConfigError(f"{n_folds} folds of {n_test} test bags need {n_folds * n_test} bags, "
                          f"got {n}: at most {n // n_test} folds keep every test set apart")

    ss = np.random.SeedSequence(seed)
    root_rng = np.random.default_rng(ss)
    shuffled = list(np.array(bag_ids, dtype=object)[root_rng.permutation(n)])
    fold_seeds = ss.spawn(n_folds)

    folds = []
    for i in range(n_folds):
        test = shuffled[i * n_test:(i + 1) * n_test]
        test_set = set(test)
        rest = [b for b in shuffled if b not in test_set]
        fold_rng = np.random.default_rng(fold_seeds[i])
        rest = list(np.array(rest, dtype=object)[fold_rng.permutation(len(rest))])
        val = rest[:n_val]
        train = rest[n_val:]
        folds.append((train, val, test))
    return folds
