"""Versioned binary parameter checkpoints.

Layout: magic "MICO1", u32 JSON config length + config bytes, u32 parameter
count, then per parameter: u16 name length + utf-8 name, u8 rank, u64 dims,
row-major little-endian float64 payload; trailing CRC32. The JSON config is
serialized with sorted keys so save/load round-trips are bit-exact.
A survival checkpoint's config also holds its fold's ``bin_edges``, without
which its hazard columns mean nothing; evaluation ranks by risk and needs none.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from . import framing
from .errors import HeaderError

MAGIC = b"MICO1"
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_F8 = np.dtype("<f8")


def save_checkpoint(path: str, config: dict, params: dict[str, np.ndarray]) -> None:
    cfg = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [_U32.pack(len(cfg)), cfg, _U32.pack(len(params))]
    for name, arr in params.items():
        arr = np.asarray(arr, dtype=np.float64)
        nb = name.encode("utf-8")
        parts.append(_U16.pack(len(nb)))
        parts.append(nb)
        parts.append(_U8.pack(arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype=_F8))
    framing.write_framed(path, MAGIC, parts)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    r = framing.read_framed(path, MAGIC)
    (cfg_len,) = r.unpack(_U32, "config length")
    try:
        config = json.loads(r.text(cfg_len, "config"))
    except json.JSONDecodeError as exc:
        raise HeaderError(f"{path}: unreadable config block: {exc}") from exc
    (n_params,) = r.unpack(_U32, "parameter count")

    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = r.unpack(_U16, "name length")
        name = r.text(name_len, "name")
        (rank,) = r.unpack(_U8, "rank")
        shape = r.unpack(struct.Struct(f"<{rank}Q"), "shape")
        if name in params:
            raise HeaderError(f"{path}: parameter {name!r} appears twice")
        params[name] = r.array(_F8, shape, f"payload of {name!r}")
        # a NaN in the head would score as a silent 0, and one in the layers
        # fail deep in the forward as a numerical error
        if not np.isfinite(params[name]).all():
            raise HeaderError(f"{path}: parameter {name!r} holds a non-finite value")
    r.done()
    return config, params
