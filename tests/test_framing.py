"""Corruption sweeps over both framed formats: MBAG1 bags and MICO1 checkpoints.

Every single-bit flip and every truncation of a valid file must raise a
`FileFormatError`, and the CRC is checked before any field is parsed.
"""

import json
import struct
import zlib
from dataclasses import asdict

import numpy as np
import pytest

from mico import checkpoint, data, framing
from mico.checkpoint import load_checkpoint, save_checkpoint
from mico.data import SynthConfig, generate, read_bag, write_bag
from mico.errors import ChecksumError, DataError, HeaderError, TruncationError
from mico.model import MicoConfig, MicoModel


def write_small_bag(path):
    bag = generate(SynthConfig(n_bags=1, d=3, seed=5, task="survival",
                               m_range=(4, 4), n_prototypes=2, dispersion=2))[0]
    assert bag.coords is not None and bag.true_type_map is not None
    write_bag(bag, str(path))


def write_small_checkpoint(path):
    model = MicoModel(MicoConfig(d=2, anchors=2, layers=1, task="subtype"),
                      rng=np.random.default_rng(0))
    save_checkpoint(str(path), asdict(model.config), model.state_arrays())


FORMATS = {
    "bag": (write_small_bag, read_bag, data.MAGIC),
    "checkpoint": (write_small_checkpoint, load_checkpoint, checkpoint.MAGIC),
}


def raised(reader, path):
    try:
        reader(str(path))
    except Exception as exc:  # the sweep reports any escaping type
        return type(exc)
    return None


@pytest.fixture(params=sorted(FORMATS))
def framed_file(request, tmp_path):
    writer, reader, magic = FORMATS[request.param]
    path = tmp_path / "f.bin"
    writer(path)
    return path, path.read_bytes(), reader, magic


def test_every_bit_flip_raises_header_or_checksum_error(framed_file):
    path, raw, reader, magic = framed_file
    wrong = []
    for i in range(len(raw)):
        for bit in (0, 7):
            blob = bytearray(raw)
            blob[i] ^= 1 << bit
            path.write_bytes(bytes(blob))
            want = HeaderError if i < len(magic) else ChecksumError
            got = raised(reader, path)
            if got is not want:
                wrong.append((i, bit, got))
    assert wrong == []


def test_every_truncation_raises_file_format_error(framed_file):
    path, raw, reader, magic = framed_file
    wrong = []
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        want = TruncationError if n < len(magic) + 4 else ChecksumError
        got = raised(reader, path)
        if got is not want:
            wrong.append((n, got))
    assert wrong == []


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def test_invalid_utf8_bag_id_with_valid_crc_raises_header_error(tmp_path):
    path = tmp_path / "b.mbag"
    write_small_bag(path)
    blob = bytearray(path.read_bytes()[:-4])
    blob[len(data.MAGIC) + 2] = 0xFF  # first byte of the bag id
    path.write_bytes(with_crc(bytes(blob)))
    with pytest.raises(HeaderError):
        read_bag(str(path))


def test_invalid_utf8_parameter_name_with_valid_crc_raises_header_error(tmp_path):
    path = tmp_path / "m.mico"
    write_small_checkpoint(path)
    blob = bytearray(path.read_bytes()[:-4])
    blob[blob.index(b"head.w")] = 0xFF
    path.write_bytes(with_crc(bytes(blob)))
    with pytest.raises(HeaderError):
        load_checkpoint(str(path))


@pytest.mark.parametrize("reader", [read_bag, load_checkpoint], ids=["bag", "checkpoint"])
def test_missing_file_raises_data_error(tmp_path, reader):
    with pytest.raises(DataError):
        reader(str(tmp_path / "absent"))


def checkpoint_body(params) -> bytes:
    """The body of a MICO1 checkpoint holding ``params``, a list of
    (name, shape, payload bytes), written field by field so that a test
    can declare what `save_checkpoint` never would."""
    cfg = b"{}"
    parts = [struct.pack("<I", len(cfg)), cfg, struct.pack("<I", len(params))]
    for name, shape, payload in params:
        nb = name.encode("utf-8")
        parts += [struct.pack("<H", len(nb)), nb, struct.pack("<B", len(shape)),
                  struct.pack(f"<{len(shape)}Q", *shape), payload]
    return b"".join(parts)


@pytest.mark.parametrize("shape", [(0, 2 ** 62), (2 ** 62, 0), (0, 2 ** 64 - 1), (1,) * 65],
                         ids=["0x2^62", "2^62x0", "0x2^64-1", "rank65"])
def test_impossible_parameter_shape_with_valid_crc_raises_header_error(tmp_path, shape):
    # the payload these shapes declare fits the file; NumPy cannot hold the array
    payload = b"" if 0 in shape else struct.pack("<d", 1.0)
    path = tmp_path / "m.mico"
    framing.write_framed(str(path), checkpoint.MAGIC, [checkpoint_body([("w", shape, payload)])])
    with pytest.raises(HeaderError, match="shape"):
        load_checkpoint(str(path))


def test_repeated_parameter_name_with_valid_crc_raises_header_error(tmp_path):
    one = struct.pack("<d", 1.0)
    path = tmp_path / "m.mico"
    framing.write_framed(str(path), checkpoint.MAGIC,
                         [checkpoint_body([("w", (1,), one), ("b", (1,), one), ("w", (1,), one)])])
    with pytest.raises(HeaderError, match="'w' appears twice"):
        load_checkpoint(str(path))


def test_declared_features_beyond_the_file_raise_truncation_error(tmp_path):
    # M = d = 2^32 - 1 rows of float64 with valid CRC: far more than the body holds
    bag_id = b"b"
    body = (struct.pack("<H", len(bag_id)) + bag_id + struct.pack("<II", 2 ** 32 - 1, 2 ** 32 - 1)
            + struct.pack("<Bi", data._KIND_SUBTYPE, 0) + struct.pack("<B", 0))
    path = tmp_path / "b.mbag"
    framing.write_framed(str(path), data.MAGIC, [body])
    with pytest.raises(TruncationError, match="features"):
        read_bag(str(path))


def joined_then_written(magic: bytes, parts: list[bytes]) -> bytes:
    body = b"".join(parts)
    return magic + body + struct.pack("<I", zlib.crc32(body, zlib.crc32(magic)))


def test_streamed_writes_have_the_bytes_of_a_joined_body(tmp_path):
    """`write_framed` writes and checksums its parts one by one; a checkpoint
    and a bag keep the bytes of their body joined first, as the writers below
    built it with ``tobytes`` and ``b"".join``."""
    model = MicoModel(MicoConfig(d=5, anchors=4, layers=2, task="survival"),
                      rng=np.random.default_rng(4))
    config = dict(asdict(model.config), fold=1, bin_edges=[0.5, 2.5, 4.0])
    params = {name: p.data for name, p in model.params.items()}
    path = tmp_path / "m.mico"
    save_checkpoint(str(path), config, params)
    cfg = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [struct.pack("<I", len(cfg)), cfg, struct.pack("<I", len(params))]
    for name, arr in params.items():
        nb = name.encode("utf-8")
        parts += [struct.pack("<H", len(nb)), nb, struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}Q", *arr.shape),
                  np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    assert path.read_bytes() == joined_then_written(checkpoint.MAGIC, parts)

    path = tmp_path / "b.mbag"
    write_small_bag(path)
    bag = read_bag(str(path))
    write_bag(bag, str(path))
    bid = bag.bag_id.encode("utf-8")
    parts = [struct.pack("<H", len(bid)), bid, struct.pack("<II", *bag.features.shape),
             struct.pack("<B", data._KIND_SURVIVAL),
             struct.pack("<dBi", bag.label.time, int(bag.label.event), -1),
             struct.pack("<B", 3),
             np.ascontiguousarray(bag.features, dtype="<f8").tobytes(),
             np.ascontiguousarray(bag.coords, dtype="<f8").tobytes(),
             np.ascontiguousarray(bag.true_type_map, dtype="<i4").tobytes()]
    assert path.read_bytes() == joined_then_written(data.MAGIC, parts)
