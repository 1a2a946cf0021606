"""Corruption sweeps over both framed formats: MBAG1 bags and MICO1 checkpoints.

Every single-bit flip and every truncation of a valid file must raise a
`FileFormatError`, and the CRC is checked before any field is parsed. Bags
with random headers round-trip bit for bit, and a write that fails part way
leaves the old file or none.
"""

import errno
import json
import os
import struct
import tempfile
import zlib
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mico import checkpoint, data, framing
from mico.checkpoint import load_checkpoint, save_checkpoint
from mico.data import (FeatureBag, StreamedBag, SynthConfig, generate, read_bag, read_dataset,
                       write_bag)
from mico.errors import ChecksumError, DataError, HeaderError, TruncationError
from mico.losses import SubtypeLabel, SurvivalLabel
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


# ---------------------------------------------------------------------------
# bags with random headers: every field offset moves with the id and the sizes


@st.composite
def random_bags(draw):
    M, d = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # any finite bit pattern: subnormals, -0.0 and the largest magnitudes too
    features = rng.integers(0, 2 ** 64, (M, d), dtype=np.uint64).view(np.float64)
    features[~np.isfinite(features)] = 0.0
    if draw(st.booleans()):
        label = SurvivalLabel(time=draw(st.floats(0.0, 1e300)), event=draw(st.booleans()))
    else:
        label = SubtypeLabel(class_index=draw(st.integers(0, 2 ** 31 - 1)))
    return FeatureBag(
        bag_id=draw(st.text(max_size=40)), features=features, label=label,
        coords=rng.standard_normal((M, 2)) if draw(st.booleans()) else None,
        true_type_map=(rng.integers(-2 ** 31, 2 ** 31, M, dtype=np.int32)
                       if draw(st.booleans()) else None))


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_read_only(a):
    with pytest.raises(ValueError, match="read-only"):
        a[...] = 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(bag=random_bags(), flip_at=st.floats(0.0, 1.0, exclude_max=True), flip=st.integers(1, 255))
def test_random_headers_round_trip_and_any_flipped_byte_fails_the_crc(bag, flip_at, flip):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.mbag")
        write_bag(bag, path)
        got = read_bag(path)
        assert got.bag_id == bag.bag_id and got.label == bag.label
        for name in ("features", "coords", "true_type_map"):
            arr = getattr(got, name)
            assert same_bits(arr, getattr(bag, name)), name
            if arr is not None:
                assert_read_only(arr)

        with open(os.path.join(tmp, "manifest.txt"), "w") as f:
            f.write("b.mbag\n")
        (kept,) = read_dataset(tmp)
        assert kept.bag_id == bag.bag_id and kept.label == bag.label
        assert same_bits(kept.features, bag.features)
        assert kept.coords is None and kept.true_type_map is None
        assert_read_only(kept.features)
        with mock.patch.object(data, "RESIDENT_BYTES", 0):
            (streamed,) = read_dataset(tmp)
        assert isinstance(streamed, StreamedBag)
        assert same_bits(streamed.features, bag.features)
        assert_read_only(streamed.features)

        with open(path, "rb") as f:
            raw = bytearray(f.read())
        at = len(data.MAGIC) + int(flip_at * (len(raw) - len(data.MAGIC)))
        raw[at] ^= flip
        with open(path, "wb") as f:
            f.write(raw)
        for read in (read_bag, lambda p: read_bag(p, metadata=False)):
            with pytest.raises(ChecksumError):
                read(path)
        with pytest.raises(ChecksumError):
            read_dataset(tmp)


def test_skipped_sections_are_still_held_to_their_lengths(tmp_path):
    write_small_bag(tmp_path / "f.bin")
    body = (tmp_path / "f.bin").read_bytes()[len(data.MAGIC):-4]
    for blob, error in ((body + b"\0", HeaderError), (body[:-1], TruncationError)):
        framing.write_framed(str(tmp_path / "b.mbag"), data.MAGIC, [blob])
        for metadata in (True, False):
            with pytest.raises(error):
                read_bag(str(tmp_path / "b.mbag"), metadata=metadata)


# ---------------------------------------------------------------------------
# atomic writes


class FailingFile:
    """A file that takes ``budget`` bytes (characters in text mode), writes
    the part of the next write that fits, and then raises as a full disk
    would."""

    def __init__(self, f, budget):
        self._f, self._left = f, budget

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        if len(data) > self._left:
            self._f.write(data[:self._left])
            self._left = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._left -= len(data)
        return self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def write_text(path):
    with framing.open_atomic(str(path)) as f:
        for line in ("anchors,auc_mean,auc_std\n", "4,0.5,0.1\n", "8,0.75,0.125\n"):
            f.write(line)


def write_checkpoint_of(seed):
    def write(path):
        model = MicoModel(MicoConfig(d=2, anchors=2, layers=1, task="subtype"),
                          rng=np.random.default_rng(seed))
        save_checkpoint(str(path), asdict(model.config), model.state_arrays())
    return write


def write_bag_of(seed):
    bag = generate(SynthConfig(n_bags=1, d=3, seed=seed, task="survival",
                               m_range=(4, 4), n_prototypes=2, dispersion=2))[0]
    return lambda path: write_bag(bag, str(path))


@pytest.mark.parametrize("old,new", [
    (write_bag_of(1), write_bag_of(2)),
    (write_checkpoint_of(1), write_checkpoint_of(2)),
    (lambda path: path.write_text("old\n"), write_text),
], ids=["bag", "checkpoint", "text"])
def test_a_write_that_fails_after_k_bytes_leaves_the_old_file_or_none(tmp_path, monkeypatch,
                                                                      old, new):
    new(tmp_path / "want")
    want = (tmp_path / "want").read_bytes()
    old(tmp_path / "old")
    before = (tmp_path / "old").read_bytes()
    budget = [0]

    def failing_open(file, mode="r", **kw):
        f = open(file, mode, **kw)
        return f if "r" in mode else FailingFile(f, budget[0])

    monkeypatch.setattr(framing, "open", failing_open, raising=False)
    for k in range(len(want)):
        budget[0] = k
        for had_old in (True, False):
            work = tmp_path / f"k{k}-{had_old}"
            work.mkdir()
            if had_old:
                (work / "f").write_bytes(before)
            with pytest.raises(OSError, match="No space left"):
                new(work / "f")
            assert os.listdir(work) == (["f"] if had_old else [])
            if had_old:
                assert (work / "f").read_bytes() == before
    budget[0] = len(want)
    new(tmp_path / "old")
    assert (tmp_path / "old").read_bytes() == want
    assert {p.name for p in tmp_path.iterdir() if p.is_file()} == {"old", "want"}


def test_an_atomic_write_gets_the_mode_a_plain_open_gives(tmp_path):
    umask = os.umask(0o027)
    try:
        with framing.open_atomic(str(tmp_path / "atomic")) as f:
            f.write("x")
        with open(tmp_path / "plain", "w") as f:
            f.write("x")
    finally:
        os.umask(umask)
    modes = {os.stat(tmp_path / name).st_mode & 0o777 for name in ("atomic", "plain")}
    assert modes == {0o640}


def test_an_atomic_write_through_a_symlink_replaces_the_file_it_names(tmp_path):
    (tmp_path / "real.txt").write_text("old\n")
    (tmp_path / "link.txt").symlink_to("real.txt")
    with framing.open_atomic(str(tmp_path / "link.txt")) as f:
        f.write("new\n")
    assert (tmp_path / "link.txt").is_symlink()
    assert (tmp_path / "real.txt").read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]
