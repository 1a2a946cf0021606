"""Framing shared by the package's binary files (MBAG1 bags, MICO1 checkpoints).

A framed file is ``magic + body + u32 CRC32``, the little-endian CRC taken
over magic and body. `read_framed` checks the magic, then the CRC, and only
then hands out a `Reader` over the body, so a damaged byte anywhere in the
file raises `ChecksumError` before any field is parsed. Callers describe
only their own fields.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import ChecksumError, DataError, HeaderError, TruncationError

_CRC = struct.Struct("<I")


def write_framed(path: str, magic: bytes, parts) -> None:
    """Write ``magic``, the body and the CRC. The body is ``parts``, a
    sequence of C-contiguous buffers (bytes, or arrays in their file byte
    order) written one after another, so no joined copy of it is made."""
    crc = zlib.crc32(magic)
    with open(path, "wb") as f:
        f.write(magic)
        for part in parts:
            f.write(part)
            crc = zlib.crc32(part, crc)
        f.write(_CRC.pack(crc))


def read_framed(path: str, magic: bytes) -> "Reader":
    """Read and verify a framed file; a missing or unreadable file is a
    `DataError`, a damaged one a `FileFormatError`."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot read file: {exc.strerror or exc}") from exc
    # a file that is a prefix of the magic was cut short, not mislabelled
    if raw[:len(magic)] != magic[:len(raw)]:
        raise HeaderError(f"{path}: bad magic bytes, expected {magic!r}")
    if len(raw) < len(magic) + _CRC.size:
        raise TruncationError(f"{path}: file shorter than magic + checksum")
    view = memoryview(raw)
    (crc_stored,) = _CRC.unpack(view[-_CRC.size:])
    if zlib.crc32(view[:-_CRC.size]) != crc_stored:
        raise ChecksumError(f"{path}: CRC32 mismatch")
    return Reader(view[len(magic):-_CRC.size], path)


class Reader:
    """Bounds-checked cursor over the verified body of a framed file."""

    def __init__(self, body: memoryview, path: str):
        self._body = body
        self._off = 0
        self._path = path

    def _take(self, n: int, what: str) -> memoryview:
        if self._off + n > len(self._body):
            raise TruncationError(f"{self._path}: truncated while reading {what}")
        out = self._body[self._off:self._off + n]
        self._off += n
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self._take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        try:
            return str(self._take(n, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise HeaderError(f"{self._path}: {what} is not valid UTF-8") from exc

    def array(self, dtype: str, shape: tuple[int, ...], what: str) -> np.ndarray:
        dt = np.dtype(dtype)
        raw = self._take(math.prod(shape) * dt.itemsize, what)
        try:
            # an empty array may still declare dimensions NumPy cannot hold
            return np.frombuffer(raw, dtype=dt).reshape(shape).copy()
        except ValueError as exc:
            raise HeaderError(f"{self._path}: {what} has impossible shape {shape}") from exc

    def done(self) -> None:
        left = len(self._body) - self._off
        if left:
            raise HeaderError(f"{self._path}: {left} unexpected trailing bytes")
