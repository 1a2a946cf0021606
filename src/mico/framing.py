"""Framing shared by the package's binary files (MBAG1 bags, MICO1 checkpoints),
and the one way the package writes any file.

A framed file is ``magic + body + u32 CRC32``, the little-endian CRC taken
over magic and body. `read_framed` checks the magic, then the length, then
the CRC over the whole file, and only then hands out a `Reader` over the
verified bytes, so a damaged byte anywhere in the file raises `ChecksumError`
before any field is parsed. Callers describe only their own fields.

`open_atomic` writes a file under a temporary name in its directory and
renames it over the target once it is whole, so a write that fails part way
leaves the old file or none, never a partial one. A writer killed outright
leaves its temporary behind; `remove_temporaries` clears those of the
targets a caller owns.
"""

from __future__ import annotations

import math
import os
import re
import struct
import zlib
from contextlib import contextmanager

import numpy as np

from .errors import ChecksumError, DataError, HeaderError, TruncationError

_CRC = struct.Struct("<I")
# the CRC32 of any bytes followed by their own CRC32, little-endian, and of
# no other four bytes after them: one pass checks the stored CRC
_RESIDUE = 0x2144DF1C


@contextmanager
def open_atomic(path: str, mode: str = "w"):
    """Open a file for writing (``mode`` "w" or "wb") that replaces ``path``
    whole when the block ends, or is removed if the block raises. It gets
    the mode a plain ``open(path, "w")`` gives a new file, 0666 less the
    umask. A symlink at ``path`` is written through, as a plain open would.
    Nothing is synced to disk, so this guards against a failed or killed
    writer, not a power loss."""
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    # 12 hex digits, which remove_temporaries matches
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        f = open(tmp, mode.replace("w", "x"))
    except OSError as exc:
        # name the file the caller asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with f:
            yield f
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def remove_temporaries(directory: str, targets: str) -> None:
    """Remove from ``directory`` the temporaries that `open_atomic` writers
    killed outright left for targets whose names fully match the regular
    expression ``targets``. Every other file stays."""
    leftover = re.compile(rf"\.(?:{targets})\.[0-9a-f]{{12}}\.tmp")
    for name in os.listdir(directory):
        if leftover.fullmatch(name):
            os.unlink(os.path.join(directory, name))


def write_framed(path: str, magic: bytes, parts) -> None:
    """Write ``magic``, the body and the CRC. The body is ``parts``, a
    sequence of C-contiguous buffers (bytes, or arrays in their file byte
    order) written one after another, so no joined copy of it is made."""
    crc = zlib.crc32(magic)
    with open_atomic(path, "wb") as f:
        f.write(magic)
        for part in parts:
            f.write(part)
            crc = zlib.crc32(part, crc)
        f.write(_CRC.pack(crc))


def _read_whole(path: str) -> bytes:
    """A file's bytes, in one read call when its size holds still."""
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        raw = os.read(fd, size + 1)
        if len(raw) != size:
            # the size moved, or one read call could not return it all
            with open(fd, "rb", closefd=False) as f:
                raw += f.read()
        return raw
    finally:
        os.close(fd)


def read_framed(path: str, magic: bytes) -> "Reader":
    """Read and verify a framed file; a missing or unreadable file is a
    `DataError`, a damaged one a `FileFormatError`."""
    try:
        raw = _read_whole(path)
    except OSError as exc:
        raise DataError(f"{path}: cannot read file: {exc.strerror or exc}") from exc
    # a file that is a prefix of the magic was cut short, not mislabelled
    if not raw.startswith(magic) and not magic.startswith(raw):
        raise HeaderError(f"{path}: bad magic bytes, expected {magic!r}")
    end = len(raw) - _CRC.size
    if end < len(magic):
        raise TruncationError(f"{path}: file shorter than magic + checksum")
    if zlib.crc32(raw) != _RESIDUE:
        raise ChecksumError(f"{path}: CRC32 mismatch")
    return Reader(raw, len(magic), end, path)


class Reader:
    """Bounds-checked cursor over the verified body ``raw[start:end]`` of a
    framed file. Fields are parsed in place: integers with a caller's
    precompiled `struct.Struct`, arrays as one copy out of ``raw`` (or a view
    of it), and a section the caller does not keep is skipped after its
    length is checked."""

    def __init__(self, raw: bytes, start: int, end: int, path: str):
        self._raw = raw
        self._off = start
        self._end = end
        self._path = path

    def _take(self, n: int, what: str) -> int:
        """The offset of the next ``n`` bytes, which the cursor moves past."""
        off = self._off
        if n > self._end - off:
            raise TruncationError(f"{self._path}: truncated while reading {what}")
        self._off = off + n
        return off

    def unpack(self, fmt: struct.Struct, what: str) -> tuple:
        return fmt.unpack_from(self._raw, self._take(fmt.size, what))

    def text(self, n: int, what: str) -> str:
        off = self._take(n, what)
        try:
            return self._raw[off:off + n].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise HeaderError(f"{self._path}: {what} is not valid UTF-8") from exc

    def array(self, dtype: np.dtype, shape: tuple[int, ...], what: str, *,
              copy: bool = True) -> np.ndarray:
        """The next array, as a copy, or with ``copy=False`` as a read-only
        view of the verified bytes, which it keeps alive."""
        count = math.prod(shape)
        off = self._take(count * dtype.itemsize, what)
        try:
            # an empty array may still declare dimensions NumPy cannot hold
            view = np.frombuffer(self._raw, dtype, count, off).reshape(shape)
        except ValueError as exc:
            raise HeaderError(f"{self._path}: {what} has impossible shape {shape}") from exc
        return view.copy() if copy else view

    def skip(self, dtype: np.dtype, shape: tuple[int, ...], what: str) -> None:
        """Move past an array that `array` would read, checking only that the
        body holds it."""
        self._take(math.prod(shape) * dtype.itemsize, what)

    def done(self) -> None:
        left = self._end - self._off
        if left:
            raise HeaderError(f"{self._path}: {left} unexpected trailing bytes")
