"""The one way a file's text is read, the one way a binary file's fields
are read, and the one way an output reaches disk.

Reads decode bytes here and nowhere else: a byte outside the file's
encoding, malformed JSON or an unknown config field raises a typed error
naming the file, and the line where there is one. A binary field that is
cut short or holds a value its type refuses raises a CorruptionError
naming the file and the field's byte offset (`BlobReader`).

Every writer hands its bytes to `write_file` as an iterable of chunks. They
go into a temporary file next to the target, which is renamed over the
target only once the last chunk is written. A run that dies mid-write
therefore leaves the target's previous bytes (or no file) and no
temporary file, never a truncated output.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptionError, IngestError, ParseError, ValidationError

# Floats `BlobReader.finite_floats` reads and tests at a time: 256 KB, which
# stays in a core's cache between the read and the test.
_BLOCK = 1 << 15
_U16 = struct.Struct("<H")


def _decode(path, raw: bytes, encoding: str, lineno: int = 1) -> str:
    """`raw`, which starts on file line `lineno`, decoded as `encoding`."""
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as exc:
        line = lineno + raw.count(b"\n", 0, exc.start)
        raise ParseError(f"{path}:{line}: byte {raw[exc.start]:#04x} is not {encoding}") from None


def read_lines(path, header: str | None = None, encoding: str = "ascii"):
    """Yield `(file line number, stripped line)` for each non-blank line.

    Lines end at `\n`, `\r\n` or `\r`, as in text mode. With a `header`,
    line 1 must be exactly that (stripped) and is not yielded. Each line is
    decoded on its own, so a bad byte is reported at its own line.
    """
    numbered = enumerate(Path(path).read_bytes().splitlines() or [b""], start=1)
    if header is not None:
        got = _decode(path, next(numbered)[1], encoding).strip()
        if got != header:
            raise ParseError(f"{path}:1: expected header {header!r}, got {got!r}")
    for lineno, raw in numbered:
        line = _decode(path, raw, encoding, lineno).strip()
        if line:
            yield lineno, line


def read_json_lines(path):
    """Yield `(file line number, value)` for each non-blank line of a JSON-lines file."""
    for lineno, line in read_lines(path, encoding="utf-8"):
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
        yield lineno, value


def read_json(path) -> dict:
    """The JSON object that makes up a UTF-8 file."""
    try:
        obj = json.loads(_decode(path, Path(path).read_bytes(), "utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def build_config(cls, path, obj: dict | None = None):
    """Config dataclass `cls` from the JSON object in `path` (or `obj`, already read from it).

    An unknown field, or a value the constructor rejects, raises a
    ConfigError that names the file.
    """
    obj = read_json(path) if obj is None else obj
    unknown = sorted(set(obj) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {', '.join(map(repr, unknown))}")
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_file(path, chunks) -> None:
    """Replace `path` whole with the concatenated bytes `chunks`."""
    path = Path(path)
    # Created by `open`, not `mkstemp`, so the file gets the mode the umask
    # gives any new output (mkstemp's is 0600).
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Pretty, key-sorted JSON with a trailing newline."""
    write_file(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def write_lines(path, lines) -> None:
    """Text lines, each ended by a newline."""
    write_file(path, [("\n".join(lines) + "\n").encode("utf-8")])


def _named(field) -> str:
    """A `BlobReader` field name, given as itself or as the function that returns it."""
    return field() if callable(field) else field


class BlobReader:
    """Reads the consecutive fields of an open binary file, one length check each.

    Fields are read from the file as they are asked for, never from a copy
    of the whole file; `floats` and `finite_floats` read an array's bytes
    straight into its buffer, allocated only once the field's length is
    checked. The file size comes from `fstat` (kept as `stat`), so a field's
    length is checked before it is read. A field that runs past the end of
    the file (by its size, or because the file ended sooner when read), a
    string that is not UTF-8, or bytes left after the last field raise a
    CorruptionError that names the path, the field and the byte offset. The
    caller opens the file, in binary mode and buffered or not, seeks to the
    first field and closes it. A field's name may be given as a function of
    no arguments that returns it, so that only an error pays for its
    formatting.
    """

    def __init__(self, path, file):
        self.path = path
        self.file = file
        self.stat = os.fstat(file.fileno())
        self.size = self.stat.st_size
        self.offset = file.tell()

    def _truncated(self, start: int, nbytes: int, field, remain: int) -> CorruptionError:
        return CorruptionError(
            f"{self.path}: truncated at byte offset {start}: {_named(field)} needs {nbytes} "
            f"bytes, {remain} remain"
        )

    def _claim(self, nbytes: int, field) -> int:
        """Advance past the next `nbytes`, if they remain; returns where they start."""
        start = self.offset
        if start + nbytes > self.size:
            raise self._truncated(start, nbytes, field, self.size - start)
        self.offset = start + nbytes
        return start

    def _fill(self, buffer) -> int:
        """Read into `buffer` until it is full or the file ends; the bytes read.

        An unbuffered file may return fewer bytes than asked although more
        follow, so one short read is not taken for the end of the file.
        """
        view = memoryview(buffer).cast("B")
        got = 0
        while got < view.nbytes:
            n = self.file.readinto(view[got:])
            if not n:
                break
            got += n
        return got

    def take(self, nbytes: int, field) -> bytes:
        start = self._claim(nbytes, field)
        data = bytearray(nbytes)
        got = self._fill(data)
        if got != nbytes:
            raise self._truncated(start, nbytes, field, got)
        return bytes(data)

    def floats(self, shape: tuple, field: str, out: np.ndarray | None = None) -> np.ndarray:
        """The next little-endian float64 array of `shape`, read straight into
        `out` (a C-contiguous float64 array of that shape, which a caller can
        reuse for fields it does not keep), or else into a new array."""
        nbytes = 8 * math.prod(shape)
        start = self._claim(nbytes, field)
        arr = np.empty(shape, dtype="<f8") if out is None else out
        got = self._fill(arr)
        if got != nbytes:
            raise self._truncated(start, nbytes, field, got)
        return arr

    def checked_floats(self, build, shape: tuple, field: str, out: np.ndarray | None = None):
        """`build` of the next array, as `floats` reads it; a ValidationError or
        IngestError from `build` becomes a CorruptionError naming the field's offset."""
        start = self.offset
        try:
            return build(self.floats(shape, field, out))
        except (ValidationError, IngestError) as exc:
            raise CorruptionError(f"{self.path}: {field} at byte offset {start}: {exc}") from None

    def finite_floats(self, fields: list) -> list:
        """The next float64 arrays, one per `(shape, field)`, as consecutive
        views of one new array, read into it `_BLOCK` floats at a time.

        Every length is checked before the first read. A read that comes
        back short names the field it stopped in, as `floats` would field by
        field. A NaN or infinite value raises a CorruptionError that names
        its field and byte offset: each block is tested right after it is
        read, while it is still in cache, by its sum of squares, which is
        finite whenever every value is and its squares do not overflow (only
        then is each value tested).
        """
        starts, bounds = [], [0]  # field k holds floats bounds[k]:bounds[k + 1]
        for shape, field in fields:
            n = math.prod(shape)
            starts.append(self._claim(8 * n, field))
            bounds.append(bounds[-1] + n)
        flat = np.empty(bounds[-1], dtype="<f8")
        with np.errstate(over="ignore", under="ignore"):
            for lo in range(0, flat.size, _BLOCK):
                block = flat[lo : lo + _BLOCK]
                got = self._fill(block)
                if got != 8 * block.size:
                    k = bisect.bisect_right(bounds, lo + got // 8) - 1
                    raise self._truncated(starts[k], 8 * (bounds[k + 1] - bounds[k]),
                                          fields[k][1], 8 * (lo - bounds[k]) + got)
                if not np.isfinite(block @ block) and not np.isfinite(block).all():
                    i = lo + int(np.flatnonzero(~np.isfinite(block))[0])
                    k = bisect.bisect_right(bounds, i) - 1
                    raise CorruptionError(
                        f"{self.path}: {_named(fields[k][1])}: non-finite value {flat[i]} "
                        f"at byte offset {starts[k] + 8 * (i - bounds[k])}"
                    )
        return [flat[a:b].reshape(shape) for (shape, _), a, b in zip(fields, bounds, bounds[1:])]

    def unpack(self, fmt: str, field) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def text(self, field: str) -> str:
        """A u16 byte count, then that many bytes of UTF-8."""
        (n,) = _U16.unpack(self.take(2, lambda: f"{field} length"))
        start = self.offset
        try:
            return self.take(n, field).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError(
                f"{self.path}: {field} is not UTF-8 at byte offset {start + exc.start}"
            ) from None

    def finish(self, last: str) -> None:
        """Reject bytes after the last field; `last` names what came before them."""
        if self.offset != self.size:
            raise CorruptionError(
                f"{self.path}: {self.size - self.offset} trailing bytes at byte "
                f"offset {self.offset} after the last {last}"
            )
