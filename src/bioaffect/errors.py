"""Exception types shared across the toolkit, and the checked binary field reader."""

import bisect
import math
import os
import struct

import numpy as np

# Floats `BlobReader.finite_floats` reads and tests at a time: 256 KB, which
# stays in a core's cache between the read and the test.
_BLOCK = 1 << 15
_U16 = struct.Struct("<H")


def _named(field) -> str:
    """A `BlobReader` field name, given as itself or as the function that returns it."""
    return field() if callable(field) else field


class BioaffectError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(BioaffectError, ValueError):
    """Array dimensions disagree with what an operation requires."""


class GraphError(BioaffectError, RuntimeError):
    """Misuse of the computation graph, a model, or optimizer state."""


class CorruptionError(BioaffectError, RuntimeError):
    """Recorded indices or serialized state are internally inconsistent."""


class ConfigError(BioaffectError, ValueError):
    """Invalid or unsupported configuration."""


class IngestError(BioaffectError, ValueError):
    """Input data cannot be ingested (missing channel, empty trace, bad crop)."""


class ParseError(BioaffectError, ValueError):
    """A data file is malformed; the message carries file and line context."""


class ValidationError(BioaffectError, ValueError):
    """A value is outside its documented range."""


class NonFiniteError(BioaffectError, FloatingPointError):
    """Training produced a NaN or infinite loss or gradient."""


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
    caller opens the file, in binary mode and buffered or not, and closes
    it. A field's name may be given as a function of no arguments that
    returns it, so that only an error pays for its formatting.
    """

    def __init__(self, path, file):
        self.path = path
        self.file = file
        self.stat = os.fstat(file.fileno())
        self.size = self.stat.st_size
        self.offset = 0

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
