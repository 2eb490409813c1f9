"""Exception types shared across the toolkit, and the checked binary field reader."""

import math
import os
import struct

import numpy as np


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
    of the whole file; `floats` reads an array's bytes straight into its
    slice of one buffer. The file size comes from `fstat`, so a field's
    length is checked before it is read. A field that runs past the end of
    the file (or a read that comes back short), a string that is not UTF-8,
    or bytes left after the last field raise a CorruptionError that names
    the path, the field and the byte offset. The caller opens the file, in
    binary mode, and closes it.
    """

    def __init__(self, path, file):
        self.path = path
        self.file = file
        self.size = os.fstat(file.fileno()).st_size
        self.offset = 0
        self._arena = None

    def _truncated(self, start: int, nbytes: int, field: str, remain: int) -> CorruptionError:
        return CorruptionError(
            f"{self.path}: truncated at byte offset {start}: {field} needs {nbytes} "
            f"bytes, {remain} remain"
        )

    def _claim(self, nbytes: int, field: str) -> int:
        """Advance past the next `nbytes`, if they remain; returns where they start."""
        start = self.offset
        if start + nbytes > self.size:
            raise self._truncated(start, nbytes, field, self.size - start)
        self.offset = start + nbytes
        return start

    def take(self, nbytes: int, field: str) -> bytes:
        start = self._claim(nbytes, field)
        data = self.file.read(nbytes)
        if len(data) != nbytes:
            raise self._truncated(start, nbytes, field, len(data))
        return data

    def floats(self, shape: tuple, field: str) -> np.ndarray:
        """The next little-endian float64 array of `shape`, read straight into its buffer.

        The buffer is the next slice of one arena of `size // 8` floats,
        allocated on the first call (every float field fits in it, since
        each takes its own bytes of the file). So a file's arrays are views
        that cost one allocation together, not one each.
        """
        nbytes = 8 * math.prod(shape)
        start = self._claim(nbytes, field)
        if self._arena is None:
            self._arena = np.empty(self.size // 8, dtype="<f8")
        arr = self._arena[: nbytes // 8].reshape(shape)
        self._arena = self._arena[nbytes // 8 :]
        got = self.file.readinto(arr)
        if got != nbytes:
            raise self._truncated(start, nbytes, field, got)
        return arr

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def text(self, field: str) -> str:
        """A u16 byte count, then that many bytes of UTF-8."""
        (n,) = self.unpack("<H", f"{field} length")
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
