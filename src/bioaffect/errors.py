"""Exception types shared across the toolkit, and the checked binary field reader."""

import struct


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
    """Reads the consecutive fields of a binary file, one length check each.

    A field that runs past the end of the file, a string that is not
    UTF-8, or bytes left after the last field raise a CorruptionError
    that names the path, the field and the byte offset.
    """

    def __init__(self, path, blob: bytes):
        self.path = path
        self.blob = blob
        self.offset = 0

    def take(self, nbytes: int, field: str) -> bytes:
        start = self.offset
        if start + nbytes > len(self.blob):
            raise CorruptionError(
                f"{self.path}: truncated at byte offset {start}: {field} needs {nbytes} "
                f"bytes, {len(self.blob) - start} remain"
            )
        self.offset = start + nbytes
        return self.blob[start : self.offset]

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
        if self.offset != len(self.blob):
            raise CorruptionError(
                f"{self.path}: {len(self.blob) - self.offset} trailing bytes at byte "
                f"offset {self.offset} after the last {last}"
            )
