"""The one way a file's text is read, and the one way an output reaches disk.

Reads decode bytes here and nowhere else: a byte outside the file's
encoding, malformed JSON or an unknown config field raises a typed error
naming the file, and the line where there is one.

Every writer hands its bytes to `write_file` as an iterable of chunks. They
go into a temporary file next to the target, which is renamed over the
target only once the last chunk is written. A run that dies mid-write
therefore leaves the target's previous bytes (or no file) and no
temporary file, never a truncated output.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

from .errors import ConfigError, ParseError


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
