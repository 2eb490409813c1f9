"""The one way an output file reaches disk.

Every writer hands its bytes to `write_file` as an iterable of chunks. They
go into a temporary file next to the target, which is renamed over the
target only once the last chunk is written. A run that dies mid-write
therefore leaves the target's previous bytes (or no file) and no
temporary file, never a truncated output.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


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
