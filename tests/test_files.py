"""The one atomic writer: whole files or the previous bytes, never a torn file."""

import os
import re
from pathlib import Path

import numpy as np
import pytest

from bioaffect import files, params
from bioaffect.errors import IngestError
from bioaffect.params import ParamStore, save_params
from bioaffect.session_io import write_samples
from bioaffect.signals import (
    SEGMENT_LEN,
    AffectLabel,
    BioSegment,
    Channel,
    FrameRecord,
    SyncedSample,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "bioaffect"

# write_text(, write_bytes(, or open( with a mode string that writes.
_WRITES = re.compile(r"""write_text\(|write_bytes\(|\bopen\([^)]*["'][rbt]*[wax+][rbt+]*["']""")


def cut_after(n_chunks):
    """A `write_file` whose chunk iterator raises after `n_chunks` chunks."""

    def write_file(path, chunks):
        def cut():
            for i, chunk in enumerate(chunks):
                if i == n_chunks:
                    raise RuntimeError("writer cut mid-file")
                yield chunk

        files.write_file(path, cut())

    return write_file


def _sample(face_shape):
    rng = np.random.default_rng(0)
    segments = {c: BioSegment(c, rng.uniform(0, 1, SEGMENT_LEN), 0)
                for c in (Channel.ECG, Channel.EDA)}
    face = FrameRecord(timestamp_s=0.5, image=rng.uniform(0, 1, face_shape))
    return SyncedSample(segments, face, AffectLabel(5.0, 5.0, 5.0), "p00", "p00_t00")


class TestWriteFile:
    def test_writes_chunks_with_the_umask_mode(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous contents")
        files.write_file(path, iter([b"ab", b"", b"cd"]))
        assert path.read_bytes() == b"abcd"
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_text_helpers(self, tmp_path):
        files.write_json(tmp_path / "a.json", {"b": 1, "a": [2]})
        assert (tmp_path / "a.json").read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
        files.write_lines(tmp_path / "a.csv", (f"{i},x" for i in range(2)))
        assert (tmp_path / "a.csv").read_text() == "0,x\n1,x\n"

    @pytest.mark.parametrize("existing", [b"previous contents", None])
    def test_a_failing_chunk_leaves_the_previous_bytes(self, tmp_path, existing):
        path = tmp_path / "out.bin"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(RuntimeError):
            cut_after(1)(path, iter([b"new", b"bytes"]))
        assert (path.read_bytes() if path.exists() else None) == existing
        assert os.listdir(tmp_path) == (["out.bin"] if existing else [])


class TestCutWriters:
    def test_save_params_cut_partway(self, tmp_path, monkeypatch):
        store = ParamStore(rng_seed=1)
        store.create("a", (3, 4))
        store.create("b", (5,))
        path = tmp_path / "params.ckpt"
        path.write_bytes(b"previous checkpoint")
        monkeypatch.setattr(params, "write_file", cut_after(2))  # header, then "a"
        with pytest.raises(RuntimeError):
            save_params(store, path)
        assert path.read_bytes() == b"previous checkpoint"
        assert os.listdir(tmp_path) == ["params.ckpt"]

    def test_write_samples_cut_by_a_bad_sample(self, tmp_path):
        # The second sample's face is not square, which the record format
        # cannot hold: the first sample is already streamed out by then.
        path = tmp_path / "samples.bin"
        sidecar = tmp_path / "samples.bin.json"
        path.write_bytes(b"previous samples")
        sidecar.write_text("{}\n")
        with pytest.raises(IngestError, match="square"):
            write_samples(path, [_sample((16, 16)), _sample((16, 8))])
        assert path.read_bytes() == b"previous samples"
        assert sidecar.read_text() == "{}\n"
        assert sorted(os.listdir(tmp_path)) == ["samples.bin", "samples.bin.json"]


def test_only_the_writer_module_writes_files():
    for line in ('open(tmp, "wb")', "open(p, mode='a')", "p.write_text(s)", "p.write_bytes(b)"):
        assert _WRITES.search(line), line
    assert not _WRITES.search('open(path, "r", encoding="ascii")')
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if _WRITES.search(line)
    ]
    assert offenders == []
