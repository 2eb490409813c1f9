"""The one text reader and the one atomic writer: typed, located read errors;
whole files or the previous bytes, never a torn file."""

import ast
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from bioaffect import bmmn, files, params
from bioaffect.errors import ConfigError, IngestError, ParseError
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
# read_text(, any json.load(s)(, or an open( (builtin or a path's, not
# os.open) without a binary mode string: each decodes text outside files.py.
_READS = re.compile(r"""\.read_text\(|\bjson\.loads?\(""")
_TEXT_OPENS = re.compile(r"""(?<!\w)(?<!os\.)open\((?![^)]*["'][rwax+]*b[rwax+]*["'])""")


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


def record_opens(monkeypatch, module) -> list:
    """Record every file that `module` opens through the builtin `open`."""
    import builtins

    opened = []

    def recording_open(*args, **kwargs):
        f = builtins.open(*args, **kwargs)
        opened.append(f)
        return f

    monkeypatch.setattr(module, "open", recording_open, raising=False)
    return opened


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

    def test_cut_checkpoint_keeps_the_previous_model(self, tmp_path, monkeypatch):
        # The checkpoint goes first and model.json last, so a save cut inside
        # the checkpoint leaves the previous model's pair whole.
        previous = bmmn.BmmnModel.build_toy("bmmn", seed=1)
        bmmn.save_model(previous, tmp_path / "m")
        sample = bmmn.toy_sample(previous, np.random.default_rng(0))
        expected = previous.predict(sample).values
        monkeypatch.setattr(params, "write_file", cut_after(2))
        with pytest.raises(RuntimeError):
            bmmn.save_model(bmmn.BmmnModel.build_toy("bae2", seed=2), tmp_path / "m")
        assert sorted(os.listdir(tmp_path / "m")) == ["model.json", "params.ckpt"]
        got = bmmn.load_model(tmp_path / "m").predict(sample).values
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

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


def _source_lines_matching(pattern, skip=("files.py",)):
    """`(module, enclosing top-level def, "line: text")` for each match outside
    the modules in `skip` (by default files.py)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in skip:
            continue
        func = ""
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if line.startswith("def "):
                func = line[4 : line.index("(")]
            if pattern.search(line):
                found.append((path.name, func, f"{lineno}: {line.strip()}"))
    return found


def test_only_the_writer_module_writes_files():
    for line in ('open(tmp, "wb")', "open(p, mode='a')", "p.write_text(s)", "p.write_bytes(b)"):
        assert _WRITES.search(line), line
    assert not _WRITES.search('open(path, "r", encoding="ascii")')
    assert _source_lines_matching(_WRITES) == []


def test_only_the_files_module_reads_text():
    for line in ("p.read_text()", "json.loads(Path(p).read_text())", "json.load(fh)",
                 "obj = json.loads(line)"):
        assert _READS.search(line), line
    for line in ("p.read_bytes()", "json.dumps(obj)", "files.read_json(p)", "read_json_lines(p)"):
        assert not _READS.search(line), line
    for line in ('with open(path, "r", encoding="ascii") as fh:', "open(p)", "p.open()",
                 "open(p, mode='rt')", 'open(tmp, "w")'):
        assert _TEXT_OPENS.search(line), line
    for line in ('open(p, "rb")', "open(tmp, 'wb')", 'p.open(mode="rb")', "os.open(p, flags)",
                 "reopen(p)", "read_lines(p)"):
        assert not _TEXT_OPENS.search(line), line
    assert _source_lines_matching(_READS) == []
    # The signal CSV's block parse hands numpy its path (see the loadtxt rule
    # below) and checks the header in binary, so no text open is left.
    assert _source_lines_matching(_TEXT_OPENS) == []


def test_only_one_function_scales_eight_bit_pixels():
    # Frames stay uint8 from the PGM reader to the face crop; one division
    # by 255 turns them into floats, so no second scaling can creep in.
    # The crop calls it on the box of pixels it reads.
    pattern = re.compile(r"/\s*255\b")
    for line in ("image / 255.0", "x /255", "a.astype(np.float64) / 255"):
        assert pattern.search(line), line
    for line in ("x * 255.0", "x / 2550", "1 / 25", "maxval != 255"):
        assert not pattern.search(line), line
    found = _source_lines_matching(pattern, skip=())
    assert [(module, func) for module, func, _ in found] == [("signals.py", "_unit_pixels")]


def test_conv_blocks_use_the_one_bias_relu_node():
    # A conv block is one conv node with the bias-ReLU epilogue
    # (`bias_relu=b`); the `bias_relu` node and the two-node chain are only
    # for the engine itself and its gradient check.
    pattern = re.compile(r"\b(?:bias_relu|add_channel_bias)\(")
    for line in ("T.bias_relu(h, b)", "return bias_relu(x, b)", "T.add_channel_bias(h, b)",
                 "relu(add_channel_bias(x, bias))"):
        assert pattern.search(line), line
    for line in ("conv(h, w, bias_relu=b)", "_bias_relu_forward(op, pre, bias)",
                 "_channel_bias(op, x, bias)", '"add_channel_bias": case',
                 '"conv1d_valid_bias_relu": case'):
        assert not pattern.search(line), line
    found = _source_lines_matching(pattern, skip=("tensor.py", "gradcheck.py"))
    assert found == []


def _loadtxt_calls(source: str) -> list:
    """`(enclosing function, first argument, whether it is a path)` for each
    `np.loadtxt(` call in `source`. A path is a name the function binds to
    `Path(...)`; numpy reads only a path (a str or PathLike) in blocks, and
    anything else (an open file, a list of lines) one Python string a line."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        paths = {
            target.id for node in ast.walk(func) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "Path"
            for target in node.targets if isinstance(target, ast.Name)
        }
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.loadtxt":
                first = node.args[0] if node.args else None
                found.append((func.name, ast.unparse(first) if first else "",
                              isinstance(first, ast.Name) and first.id in paths))
    return found


def test_loadtxt_is_only_ever_given_a_path():
    line_at_a_time = (
        "def f(path):\n    path = Path(path)\n    with open(path) as fh:\n"
        "        fh.readline()\n        return np.loadtxt(fh, delimiter=',')\n"
    )
    assert _loadtxt_calls(line_at_a_time) == [("f", "fh", False)]
    assert _loadtxt_calls("def f(p):\n    return np.loadtxt(p)\n") == [("f", "p", False)]
    block = "def f(path):\n    path = Path(path)\n    return np.loadtxt(path, skiprows=1)\n"
    assert _loadtxt_calls(block) == [("f", "path", True)]
    calls = [(path.name, *call) for path in sorted(SRC.glob("*.py"))
             for call in _loadtxt_calls(path.read_text())]
    assert calls == [("session_io.py", "read_signal_csv", "path", True)]


@dataclass
class _Config:
    epochs: int = 1
    name: str = "a"

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")


class TestReaders:
    def test_lines_are_numbered_in_the_file_and_stripped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\r\n1,2\r\n\r\n \t \n 3,4 \n5,6\r7,8")
        assert list(files.read_lines(path, header="a,b")) == [
            (2, "1,2"), (5, "3,4"), (6, "5,6"), (7, "7,8")
        ]
        assert list(files.read_lines(path))[0] == (1, "a,b")

    @pytest.mark.parametrize("blob, where", [
        (b"x,y\n1,2\n", ":1: expected header 'a,b', got 'x,y'"),
        (b"", ":1: expected header 'a,b', got ''"),
        (b"a\xff,b\n1,2\n", ":1: byte 0xff is not ascii"),
        (b"a,b\n1,2\n\n3,\xe94\n", ":4: byte 0xe9 is not ascii"),
    ])
    def test_bad_header_or_byte_names_its_line(self, tmp_path, blob, where):
        path = tmp_path / "t.csv"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match=re.escape(f"t.csv{where}")):
            list(files.read_lines(path, header="a,b"))

    @pytest.mark.parametrize("blob, where", [
        (b'{"a": 1,\n "b": }\n', ":2:7: invalid JSON"),
        (b'{"a": 1}\n{}', ":2:1: invalid JSON: Extra data"),
        (b'{"a":\n "\xff"}', ":2: byte 0xff is not utf-8"),
        (b"[1, 2]", ": expected a JSON object, got list"),
    ])
    def test_bad_json_names_file_line_and_column(self, tmp_path, blob, where):
        path = tmp_path / "c.json"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match=re.escape(f"c.json{where}")):
            files.read_json(path)

    def test_json_lines_name_their_line(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text('{"a": 1}\n\n{"a": \n')
        with pytest.raises(ParseError, match=re.escape("l.jsonl:3: invalid JSON")):
            list(files.read_json_lines(path))

    def test_build_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"epochs": 3}')
        assert files.build_config(_Config, path) == _Config(epochs=3)
        assert files.build_config(_Config, path, {"name": "b"}) == _Config(name="b")

    @pytest.mark.parametrize("obj, message", [
        ({"epoch": 3, "zeta": 0}, "unknown field(s) 'epoch', 'zeta'"),
        ({"epochs": -1}, "epochs must be >= 0"),
        ({"epochs": "ten"}, "not supported between"),
    ])
    def test_build_config_errors_name_the_file(self, tmp_path, obj, message):
        with pytest.raises(ConfigError, match=re.escape(f"c.json: ") + ".*" + re.escape(message)):
            files.build_config(_Config, tmp_path / "c.json", obj)
