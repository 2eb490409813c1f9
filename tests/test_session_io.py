"""File formats: session CSV/PGM/JSONL parsing and the processed container."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bioaffect import session_io, synth
from bioaffect.errors import CorruptionError, IngestError, ParseError, ValidationError
from bioaffect.session_io import (
    list_sessions,
    load_session,
    read_pgm,
    read_samples,
    read_signal_csv,
    session_samples,
    write_pgm,
    write_samples,
    write_signal_csv,
)
from bioaffect.signals import (
    MODEL_HZ,
    SEGMENT_LEN,
    AffectLabel,
    BioSegment,
    Channel,
    FrameRecord,
    SignalTrace,
    SyncedSample,
    label_targets,
    rescale,
    resample,
    synchronize,
)

from test_files import record_opens


def write_minimal_session(root, session="p00_t00", subject="p00", n_samples=4000,
                          hz=128.0, n_frames=3, valence=5.0):
    rng = np.random.default_rng(0)
    session_dir = root / session
    frames_dir = session_dir / "frames"
    frames_dir.mkdir(parents=True)
    for channel in ("ECG", "EDA"):
        trace = SignalTrace(Channel(channel), hz, rng.uniform(0, 1, n_samples))
        write_signal_csv(session_dir / f"{session}_{channel}.csv", trace)
    rows = ["frame_index,timestamp_s"]
    for i in range(n_frames):
        write_pgm(frames_dir / f"{i}.pgm", rng.uniform(0, 1, (64, 64)))
        rows.append(f"{i},{1.0 + 2.0 * i}")
    (frames_dir / "frames.csv").write_text("\n".join(rows) + "\n")
    label = {
        "subject": subject,
        "session": session,
        "valence": valence,
        "arousal": 4.0,
        "liking": 6.0,
        "emotions": [1, 0, 0, 0, 0, 0, 0],
    }
    (root / "labels.jsonl").write_text(json.dumps(label) + "\n")
    return session_dir


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (12, 17))
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.dtype == np.uint8 and back.shape == (12, 17)
        assert np.abs(back / 255.0 - img).max() <= 0.5 / 255.0 + 1e-12

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"JUNK")
        with pytest.raises(ParseError):
            read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n-1 -1\n255\n", b"P5\n0 5\n255\n",
                                        b"P5\n5 0\n255\n"])
    def test_rejects_dimensions_that_are_not_positive(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + bytes(25))
        with pytest.raises(ParseError, match=r"bad\.pgm: PGM width and height must be positive"):
            read_pgm(path)

    def test_rejects_bytes_after_the_pixels(self, tmp_path):
        # A 2 x 2 header over 7 bytes of body: the header understates the image.
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(range(1, 8)))
        with pytest.raises(ParseError, match=r"long\.pgm: 3 bytes after the 2 x 2 pixels$"):
            read_pgm(path)


def _signal_body(sep="\n", end="\n", row="{t!r},{v!r}", n=400, start=0.0):
    """A `time_s,value` file of `n` rows at 128 Hz from `start` s: rows `row`
    joined by `sep`, then `end`."""
    rng = np.random.default_rng(12)
    rows = [row.format(t=start + i / 128.0, v=float(v))
            for i, v in enumerate(rng.standard_normal(n) * 1e3)]
    return ("time_s,value" + sep + sep.join(rows) + end).encode("ascii")


# Well-formed bodies the block parse must read to the line reader's bits.
_SIGNAL_BODIES = {
    "lf": _signal_body(),
    "crlf": _signal_body(sep="\r\n", end="\r\n"),
    "cr-only": _signal_body(sep="\r", end="\r"),
    "no-trailing-newline": _signal_body(end=""),
    "trailing-blank-lines": _signal_body(end="\n\n\r\n"),
    "spaced": _signal_body(row=" {t!r} , {v!r} "),
    "exponent": _signal_body(row="{t:.16e},{v:.17E}"),
    "odd-rows-late-start": _signal_body(n=401, start=12.3),
}
# Rows per block of the checks and the in-place compaction: one row, a
# block that overlaps its source, and the module's own.
_BLOCKS = [1, 7, session_io._CHECK_ROWS]


class TestSignalCsv:
    @pytest.mark.parametrize("block", _BLOCKS)
    @pytest.mark.parametrize("body", _SIGNAL_BODIES.values(), ids=_SIGNAL_BODIES.keys())
    def test_block_parse_gives_the_line_readers_bits(self, tmp_path, monkeypatch, body, block):
        monkeypatch.setattr(session_io, "_CHECK_ROWS", block)
        path = tmp_path / "sig.csv"
        path.write_bytes(body)
        rows = np.array(session_io._pair_rows(path, "time_s,value", float, "bad"))
        line_reads = []
        monkeypatch.setattr(session_io, "_pair_rows",
                            lambda *args: line_reads.append(args) or [])
        trace = read_signal_csv(path, Channel.ECG)
        assert line_reads == []
        assert np.array_equal(trace.samples.view(np.uint64),
                              np.ascontiguousarray(rows[:, 1]).view(np.uint64))
        assert trace.sample_rate_hz == 128.0
        assert np.float64(trace.start_time_s).view(np.uint64) == rows[0, 0].view(np.uint64)

    @pytest.mark.parametrize("block", _BLOCKS)
    def test_line_reader_path_gives_the_same_bits(self, tmp_path, monkeypatch, block):
        # A whitespace-only line sends the file to the line reader, whose
        # (N, 2) array is turned into the samples in place as the block
        # parse's is.
        monkeypatch.setattr(session_io, "_CHECK_ROWS", block)
        body = _SIGNAL_BODIES["odd-rows-late-start"]
        lines = body.split(b"\n")
        lines.insert(200, b" \t ")
        path = tmp_path / "sig.csv"
        path.write_bytes(b"\n".join(lines))
        line_read = session_io._pair_rows
        line_reads = []
        monkeypatch.setattr(session_io, "_pair_rows",
                            lambda *args: line_reads.append(args) or line_read(*args))
        trace = read_signal_csv(path, Channel.ECG)
        assert len(line_reads) == 1
        rows = np.array(line_read(path, "time_s,value", float, "bad"))
        assert len(rows) == 401
        assert np.array_equal(trace.samples.view(np.uint64),
                              np.ascontiguousarray(rows[:, 1]).view(np.uint64))
        assert trace.samples.flags.owndata and trace.samples.flags.c_contiguous
        assert trace.sample_rate_hz == 128.0
        assert np.float64(trace.start_time_s).view(np.uint64) == rows[0, 0].view(np.uint64)

    @pytest.mark.parametrize("hook", ["settrace", "setprofile"])
    def test_read_under_a_trace_or_profile_hook(self, tmp_path, hook):
        # A Python trace function (coverage, pdb) or profiler (cProfile)
        # holds its own reference to the parse buffer while it is shrunk.
        import sys

        path = tmp_path / "sig.csv"
        path.write_bytes(_SIGNAL_BODIES["lf"])
        want = read_signal_csv(path, Channel.ECG).samples

        def tracer(frame, event, arg):
            frame.f_locals  # as a debugger reads them
            return tracer

        install = getattr(sys, hook)
        previous = sys.gettrace() if hook == "settrace" else sys.getprofile()
        install(tracer)
        try:
            trace = read_signal_csv(path, Channel.ECG)
        finally:
            install(previous)
        assert np.array_equal(trace.samples.view(np.uint64), want.view(np.uint64))
        assert trace.samples.flags.owndata and trace.samples.size == 400

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_compression_suffix_is_read_as_it_is(self, tmp_path, suffix):
        # np.loadtxt would decompress a file by this name; the line reader reads its text.
        path = tmp_path / f"sig.csv{suffix}"
        path.write_bytes(_SIGNAL_BODIES["lf"])
        (tmp_path / "sig.csv").write_bytes(_SIGNAL_BODIES["lf"])
        got = read_signal_csv(path, Channel.ECG).samples
        want = read_signal_csv(tmp_path / "sig.csv", Channel.ECG).samples
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(2)
        trace = SignalTrace(Channel.ECG, 128.0, rng.standard_normal(500))
        path = tmp_path / "t.csv"
        write_signal_csv(path, trace)
        back = read_signal_csv(path, Channel.ECG)
        assert (back.samples == trace.samples).all()
        assert back.sample_rate_hz == 128.0

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n0.0,1.0\n0.0078125,oops\n")
        with pytest.raises(ParseError, match="bad.csv:3"):
            read_signal_csv(path, Channel.ECG)

    def test_whitespace_only_line_skipped(self, tmp_path):
        path = tmp_path / "ws.csv"
        rows = [f"{i / 128.0!r},{i * 0.25!r}" for i in range(300)]
        rows.insert(150, " \t ")
        path.write_text("time_s,value\n" + "\n".join(rows) + "\n")
        back = read_signal_csv(path, Channel.ECG)
        np.testing.assert_array_equal(back.samples, np.arange(300) * 0.25)
        assert back.sample_rate_hz == 128.0

    def test_bad_field_deep_in_file_reports_line(self, tmp_path):
        path = tmp_path / "deep.csv"
        rows = [f"{i / 128.0!r},0.5" for i in range(1200)]
        rows[1000] = f"{1000 / 128.0!r},oops"  # line 1002 after the header
        path.write_text("time_s,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=r"deep\.csv:1002: non-numeric"):
            read_signal_csv(path, Channel.ECG)

    def test_three_field_row_reports_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("time_s,value\n0.0,1.0\n0.0078125,2.0\n0.015625,3.0,4.0\n")
        with pytest.raises(ParseError, match=r"wide\.csv:4: expected 2 fields, got 3"):
            read_signal_csv(path, Channel.ECG)

    @pytest.mark.parametrize("block", _BLOCKS)
    @pytest.mark.parametrize("row, time, value, why", [
        (0, "nan", "1.0", "timestamp is not a number"),
        (501, "nan", "1.0", "timestamp is not a number"),
        (1999, "nan", "1.0", "timestamp is not a number"),
        (0, "-inf", "1.0", "timestamp -inf is not finite"),
        (1999, "inf", "1.0", "timestamp inf is not finite"),
        (0, None, "nan", "sample value nan is not finite"),
        (700, None, "inf", "sample value inf is not finite"),
        (1999, None, "-inf", "sample value -inf is not finite"),
    ])
    def test_non_finite_field_reports_file_line(self, tmp_path, monkeypatch, block,
                                                row, time, value, why):
        # 2,000 rows at 800 Hz; data row `row` is on line row + 2.
        monkeypatch.setattr(session_io, "_CHECK_ROWS", block)
        rows = [f"{i / 800.0!r},0.5" for i in range(2000)]
        rows[row] = f"{time or repr(row / 800.0)},{value}"
        path = tmp_path / "nf.csv"
        path.write_text("time_s,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=rf"nf\.csv:{row + 2}: {why}$"):
            read_signal_csv(path, Channel.ECG)

    def test_repeated_timestamp_after_blank_line_reports_file_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("time_s,value\n0.0,1\n\n0.0078125,2\n0.0078125,3\n")
        with pytest.raises(ParseError, match=r"dup\.csv:5: timestamps must be strictly"):
            read_signal_csv(path, Channel.ECG)

    def test_non_ascii_byte_after_blank_line_reports_file_line(self, tmp_path):
        path = tmp_path / "byte.csv"
        path.write_bytes(b"time_s,value\n0.0,1\n\n0.0078125,\xff2\n0.015625,3\n")
        with pytest.raises(ParseError, match=r"byte\.csv:4: byte 0xff is not ascii"):
            read_signal_csv(path, Channel.ECG)

    def test_unsupported_rate_rejected(self, tmp_path):
        path = tmp_path / "odd.csv"
        rows = ["time_s,value"] + [f"{i / 50.0},0.0" for i in range(100)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="sample rate"):
            read_signal_csv(path, Channel.ECG)


class TestLoadSession:
    def test_minimal_session_through_pipeline(self, tmp_path):
        session_dir = write_minimal_session(tmp_path)
        data = load_session(session_dir)
        assert data.subject_id == "p00"
        assert data.session_id == "p00_t00"
        traces = {c: rescale(resample(t, MODEL_HZ)) for c, t in data.traces.items()}
        samples = synchronize(
            traces, data.frames, data.label, data.subject_id, data.session_id
        )
        assert len(samples) == 3
        for s in samples:
            for seg in s.segments.values():
                assert seg.window.shape == (SEGMENT_LEN,)

    def test_two_row_csv_one_frame_smoke(self, tmp_path):
        # The shortest legal session: padding must carry the whole window.
        session_dir = write_minimal_session(tmp_path, n_samples=2, n_frames=1)
        data = load_session(session_dir)
        traces = {c: rescale(resample(t, MODEL_HZ)) for c, t in data.traces.items()}
        samples = synchronize(
            traces, data.frames, data.label, data.subject_id, data.session_id
        )
        assert len(samples) == 1
        for seg in samples[0].segments.values():
            assert seg.window.shape == (SEGMENT_LEN,)

    def test_out_of_range_label_rejected(self, tmp_path):
        session_dir = write_minimal_session(tmp_path, valence=10.0)
        with pytest.raises(ValidationError, match="valence"):
            load_session(session_dir)

    def test_missing_channel_file(self, tmp_path):
        session_dir = write_minimal_session(tmp_path)
        (session_dir / "p00_t00_EDA.csv").unlink()
        with pytest.raises(IngestError, match="EDA"):
            load_session(session_dir)

    def test_missing_frame_image(self, tmp_path):
        session_dir = write_minimal_session(tmp_path)
        (session_dir / "frames" / "1.pgm").unlink()
        with pytest.raises(IngestError, match="1.pgm"):
            load_session(session_dir)

    def test_non_ascii_byte_in_frames_csv_reports_file_line(self, tmp_path):
        session_dir = write_minimal_session(tmp_path)
        (session_dir / "frames" / "frames.csv").write_bytes(
            b"frame_index,timestamp_s\n0,1.0\n\n1,3.0\xff\n2,5.0\n"
        )
        with pytest.raises(ParseError, match=r"frames\.csv:4: byte 0xff is not ascii"):
            load_session(session_dir)

    @pytest.mark.parametrize("extra, line, why", [
        ("1,19.9", 5, "frame index 1 repeated"),
        ("3,4.5", 5, "frame 3 at 4.5 s is not after frame 2 at 5.0 s"),
    ])
    def test_frame_order_error_reports_file_line(self, tmp_path, extra, line, why):
        # frames.csv holds frames 0, 1 and 2 at 1, 3 and 5 s on lines 2 to 4.
        session_dir = write_minimal_session(tmp_path)
        write_pgm(session_dir / "frames" / "3.pgm", np.zeros((64, 64)))
        frames_csv = session_dir / "frames" / "frames.csv"
        frames_csv.write_text(frames_csv.read_text() + extra + "\n")
        with pytest.raises(ParseError, match=rf"frames\.csv:{line}: {why}$"):
            load_session(session_dir)

    @pytest.mark.parametrize("row, time", [(0, "nan"), (1, "nan"), (2, "inf"), (1, "-inf")])
    def test_non_finite_frame_time_reports_file_line(self, tmp_path, row, time):
        # frames.csv holds frames 0, 1 and 2 on lines 2 to 4; the order check
        # alone would pass a NaN, which fails every comparison.
        session_dir = write_minimal_session(tmp_path)
        frames_csv = session_dir / "frames" / "frames.csv"
        lines = frames_csv.read_text().splitlines()
        lines[row + 1] = f"{row},{time}"
        frames_csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"frames\.csv:{row + 2}: frame {row} "
                                             rf"timestamp {time} is not finite$"):
            load_session(session_dir)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_landmark_reports_file_line(self, tmp_path, value):
        session_dir = write_minimal_session(tmp_path)
        landmarks = session_dir / "frames" / "landmarks.csv"
        landmarks.write_text(f"0,10.0,12.0,50.0,52.0\n\n1,10.0,12.0,{value},52.0\n")
        with pytest.raises(ParseError, match=rf"landmarks\.csv:3: landmark coordinate "
                                             rf"{float(value)!r} is not finite$"):
            load_session(session_dir)

    def test_repeated_landmark_frame_reports_file_line(self, tmp_path):
        session_dir = write_minimal_session(tmp_path)
        landmarks = session_dir / "frames" / "landmarks.csv"
        landmarks.write_text("0,1,2,30,40\n0,5,6,7,8\n")
        with pytest.raises(ParseError, match=r"landmarks\.csv:2: frame index 0 repeated$"):
            load_session(session_dir)

    def test_non_numeric_valence_reports_labels_line(self, tmp_path):
        session_dir = write_minimal_session(tmp_path)
        good = (tmp_path / "labels.jsonl").read_text()
        bad = json.dumps({**json.loads(good), "session": "p00_t01", "valence": "high"})
        (tmp_path / "labels.jsonl").write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValidationError, match=r"labels\.jsonl:3: could not convert"):
            load_session(session_dir)

    @pytest.mark.parametrize("face_size, alignment", [(64, "centered"), (32, "leading")])
    def test_session_samples_is_the_ingest_chain(self, tmp_path, face_size, alignment):
        session_dir = write_minimal_session(tmp_path)
        data = load_session(session_dir)
        traces = {c: rescale(resample(t, MODEL_HZ)) for c, t in data.traces.items()}
        by_hand = synchronize(traces, data.frames, data.label, data.subject_id,
                              data.session_id, face_size=face_size, alignment=alignment)
        write_samples(tmp_path / "hand.bin", by_hand)
        write_samples(tmp_path / "one.bin", session_samples(session_dir, face_size, alignment))
        assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "hand.bin").read_bytes()

    def test_ingest_peak_is_about_the_raw_session(self, tmp_path):
        # A 2-minute 800 Hz therapy session: load it, resample and rescale its
        # traces and synchronize its frames, as `bioaffect assess` does. The
        # chain peaks at 1.73x the bytes `load_session` returns (2.33x when
        # each CSV's parse was copied and every face cropped up front).
        import tracemalloc

        spec = synth.TherapySpec(rng_seed=1, minutes=2.0, fps=0.25, signal_hz=800.0)
        session_dir = synth.gen_therapy_session(spec, tmp_path)
        tracemalloc.start()
        try:
            data = load_session(session_dir)
            traces = {c: rescale(resample(t, MODEL_HZ)) for c, t in data.traces.items()}
            samples = synchronize(traces, data.frames, data.label, data.subject_id,
                                  data.session_id)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        raw = (sum(t.samples.nbytes for t in data.traces.values())
               + sum(f.image.nbytes for f in data.frames))
        assert len(samples) == 30
        assert peak <= 1.8 * raw, peak / raw

    def test_list_sessions_sorted(self, tmp_path):
        write_minimal_session(tmp_path, session="b_t00")
        (tmp_path / "labels.jsonl").unlink()
        write_minimal_session(tmp_path, session="a_t00")
        found = [p.name for p in list_sessions(tmp_path)]
        assert found == ["a_t00", "b_t00"]


def _sample(frame_index=0, subject="p00", session="p00_t00"):
    rng = np.random.default_rng(frame_index + 10)
    segments = {
        c: BioSegment(c, rng.uniform(0, 1, SEGMENT_LEN), frame_index)
        for c in (Channel.ECG, Channel.EDA)
    }
    face = FrameRecord(timestamp_s=1.5 * frame_index, image=rng.uniform(0, 1, (16, 16)))
    label = AffectLabel(5.5, 4.5, 5.0, emotions=np.eye(7)[3])
    return SyncedSample(segments, face, label, subject, session)


# A `_sample`'s windows own their floats, so each is a span of its own: a
# file of n such samples holds 2n one-window spans (ECG, EDA, ECG, ...)
# after its 16-byte header and u32 span count.
SPANS_AT = 20
SPAN_BYTES = 1 + 4 + 8 * SEGMENT_LEN  # channel byte, u32 length, the floats


def sample_at(n_spans):
    """Byte offset of the first sample in a file of `n_spans` one-window spans."""
    return SPANS_AT + n_spans * SPAN_BYTES


# Offsets in a `_sample` record: the ids "p00" and "p00_t00" with their u16
# lengths and the frame index and timestamp come before the label; then the
# four u32 window references and the u32 face side before the 16 x 16 face.
LABEL = (2 + 3) + (2 + 7) + 12
REFS = LABEL + 80
FACE = REFS + 16 + 4


def _synchronized_corpus(tmp_path, face_size=64, alignment="centered", **spec):
    """The samples of a small generated corpus, as `preprocess` makes them."""
    spec = dict(dict(n_subjects=1, trials_per_subject=2, trial_seconds=6.0, rng_seed=3,
                     fps=0.5), **spec)
    synth.gen_dataset(synth.SynthSpec(**spec), tmp_path / "corpus")
    return [s for d in list_sessions(tmp_path / "corpus")
            for s in session_samples(d, face_size, alignment)]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestProcessedContainer:
    def test_roundtrip(self, tmp_path):
        samples = [_sample(i) for i in range(4)]
        path = tmp_path / "samples.bin"
        write_samples(path, samples, extra_meta={"note": "t"})
        back = read_samples(path)
        assert len(back) == 4
        for a, b in zip(samples, back):
            assert a.subject_id == b.subject_id and a.session_id == b.session_id
            assert a.frame_index == b.frame_index
            assert a.face.timestamp_s == b.face.timestamp_s
            for c in (Channel.ECG, Channel.EDA):
                assert (a.segments[c].window == b.segments[c].window).all()
            assert (a.face.image == b.face.image).all()
            assert a.label.valence == b.label.valence
            assert (a.label.emotions == b.label.emotions).all()
        sidecar = json.loads((tmp_path / "samples.bin.json").read_text())
        assert sidecar["n_samples"] == 4 and sidecar["format_version"] == 2
        assert sidecar["note"] == "t"

    def test_read_back_gives_the_bits_synchronize_gave(self, tmp_path):
        samples = _synchronized_corpus(tmp_path)
        path = tmp_path / "samples.bin"
        write_samples(path, samples)
        back = read_samples(path)
        assert len(back) == len(samples) == 6
        for a, b in zip(samples, back):
            assert (a.subject_id, a.session_id, a.frame_index) == (
                b.subject_id, b.session_id, b.frame_index)
            assert np.float64(a.face.timestamp_s).view(np.uint64) == np.float64(
                b.face.timestamp_s).view(np.uint64)
            for c in (Channel.ECG, Channel.EDA):
                assert _same_bits(a.segments[c].window, b.segments[c].window)
            assert _same_bits(a.face.image, b.face.image)
            assert _same_bits(label_targets(a.label), label_targets(b.label))
        # One span per session and channel, which the session's windows view.
        assert int.from_bytes(path.read_bytes()[16:20], "little") == 2 * 2
        for first, second in zip(back, back[1:]):
            for c in (Channel.ECG, Channel.EDA):
                shared = np.shares_memory(first.segments[c].window, second.segments[c].window)
                assert shared == (first.session_id == second.session_id)

    def test_samples_with_one_label_share_it(self, tmp_path):
        # As `synchronize` gives them: one label object per session here.
        path = tmp_path / "samples.bin"
        write_samples(path, _synchronized_corpus(tmp_path))
        by_value = {}
        for s in read_samples(path):
            assert by_value.setdefault(label_targets(s.label).tobytes(), s.label) is s.label
        assert len(by_value) == 2

    def test_written_read_and_written_again_keeps_the_bytes(self, tmp_path):
        # Spans of one channel that the file stores next to each other must
        # not merge when it is read and written again: with one EDA span for
        # three samples, their second and third ECG spans are neighbours.
        shared = np.random.default_rng(0).uniform(0, 1, SEGMENT_LEN + 200)
        one_eda_span = [_sample(i) for i in range(3)]
        for i, s in enumerate(one_eda_span):
            s.segments[Channel.EDA] = BioSegment(
                Channel.EDA, shared[100 * i : 100 * i + SEGMENT_LEN], i)
        for name, samples in (("synchronized", _synchronized_corpus(tmp_path)),
                              ("own windows", [_sample(i) for i in range(3)]),
                              ("one EDA span", one_eda_span)):
            first, second = tmp_path / "first.bin", tmp_path / "second.bin"
            write_samples(first, samples)
            write_samples(second, read_samples(first))
            assert first.read_bytes() == second.read_bytes(), name

    # sha256 of the samples file of a fixed two-session corpus. The samples
    # the file reads back as were checked equal, bit for bit, to those read
    # from the version-1 file this test pinned before.
    @pytest.mark.parametrize("face_size, alignment, digest", [
        (64, "centered", "2d7ffa6b0fe129df3230b42b888178d50b72d7539e07d7d00a3cc779a114ebb3"),
        (40, "trailing", "9c7edd9003f6d870656cdd126da8134c67bba9df751a6d254bed98b6933c3c80"),
    ], ids=["64-centered", "40-trailing"])
    def test_synchronized_samples_write_the_pinned_bytes(self, tmp_path, face_size,
                                                         alignment, digest):
        import hashlib

        samples = _synchronized_corpus(tmp_path, face_size, alignment)
        path = tmp_path / "samples.bin"
        write_samples(path, samples)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_bytes_deterministic(self, tmp_path):
        samples = [_sample(i) for i in range(2)]
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_samples(p1, samples)
        write_samples(p2, samples)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CorruptionError, match="bad magic at byte offset 0"):
            read_samples(path)

    def test_a_version_1_file_is_refused(self, tmp_path):
        import struct

        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0)])
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        with pytest.raises(CorruptionError, match=r"samples\.bin: sample file version 1 "
                           r"\(byte offset 4\) is no longer read; re-run `bioaffect preprocess`"):
            read_samples(path)

    def test_truncation_names_field_and_offset(self, tmp_path):
        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0), _sample(1)])
        blob = path.read_bytes()
        at = sample_at(4)
        cuts = {
            10: (4, "header"),
            18: (16, "span count"),
            SPANS_AT + 2: (SPANS_AT, "span header"),
            SPANS_AT + 5 + 100: (SPANS_AT + 5, "ECG span 0"),
            SPANS_AT + SPAN_BYTES + 5 + 8: (SPANS_AT + SPAN_BYTES + 5, "EDA span 1"),
            at + 1: (at, "subject id length"),
            at + 3: (at + 2, "subject id"),
            at + LABEL + 40: (at + LABEL, "label"),
            at + REFS + 10: (at + REFS + 8, "EDA window"),
            at + FACE - 2: (at + FACE - 4, "face side"),
            at + FACE + 100: (at + FACE, "face payload"),
            len(blob) - 1: (len(blob) - 8 * 16 * 16, "face payload"),
        }
        for cut, (start, field) in cuts.items():
            path.write_bytes(blob[:cut])
            with pytest.raises(
                CorruptionError,
                match=rf"samples\.bin: truncated at byte offset {start}: {field} needs",
            ):
                read_samples(path)
        for cut in range(0, len(blob), 97):
            path.write_bytes(blob[:cut])
            with pytest.raises(CorruptionError):
                read_samples(path)

    @pytest.mark.parametrize("field, index, offset, why", [
        ("ECG", 9, 0, r"span index 9 out of range \(4 spans\)"),
        ("ECG", 4, 0, r"span index 4 out of range \(4 spans\)"),
        ("ECG", 1, 0, "span 1 holds EDA samples"),
        ("EDA", 2, 0, "span 2 holds ECG samples"),
        ("ECG", 0, 1, "offset 1 runs past the 1000 samples of span 0"),
        ("EDA", 3, 2**32 - 1, "offset 4294967295 runs past the 1000 samples of span 3"),
    ])
    def test_a_window_reference_out_of_its_span_is_refused(self, tmp_path, field, index,
                                                           offset, why):
        import struct

        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0), _sample(1)])
        blob = bytearray(path.read_bytes())
        at = sample_at(4) + REFS + (8 if field == "EDA" else 0)
        assert struct.unpack_from("<II", blob, at) == ((1, 0) if field == "EDA" else (0, 0))
        struct.pack_into("<II", blob, at, index, offset)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError,
                           match=rf"samples\.bin: {field} window at byte offset {at}: {why}$"):
            read_samples(path)

    def test_a_window_may_view_any_span_of_its_channel(self, tmp_path):
        import struct

        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0), _sample(1)])
        blob = bytearray(path.read_bytes())
        struct.pack_into("<II", blob, sample_at(4) + REFS, 2, 0)  # sample 1's ECG span
        path.write_bytes(bytes(blob))
        first, second = read_samples(path)
        assert first.segments[Channel.ECG].window is not second.segments[Channel.ECG].window
        assert np.shares_memory(first.segments[Channel.ECG].window,
                                second.segments[Channel.ECG].window)

    @pytest.mark.parametrize("code, length, why", [
        (2, SEGMENT_LEN, "unknown channel 2"),
        (255, SEGMENT_LEN, "unknown channel 255"),
        (0, SEGMENT_LEN - 1, "999 samples, fewer than one window"),
        (1, 0, "0 samples, fewer than one window"),
    ])
    def test_a_bad_span_header_is_refused(self, tmp_path, code, length, why):
        import struct

        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0)])
        blob = bytearray(path.read_bytes())
        struct.pack_into("<BI", blob, SPANS_AT + SPAN_BYTES, code, length)
        path.write_bytes(bytes(blob))
        at = SPANS_AT + SPAN_BYTES
        with pytest.raises(CorruptionError, match=rf"samples\.bin: span 1 at byte offset {at}: "
                                                  rf"{why}$"):
            read_samples(path)

    @pytest.mark.parametrize("field, at, slot, value, why", [
        ("label", sample_at(2) + LABEL, 0, np.nan, r"valence = nan outside \[1, 9\]"),
        ("label", sample_at(2) + LABEL, 4, np.nan, "emotion indicators must lie in"),
        ("label", sample_at(2) + LABEL, 9, np.inf, "emotion indicators must lie in"),
        ("ECG span 0", SPANS_AT + 5, 17, np.nan, "scaled trace values must lie in"),
        ("ECG span 0", SPANS_AT + 5, 0, 1.5, "scaled trace values must lie in"),
        ("ECG span 0", SPANS_AT + 5, 1, -0.25, "scaled trace values must lie in"),
        ("EDA span 1", SPANS_AT + SPAN_BYTES + 5, 999, np.inf, "scaled trace values"),
        ("face payload", sample_at(2) + FACE, 40, -np.inf, "frame image contains"),
        ("face payload", sample_at(2) + FACE, 255, np.nan, "frame image contains"),
    ])
    def test_value_out_of_domain_names_field_and_offset(self, tmp_path, field, at, slot, value,
                                                        why):
        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0)])
        blob = bytearray(path.read_bytes())
        blob[at + 8 * slot : at + 8 * slot + 8] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        message = rf"samples\.bin: {field} at byte offset {at}: {why}"
        with pytest.raises(CorruptionError, match=message):
            read_samples(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0)])
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(
            CorruptionError, match=rf"2 trailing bytes at byte offset {size} after the last"
        ):
            read_samples(path)

    def test_id_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0)])
        blob = bytearray(path.read_bytes())
        at = sample_at(2) + 2  # first byte of the subject id
        blob[at] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(
            CorruptionError, match=rf"samples\.bin: subject id is not UTF-8 at byte offset {at}"
        ):
            read_samples(path)


def face_at(n, i):
    """Byte offset of sample `i`'s face in a file of `n` `_sample`s."""
    return sample_at(2 * n) + i * (FACE + 8 * 16 * 16) + FACE


class TestStoredFace:
    """A read sample's face stays in the samples file until its `image` is read."""

    def test_faces_read_back_bit_for_bit(self, tmp_path):
        samples = [_sample(i) for i in range(3)]
        samples[1].face = FrameRecord(1.5, np.random.default_rng(5).uniform(0, 1, (8, 8)))
        path = tmp_path / "samples.bin"
        write_samples(path, samples)
        back = read_samples(path)
        for a, b in zip(samples, back):
            assert isinstance(b.face, session_io.StoredFace)
            assert b.face.timestamp_s == a.face.timestamp_s
            assert _same_bits(b.face.image, a.face.image)
        assert back[0].face.offset == face_at(3, 0)
        assert back[1].face.side == 8

    def test_each_read_is_a_new_writable_contiguous_float64_array(self, tmp_path):
        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0)])
        (back,) = read_samples(path)
        first, second = back.face.image, back.face.image
        for arr in (first, second):
            assert arr.dtype == np.float64 and arr.shape == (16, 16)
            assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata
        assert not np.shares_memory(first, second)
        want = second.copy()
        first[:] = 0.5
        second[:] = 0.25
        assert _same_bits(back.face.image, want)
        with pytest.raises(AttributeError):
            back.face.image = want

    def test_a_later_face_that_is_not_finite_is_refused_at_load(self, tmp_path):
        # Faces after the first are read into the buffer the first was read
        # into; the check and the offset are the same for each.
        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(i) for i in range(3)])
        blob = bytearray(path.read_bytes())
        at = face_at(3, 2)
        blob[at + 8 * 30 : at + 8 * 31] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match=rf"samples\.bin: face payload at byte offset "
                                                  rf"{at}: frame image contains non-finite values$"):
            read_samples(path)

    @pytest.mark.parametrize("change, refused, why", [
        ("replaced", (0, 1), "the file changed after it was read"),
        ("truncated", (0, 1), "the file changed after it was read"),
        ("rewritten", (0, 1), "the file changed after it was read"),
        ("deleted", (0, 1), "the file cannot be opened again"),
        ("NaN written, times kept", (1,), "frame image contains non-finite values"),
    ], ids=["replaced", "truncated", "rewritten", "deleted", "nan-in-place"])
    def test_a_file_changed_after_the_load_refuses_the_next_read(self, tmp_path, change,
                                                                 refused, why):
        import os

        path = tmp_path / "samples.bin"
        samples = [_sample(0), _sample(1)]
        write_samples(path, samples)
        back = read_samples(path)
        blob = path.read_bytes()
        stat = path.stat()
        if change == "replaced":  # the same bytes, in another file moved over it
            other = tmp_path / "other.bin"
            other.write_bytes(blob)
            os.replace(other, path)
        elif change == "truncated":
            os.truncate(path, len(blob) - 8)
        elif change == "rewritten":  # the same bytes, written a second later
            path.write_bytes(blob)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        elif change == "deleted":
            path.unlink()
        else:  # size, inode and times as they were: only the values tell
            with open(path, "r+b") as f:
                f.seek(face_at(2, 1) + 8 * 100)
                f.write(np.array([np.nan], dtype="<f8").tobytes())
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        for i, (a, b) in enumerate(zip(samples, back)):
            if i in refused:
                with pytest.raises(CorruptionError, match=rf"samples\.bin: face payload at byte "
                                                          rf"offset {face_at(2, i)}: {why}"):
                    b.face.image
            else:
                assert _same_bits(b.face.image, a.face.image)

    def test_a_face_is_found_after_a_change_of_directory(self, tmp_path, monkeypatch):
        sample = _sample(0)
        write_samples(tmp_path / "samples.bin", [sample])
        monkeypatch.chdir(tmp_path)
        (back,) = read_samples("samples.bin")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert _same_bits(back.face.image, sample.face.image)

    def test_no_file_is_left_open(self, tmp_path, monkeypatch):
        import os

        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0), _sample(1)])
        files = record_opens(monkeypatch, session_io)
        back = read_samples(path)
        assert len(files) == 1 and files[0].closed
        for s in back:
            s.face.image
            s.face.image
        os.truncate(path, path.stat().st_size - 1)
        with pytest.raises(CorruptionError):
            back[0].face.image
        assert len(files) == 1 + 4 + 1
        assert all(f.closed for f in files)


class TestDamagedContainer:
    """A samples file cut short or with any one byte changed reads, or
    raises a CorruptionError that names a byte offset; nothing else."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        # Two sessions of four frames, 2 s apart at 128 Hz: each channel's
        # windows overlap, so each session stores one span per channel.
        traces = {c: SignalTrace(c, MODEL_HZ, np.random.default_rng(i).uniform(0, 1, 1200))
                  for i, c in enumerate((Channel.ECG, Channel.EDA))}
        label = AffectLabel(5.5, 4.5, 5.0, emotions=np.eye(7)[3])
        samples = []
        for session in ("p00_t00", "p00_t01"):
            pixels = np.random.default_rng(len(samples)).integers(0, 256, (12, 12), np.uint8)
            frames = [FrameRecord(2.0 * i, pixels) for i in range(4)]
            samples += synchronize(traces, frames, label, "p00", session, face_size=4)
        path = tmp_path_factory.mktemp("damaged") / "samples.bin"
        write_samples(path, samples)
        return path.read_bytes()

    @staticmethod
    def read_or_refuse(path):
        try:
            read_samples(path)
        except CorruptionError as exc:
            assert re.search(r"byte offset \d+", str(exc)), str(exc)

    def test_the_fixture_shares_its_spans(self, blob):
        import struct

        # Window starts 256 samples apart: each span is 1000 + 3 * 256 samples.
        assert struct.unpack_from("<I", blob, 16) == (4,)
        for k in range(4):
            at = SPANS_AT + k * (5 + 8 * 1768)
            assert struct.unpack_from("<BI", blob, at) == (k % 2, 1768)

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_truncation(self, tmp_path, blob, data):
        cut = data.draw(st.integers(0, len(blob) - 1))
        path = tmp_path / "samples.bin"
        path.write_bytes(blob[:cut])
        with pytest.raises(CorruptionError, match=r"byte offset \d+"):
            read_samples(path)

    @settings(max_examples=600, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_single_byte_flip(self, tmp_path, blob, data):
        at = data.draw(st.integers(0, len(blob) - 1))
        xor = data.draw(st.integers(1, 255))
        damaged = bytearray(blob)
        damaged[at] ^= xor
        path = tmp_path / "samples.bin"
        path.write_bytes(bytes(damaged))
        self.read_or_refuse(path)

    @staticmethod
    def face_at(i):
        """Byte offset of sample `i`'s 4 x 4 face: after the four spans of
        1768 samples, each sample's record is `FACE` bytes and its face."""
        return SPANS_AT + 4 * (5 + 8 * 1768) + i * (FACE + 8 * 16) + FACE

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_byte_flip_in_a_face_after_the_load(self, tmp_path, blob, data):
        # Size, inode and times as they were at the load: only the values
        # tell. The read gives the bytes now in the file, or refuses them.
        # (Of the values on [0, 1], one flipped byte can make only 1.0 non-
        # finite, and these faces hold none; a NaN written in place is
        # refused in `TestStoredFace`.)
        import os

        i = data.draw(st.integers(0, 7))
        at = self.face_at(i)
        flip = at + data.draw(st.integers(0, 8 * 16 - 1))
        xor = data.draw(st.integers(1, 255))
        path = tmp_path / "samples.bin"
        path.write_bytes(blob)
        back = read_samples(path)
        stat = path.stat()
        with open(path, "r+b") as f:
            f.seek(flip)
            f.write(bytes([blob[flip] ^ xor]))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        try:
            image = back[i].face.image
        except CorruptionError as exc:
            assert re.search(rf"samples\.bin: face payload at byte offset {at}: ", str(exc))
        else:
            assert np.isfinite(image).all()
            now = np.frombuffer(path.read_bytes()[at : at + 8 * 16], "<f8").reshape(4, 4)
            assert _same_bits(image, now)

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_truncation_after_the_load(self, tmp_path, blob, data):
        import os

        i = data.draw(st.integers(0, 7))
        cut = data.draw(st.integers(0, len(blob) - 1))
        path = tmp_path / "samples.bin"
        path.write_bytes(blob)
        back = read_samples(path)
        os.truncate(path, cut)
        at = self.face_at(i)
        with pytest.raises(CorruptionError, match=rf"samples\.bin: .*byte offset {at}:"):
            back[i].face.image


class TestStreamingRead:
    def _samples(self, n=20, side=64):
        samples = []
        for i in range(n):
            s = _sample(i)
            rng = np.random.default_rng(i)
            s.face.image = rng.uniform(0, 1, (side, side))
            samples.append(s)
        return samples

    def test_peak_is_about_the_bytes_of_the_arrays(self, tmp_path):
        import tracemalloc

        path = tmp_path / "samples.bin"
        samples = self._samples()
        write_samples(path, samples)
        tracemalloc.start()
        try:
            back = read_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array_bytes = sum(
            8 * (2 * SEGMENT_LEN + s.face.image.size + 10) for s in back
        )
        assert peak <= 1.25 * array_bytes, peak / array_bytes
        for a, b in zip(samples, back):
            assert np.array_equal(a.face.image.view(np.uint64), b.face.image.view(np.uint64))
            for c in (Channel.ECG, Channel.EDA):
                assert np.array_equal(
                    a.segments[c].window.view(np.uint64), b.segments[c].window.view(np.uint64)
                )
            assert np.array_equal(
                a.label.emotions.view(np.uint64), b.label.emotions.view(np.uint64)
            )

    def test_a_sessions_windows_cost_its_spans_not_a_window_each(self, tmp_path):
        # 4 fps at 128 Hz: 32 samples between frames, so a session's 80
        # windows per channel view one span of 1000 + 79 * 32 samples. A
        # copy of each window would add 16 KB a sample, well over the bound.
        import tracemalloc

        samples = _synchronized_corpus(tmp_path, face_size=48, trial_seconds=20.0, fps=4.0)
        path = tmp_path / "samples.bin"
        write_samples(path, samples)
        tracemalloc.start()
        try:
            back = read_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(back) == 160
        span_bytes = 2 * 2 * 8 * (SEGMENT_LEN + 79 * 32)
        face_and_label_bytes = 8 * (48 * 48 + 10) * len(back)
        window_bytes = 8 * 2 * SEGMENT_LEN * len(back)
        assert window_bytes > 0.25 * (span_bytes + face_and_label_bytes)
        assert peak <= 1.25 * (span_bytes + face_and_label_bytes), peak

    def test_peak_is_the_spans_and_labels_plus_one_face(self, tmp_path):
        # The faces stay in the file, read one at a time through one buffer:
        # holding them all would pass the bound by more than 100 KB.
        import struct
        import tracemalloc

        samples = _synchronized_corpus(tmp_path)
        path = tmp_path / "samples.bin"
        write_samples(path, samples)
        blob = path.read_bytes()
        span_bytes, at = 0, SPANS_AT
        for _ in range(struct.unpack_from("<I", blob, 16)[0]):
            (length,) = struct.unpack_from("<I", blob, at + 1)
            span_bytes += 8 * length
            at += 5 + 8 * length
        tracemalloc.start()
        try:
            back = read_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        label_bytes = 8 * 10 * len(back)
        face_bytes = 8 * 64 * 64
        bound = 1.25 * (span_bytes + label_bytes) + face_bytes
        assert face_bytes * len(back) > bound
        assert peak <= bound, (peak, bound)

    def test_arrays_are_writable_contiguous_float64(self, tmp_path):
        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0), _sample(1)])
        back = read_samples(path)
        arrays = [back[0].face.image, back[1].face.image, back[0].label.emotions]
        arrays += [s.segments[c].window for s in back for c in (Channel.ECG, Channel.EDA)]
        for arr in arrays:
            assert arr.dtype == np.float64 and arr.flags.writeable and arr.flags.c_contiguous
        assert type(back[0].label.valence) is float

    def test_file_is_closed_on_success_and_on_every_error(self, tmp_path, monkeypatch):
        from bioaffect import session_io

        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0), _sample(1)])
        blob = path.read_bytes()
        refs_at = sample_at(4) + REFS
        bad = [blob[:cut] for cut in range(0, len(blob), 37)]
        bad += [blob + b"\x00", b"NOPE" + blob[4:], blob[:4] + b"\x03" + blob[5:]]
        bad.append(blob[:12] + b"\x07" + blob[13:])  # a segment length of 1007
        bad.append(blob[:SPANS_AT] + b"\x05" + blob[SPANS_AT + 1 :])  # span channel 5
        bad.append(blob[:refs_at] + b"\x07" + blob[refs_at + 1 :])  # span index 7 of 4
        bad.append(blob[:sample_at(4) + 2] + b"\xff" + blob[sample_at(4) + 3 :])  # not UTF-8
        files = record_opens(monkeypatch, session_io)
        read_samples(path)
        for body in bad:
            path.write_bytes(body)
            with pytest.raises(CorruptionError):
                read_samples(path)
        assert len(files) == 1 + len(bad)
        assert all(f.closed for f in files)

    def test_a_read_that_comes_back_short_is_read_on(self, tmp_path):
        # An unbuffered file may return fewer bytes than asked although more
        # follow; the reader asks again until the field is whole.
        import io

        from bioaffect.files import BlobReader

        class Trickle(io.FileIO):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer)[:3])

        path = tmp_path / "samples.bin"
        values = np.random.default_rng(0).uniform(0, 1, 9)
        path.write_bytes(b"BAFS" + values.tobytes())
        with Trickle(path, "rb") as f:
            reader = BlobReader(path, f)
            assert reader.take(4, "magic") == b"BAFS"
            assert _same_bits(reader.floats((4,), "label"), values[:4])
            (rest,) = reader.finite_floats([((5,), "window")])
            assert _same_bits(rest, values[4:])
            reader.finish("window")

    def test_a_file_that_shrinks_while_read_gives_the_same_error(self, tmp_path):
        from bioaffect.files import BlobReader

        path = tmp_path / "samples.bin"
        for read, size, cut, start, needs, remain in (
            (lambda r: r.take(40, "header"), 64, 30, 0, 40, 30),
            (lambda r: r.floats((5,), "label"), 64, 30, 0, 40, 30),
            # one run of both: the first field is whole, the second is cut
            (lambda r: r.finite_floats([((2,), "label"), ((3,), "window")]), 64, 30, 16, 24, 14),
            # cut mid-value in the second block of the first field
            (lambda r: r.finite_floats([((40_000,), "label"), ((3,), "window")]),
             8 * 40_003, 8 * 35_000 + 3, 0, 8 * 40_000, 8 * 35_000 + 3),
        ):
            path.write_bytes(bytes(size))
            with open(path, "rb") as f:
                reader = BlobReader(path, f)
                path.write_bytes(bytes(cut))  # cut after the size was taken
                with pytest.raises(
                    CorruptionError,
                    match=rf"samples\.bin: truncated at byte offset {start}: \w+ needs {needs} "
                    rf"bytes, {remain} remain",
                ):
                    read(reader)
