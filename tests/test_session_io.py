"""File formats: session CSV/PGM/JSONL parsing and the processed container."""

import json

import numpy as np
import pytest

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
        assert back.shape == (12, 17)
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"JUNK")
        with pytest.raises(ParseError):
            read_pgm(path)


class TestSignalCsv:
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


# Byte offset of the first sample's label: the 16-byte header, then the ids
# "p00" and "p00_t00" with their u16 lengths, then the frame index and timestamp.
LABEL_AT = 16 + (2 + 3) + (2 + 7) + 12


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
        assert sidecar["n_samples"] == 4
        assert sidecar["note"] == "t"

    def test_bytes_deterministic(self, tmp_path):
        samples = [_sample(i) for i in range(2)]
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_samples(p1, samples)
        write_samples(p2, samples)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CorruptionError):
            read_samples(path)

    def test_truncation_names_field_and_offset(self, tmp_path):
        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0), _sample(1)])
        blob = path.read_bytes()
        seg = 8 * SEGMENT_LEN
        face_at = LABEL_AT + 80 + 2 * seg
        cuts = {
            10: (4, "header"),
            19: (18, "subject id"),
            LABEL_AT + 40: (LABEL_AT, "label"),
            LABEL_AT + 80 + seg + 8: (LABEL_AT + 80 + seg, "EDA window"),
            face_at + 3: (face_at, "face header"),
            face_at + 5 + 100: (face_at + 5, "face payload"),
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

    def test_face_kind_other_than_image_rejected(self, tmp_path):
        # Kind 1 once meant a precomputed feature vector; only images are read now.
        path = tmp_path / "samples.bin"
        write_samples(path, [_sample(0)])
        blob = bytearray(path.read_bytes())
        face_at = LABEL_AT + 80 + 2 * 8 * SEGMENT_LEN
        assert blob[face_at] == 0
        blob[face_at] = 1
        path.write_bytes(bytes(blob))
        with pytest.raises(
            CorruptionError, match=rf"unknown face payload kind 1 at byte offset {face_at}$"
        ):
            read_samples(path)

    @pytest.mark.parametrize("field, at, slot, value, why", [
        ("label", LABEL_AT, 0, np.nan, r"valence = nan outside \[1, 9\]"),
        ("label", LABEL_AT, 4, np.nan, "emotion indicators must lie in"),
        ("label", LABEL_AT, 9, np.inf, "emotion indicators must lie in"),
        ("ECG window", LABEL_AT + 80, 17, np.nan, "bio segment values must lie in"),
        ("ECG window", LABEL_AT + 80, 0, 1.5, "bio segment values must lie in"),
        ("ECG window", LABEL_AT + 80, 1, -0.25, "bio segment values must lie in"),
        ("EDA window", LABEL_AT + 80 + 8 * SEGMENT_LEN, 999, np.inf, "bio segment values"),
        ("face payload", LABEL_AT + 80 + 16 * SEGMENT_LEN + 5, 40, -np.inf, "frame image contains"),
        ("face payload", LABEL_AT + 80 + 16 * SEGMENT_LEN + 5, 255, np.nan, "frame image contains"),
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
        blob[18] = 0xFF  # first byte of the subject id
        path.write_bytes(bytes(blob))
        with pytest.raises(
            CorruptionError, match=r"samples\.bin: subject id is not UTF-8 at byte offset 18"
        ):
            read_samples(path)


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
        face_at = LABEL_AT + 80 + 2 * 8 * SEGMENT_LEN
        bad = [blob[:cut] for cut in range(0, len(blob), 37)]
        bad += [blob + b"\x00", b"NOPE" + blob[4:], blob[:4] + b"\x02" + blob[5:]]
        bad.append(blob[:12] + b"\x07" + blob[13:])  # a segment length of 1007
        bad.append(blob[:18] + b"\xff" + blob[19:])  # a subject id that is not UTF-8
        bad.append(blob[:face_at] + b"\x05" + blob[face_at + 1 :])  # face kind 5
        files = record_opens(monkeypatch, session_io)
        read_samples(path)
        for body in bad:
            path.write_bytes(body)
            with pytest.raises(CorruptionError):
                read_samples(path)
        assert len(files) == 1 + len(bad)
        assert all(f.closed for f in files)

    def test_a_file_that_shrinks_while_read_gives_the_same_error(self, tmp_path):
        from bioaffect.errors import BlobReader

        path = tmp_path / "samples.bin"
        for read, needs in ((lambda r: r.take(40, "header"), 40),
                            (lambda r: r.floats((5,), "label"), 40)):
            path.write_bytes(bytes(64))
            with open(path, "rb") as f:
                reader = BlobReader(path, f)
                path.write_bytes(bytes(30))  # cut after the size was taken
                with pytest.raises(
                    CorruptionError,
                    match=rf"samples\.bin: truncated at byte offset 0: \w+ needs {needs} bytes, "
                    r"30 remain",
                ):
                    read(reader)
