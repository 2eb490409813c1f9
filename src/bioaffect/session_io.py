"""On-disk session formats and the processed-sample container.

A corpus directory holds `labels.jsonl` (one object per session: subject,
session, valence, arousal, liking, emotions[7]) and one subdirectory per
session:

    <session>/
      <session>_ECG.csv        header "time_s,value"
      <session>_EDA.csv
      frames/
        frames.csv             header "frame_index,timestamp_s"
        <frame_index>.pgm      8-bit binary grayscale (P5)
        landmarks.csv          optional, "frame_index,x0,y0,x1,y1,..."

Preprocessed samples are stored in a versioned binary record file with a
JSON sidecar. Record layout (little-endian):

    magic    4 bytes b"BAFS"
    u32      format version (1)
    u32      sample count
    u32      segment length
    then per sample:
      u16+utf8 subject id, u16+utf8 session id, u32 frame index,
      f64 timestamp, 10 x f64 label (valence, arousal, liking, emotions),
      segment length x f64 ECG window, segment length x f64 EDA window,
      u8 face kind (always 0: an image), u32 side, side*side x f64 image.
"""

from __future__ import annotations

import itertools
import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import BlobReader, CorruptionError, IngestError, ParseError, ValidationError
from .files import read_json_lines, read_lines, write_file, write_json
from .signals import (
    MODEL_HZ,
    SEGMENT_LEN,
    SUPPORTED_SOURCE_HZ,
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

_SAMPLES_MAGIC = b"BAFS"
_SAMPLES_VERSION = 1


# --- primitive file formats -------------------------------------------------


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM; input is a float image in [0, 1]."""
    arr = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = np.round(arr * 255.0).astype(np.uint8)
    h, w = data.shape
    write_file(path, [f"P5\n{w} {h}\n255\n".encode("ascii"), data.tobytes()])


def read_pgm(path) -> np.ndarray:
    path = Path(path)
    blob = path.read_bytes()
    if not blob.startswith(b"P5"):
        raise ParseError(f"{path}: not a binary PGM (P5) file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise ParseError(f"{path}: bad PGM header") from exc
    if maxval != 255:
        raise ParseError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pixels = np.frombuffer(blob[pos : pos + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ParseError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w).astype(np.float64) / 255.0


_SIGNAL_HEADER = "time_s,value"
_FRAMES_HEADER = "frame_index,timestamp_s"


def write_signal_csv(path, trace: SignalTrace) -> None:
    rows = zip(trace.sample_times(), trace.samples)
    write_file(path, itertools.chain(
        [f"{_SIGNAL_HEADER}\n".encode("ascii")],
        (f"{float(t)!r},{float(v)!r}\n".encode("ascii") for t, v in rows),
    ))


def _pair_rows(path, header: str, first, bad_row: str) -> list:
    """`(first(a), float(b))` for each `a,b` row of a two-column CSV, read a line at a time.

    This is the reference reader of both formats: blank and whitespace-only
    lines are skipped, and a bad header, byte or row raises a ParseError
    that names `file:line`.
    """
    rows = []
    for lineno, line in read_lines(path, header=header):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        try:
            rows.append((first(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {bad_row}") from exc
    return rows


def _row_line(path, header: str, row: int) -> int:
    """The file line of data row `row` (from 0) of a CSV read by `_pair_rows`."""
    lineno, _ = next(itertools.islice(read_lines(path, header=header), row, None))
    return lineno


def read_signal_csv(path, channel: Channel) -> SignalTrace:
    path = Path(path)
    # One array parse of the body. A file it does not read as the header and
    # two float columns (a bad header or byte, a whitespace-only line, a bad
    # field, a wrong field count, no rows at all) goes to the line reader,
    # which skips or names the offending line.
    rows = None
    try:
        with open(path, "r", encoding="ascii") as fh:
            if fh.readline().strip() == _SIGNAL_HEADER:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", UserWarning)  # loadtxt's "no data"
                    rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except (ValueError, UserWarning):  # UnicodeDecodeError is a ValueError
        pass
    if rows is None or rows.shape[1] != 2:
        rows = np.array(_pair_rows(path, _SIGNAL_HEADER, float, "non-numeric field"),
                        dtype=np.float64).reshape(-1, 2)
    times_arr = np.ascontiguousarray(rows[:, 0])
    values = np.ascontiguousarray(rows[:, 1])
    if len(values) < 2:
        raise ParseError(f"{path}: need at least 2 samples, got {len(values)}")
    dt = np.diff(times_arr)
    if (dt <= 0).any():
        lineno = _row_line(path, _SIGNAL_HEADER, int(np.argmax(dt <= 0)) + 1)
        raise ParseError(f"{path}:{lineno}: timestamps must be strictly increasing")
    rate = (len(times_arr) - 1) / (times_arr[-1] - times_arr[0])
    for supported in SUPPORTED_SOURCE_HZ:
        if abs(rate - supported) / supported < 0.01:
            rate = supported
            break
    else:
        raise ValidationError(
            f"{path}: sample rate {rate:.2f} Hz not in supported set "
            f"{SUPPORTED_SOURCE_HZ}"
        )
    return SignalTrace(channel, rate, values, start_time_s=float(times_arr[0]))


def _read_landmarks_csv(path) -> dict:
    table = {}
    for lineno, line in read_lines(path):
        if line.startswith("frame_index"):
            continue
        parts = line.split(",")
        if len(parts) < 5 or (len(parts) - 1) % 2 != 0:
            raise ParseError(f"{path}:{lineno}: expected frame_index plus (x, y) pairs")
        try:
            idx = int(parts[0])
            coords = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric field") from exc
        table[idx] = [(coords[i], coords[i + 1]) for i in range(0, len(coords), 2)]
    return table


def read_labels_jsonl(path) -> dict:
    """`(subject, label)` keyed by session id; a bad label names `file:line`."""
    out = {}
    for lineno, obj in read_json_lines(path):
        try:
            subject, session = str(obj["subject"]), str(obj["session"])
            out[session] = (subject, AffectLabel(
                valence=obj["valence"],
                arousal=obj["arousal"],
                liking=obj["liking"],
                emotions=np.asarray(obj["emotions"], dtype=np.float64),
            ))
        except KeyError as exc:
            raise ValidationError(f"{path}:{lineno}: label missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return out


# --- session loading ---------------------------------------------------------


class SessionData:
    """Parsed raw session: traces per channel, frames, and the session label."""

    def __init__(self, traces, frames, label, subject_id, session_id):
        self.traces = traces
        self.frames = frames
        self.label = label
        self.subject_id = subject_id
        self.session_id = session_id


def load_session(session_dir) -> SessionData:
    """Parse and validate one session directory; its label is in `labels.jsonl` next to it."""
    session_dir = Path(session_dir)
    if not session_dir.is_dir():
        raise IngestError(f"{session_dir}: not a directory")
    session_id = session_dir.name
    labels_path = session_dir.parent / "labels.jsonl"
    if not labels_path.exists():
        raise IngestError(f"labels file not found: {labels_path}")
    labels = read_labels_jsonl(labels_path)
    if session_id not in labels:
        raise ValidationError(f"{labels_path}: no label for session {session_id!r}")
    subject_id, label = labels[session_id]

    traces = {}
    for channel in (Channel.ECG, Channel.EDA):
        csv_path = session_dir / f"{session_id}_{channel.value}.csv"
        if not csv_path.exists():
            raise IngestError(f"missing channel(s): {channel.value} ({csv_path})")
        traces[channel] = read_signal_csv(csv_path, channel)

    frames_dir = session_dir / "frames"
    frames_csv = frames_dir / "frames.csv"
    if not frames_csv.exists():
        raise IngestError(f"missing frames index: {frames_csv}")
    rows = _pair_rows(frames_csv, _FRAMES_HEADER, int, "bad frame row")
    # Frames in index order; each index once, each timestamp after the last.
    order = sorted(range(len(rows)), key=rows.__getitem__)
    for a, b in zip(order, order[1:]):
        (idx_a, t_a), (idx_b, t_b) = rows[a], rows[b]
        if idx_b == idx_a or t_b <= t_a:
            lineno = _row_line(frames_csv, _FRAMES_HEADER, max(a, b))
            why = (f"frame index {idx_b} repeated" if idx_b == idx_a
                   else f"frame {idx_b} at {t_b!r} s is not after frame {idx_a} at {t_a!r} s")
            raise ParseError(f"{frames_csv}:{lineno}: {why}")
    landmarks_csv = frames_dir / "landmarks.csv"
    landmark_table = _read_landmarks_csv(landmarks_csv) if landmarks_csv.exists() else {}
    frames = []
    for idx, t in (rows[i] for i in order):
        pgm = frames_dir / f"{idx}.pgm"
        if not pgm.exists():
            raise IngestError(f"missing frame image: {pgm}")
        frames.append(FrameRecord(timestamp_s=t, image=read_pgm(pgm),
                                  landmarks=landmark_table.get(idx)))
    return SessionData(traces, frames, label, subject_id, session_id)


def session_samples(session_dir, face_size: int, alignment: str = "centered") -> list:
    """The model samples of one raw session: its traces resampled to MODEL_HZ
    and rescaled, then one window pair per frame."""
    data = load_session(session_dir)
    traces = {ch: rescale(resample(t, MODEL_HZ)) for ch, t in data.traces.items()}
    return synchronize(
        traces, data.frames, data.label, data.subject_id, data.session_id,
        face_size=face_size, alignment=alignment,
    )


def list_sessions(corpus_dir) -> list:
    """Session directories under a corpus root, sorted by name."""
    corpus_dir = Path(corpus_dir)
    return sorted(
        p for p in corpus_dir.iterdir() if p.is_dir() and (p / "frames").is_dir()
    )


# --- processed sample container ----------------------------------------------


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def write_samples(path, samples: list, extra_meta: dict | None = None) -> None:
    """Write SyncedSamples to the binary container plus a JSON sidecar."""
    path = Path(path)
    write_file(path, _sample_chunks(samples))
    meta = {
        "format_version": _SAMPLES_VERSION,
        "n_samples": len(samples),
        "segment_len": SEGMENT_LEN,
        "subjects": sorted({s.subject_id for s in samples}),
        "sessions": sorted({s.session_id for s in samples}),
    }
    if extra_meta:
        meta.update(extra_meta)
    write_json(path.with_suffix(path.suffix + ".json"), meta)


def _sample_chunks(samples: list):
    yield _SAMPLES_MAGIC
    yield struct.pack("<III", _SAMPLES_VERSION, len(samples), SEGMENT_LEN)
    for s in samples:
        yield _pack_str(s.subject_id)
        yield _pack_str(s.session_id)
        yield struct.pack("<Id", s.frame_index, s.face.timestamp_s)
        label_vec = np.concatenate(
            [[s.label.valence, s.label.arousal, s.label.liking], s.label.emotions]
        )
        yield np.ascontiguousarray(label_vec, dtype="<f8").tobytes()
        for channel in (Channel.ECG, Channel.EDA):
            yield np.ascontiguousarray(s.segments[channel].window, dtype="<f8").tobytes()
        side = s.face.image.shape[0]
        if s.face.image.shape != (side, side):
            raise IngestError("processed face images must be square")
        yield struct.pack("<BI", 0, side)
        yield np.ascontiguousarray(s.face.image, dtype="<f8").tobytes()


def read_samples(path) -> list:
    """Read a processed-sample file written by `write_samples`.

    The file is read field by field, and the arrays straight into one
    buffer (`BlobReader.floats`) of which they are views, so the peak is
    about the bytes of the arrays returned. A file cut anywhere, an id that
    is not UTF-8, a face kind other than 0, a value its type refuses (one
    not finite, or out of its range) or bytes after the last sample raise a
    CorruptionError that names the path, the field and the byte offset.
    """
    path = Path(path)
    with open(path, "rb") as f:
        reader = BlobReader(path, f)

        def checked(build, shape, field):
            """`build` of the next float array; its domain error names the field's offset."""
            start = reader.offset
            try:
                return build(reader.floats(shape, field))
            except (ValidationError, IngestError) as exc:
                raise CorruptionError(f"{path}: {field} at byte offset {start}: {exc}") from None

        if reader.take(4, "magic") != _SAMPLES_MAGIC:
            raise CorruptionError(f"{path}: not a processed-sample file (bad magic)")
        version, count, seg_len = reader.unpack("<III", "header")
        if version != _SAMPLES_VERSION:
            raise CorruptionError(f"{path}: unsupported sample file version {version}")
        if seg_len != SEGMENT_LEN:
            raise CorruptionError(
                f"{path}: segment length {seg_len} != expected {SEGMENT_LEN}"
            )
        windows = [(c, f"{c.value} window") for c in (Channel.ECG, Channel.EDA)]
        samples = []
        for _ in range(count):
            subject_id = reader.text("subject id")
            session_id = reader.text("session id")
            frame_index, timestamp = reader.unpack("<Id", "frame index and timestamp")
            label = checked(lambda v: AffectLabel(v[0], v[1], v[2], v[3:10]), (10,), "label")
            segments = {
                channel: checked(lambda w: BioSegment(channel, w, frame_index), (seg_len,), field)
                for channel, field in windows
            }
            kind, side = reader.unpack("<BI", "face header")
            if kind != 0:
                raise CorruptionError(
                    f"{path}: unknown face payload kind {kind} at byte offset {reader.offset - 5}"
                )
            samples.append(
                SyncedSample(
                    segments=segments,
                    face=checked(lambda img: FrameRecord(timestamp_s=timestamp, image=img),
                                 (side, side), "face payload"),
                    label=label,
                    subject_id=subject_id,
                    session_id=session_id,
                )
            )
        reader.finish("sample")
    return samples
