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
JSON sidecar. The windows that `synchronize` cuts from one session's
channel overlap, so the file stores each stretch of scaled trace that a
run of overlapping windows covers once, as a span, and each sample names a
span and an offset per channel. Record layout (little-endian):

    magic    4 bytes b"BAFS"
    u32      format version (2)
    u32      sample count
    u32      segment length
    u32      span count
    then per span, numbered from 0 in the order the samples first use them:
      u8 channel (0 ECG, 1 EDA), u32 length n (at least the segment
      length), n x f64 scaled trace.
    then per sample:
      u16+utf8 subject id, u16+utf8 session id, u32 frame index,
      f64 timestamp, 10 x f64 label (valence, arousal, liking, emotions),
      u32 ECG span index, u32 offset of the ECG window in that span,
      u32 EDA span index, u32 offset of the EDA window,
      u32 side, side*side x f64 face image.

`read_samples` returns each window as a view into its span, so the windows
of one session share one buffer. It checks every face payload but keeps
none: each sample's face is a `StoredFace`, which reads its payload from
the file each time its `image` is read. So the file must stay in place,
unchanged, while the samples are in use; a face read after the file was
replaced, changed or removed raises a CorruptionError (exit 1). A
version-1 file, which stored every window in full, is refused (exit 1):
re-run `bioaffect preprocess` to rewrite it.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import CorruptionError, IngestError, ParseError, ValidationError
from .files import BlobReader, read_json_lines, read_lines, write_file, write_json
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
    finite_image,
    rescale,
    resample,
    synchronize,
)

_SAMPLES_MAGIC = b"BAFS"
_SAMPLES_VERSION = 2
# The channels of a sample in file order; a span's channel byte indexes it.
_CHANNELS = (Channel.ECG, Channel.EDA)


# --- primitive file formats -------------------------------------------------


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM; input is a float image in [0, 1]."""
    arr = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = np.round(arr * 255.0).astype(np.uint8)
    h, w = data.shape
    write_file(path, [f"P5\n{w} {h}\n255\n".encode("ascii"), data.tobytes()])


def read_pgm(path) -> np.ndarray:
    """The 8-bit pixels of a binary PGM, as a read-only (height, width) uint8 array."""
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
    if w <= 0 or h <= 0:
        raise ParseError(f"{path}: PGM width and height must be positive, got {w} x {h}")
    if maxval != 255:
        raise ParseError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pixels = np.frombuffer(blob[pos : pos + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ParseError(f"{path}: truncated pixel data")
    if len(blob) > pos + w * h:
        raise ParseError(f"{path}: {len(blob) - pos - w * h} bytes after the {w} x {h} pixels")
    return pixels.reshape(h, w)


_SIGNAL_HEADER = "time_s,value"
# Given a path with one of these suffixes, `np.loadtxt` decompresses the
# file; the line reader, like every other reader here, reads it as it is.
_NUMPY_DECOMPRESSES = (".gz", ".bz2", ".xz", ".lzma")
_FRAMES_HEADER = "frame_index,timestamp_s"
# Rows per block of a signal CSV's checks and of its in-place compaction.
_CHECK_ROWS = 1 << 16


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


def _check_rows(path, rows: np.ndarray) -> None:
    """Refuse timestamps that are not finite and strictly increasing, and
    non-finite values, naming the `file:line` of the first such row.

    `rows` is checked a block of rows at a time, so no full-length
    temporary is made. The order test is written `not t[k+1] > t[k]`,
    which a NaN fails too.
    """
    n = len(rows)
    for lo in range(0, n, _CHECK_ROWS):
        hi = min(lo + _CHECK_ROWS, n)
        t = rows[lo : hi + 1, 0]
        bad = ~(t[1:] > t[:-1])
        if bad.any():
            k = lo + int(np.argmax(bad))
            row = k if np.isnan(rows[k, 0]) else k + 1
            why = ("timestamp is not a number" if np.isnan(rows[row, 0])
                   else "timestamps must be strictly increasing")
            raise ParseError(f"{path}:{_row_line(path, _SIGNAL_HEADER, row)}: {why}")
        bad = ~np.isfinite(rows[lo:hi, 1])
        if bad.any():
            row = lo + int(np.argmax(bad))
            raise ParseError(f"{path}:{_row_line(path, _SIGNAL_HEADER, row)}: "
                             f"sample value {float(rows[row, 1])!r} is not finite")
    for row in (0, n - 1):  # increasing times can be infinite only at the ends
        if not np.isfinite(rows[row, 0]):
            raise ParseError(f"{path}:{_row_line(path, _SIGNAL_HEADER, row)}: "
                             f"timestamp {float(rows[row, 0])!r} is not finite")


def read_signal_csv(path, channel: Channel) -> SignalTrace:
    """One channel's trace, read with no full-length array past the parse buffer.

    The samples are that buffer's value column, moved to its front; the
    buffer is then shrunk to them.
    """
    path = Path(path)
    # The body is parsed in one block read: `np.loadtxt` is given the path,
    # so its C reader pulls the file in blocks rather than one Python line
    # at a time. A file this parse refuses (a header other than the exact
    # line, a bad byte, a whitespace-only line, a bad field, a wrong field
    # count, no rows at all) goes to the line reader, which skips or names
    # the offending `file:line`.
    rows = None
    with open(path, "rb") as fh:
        head = fh.read(len(_SIGNAL_HEADER) + 1)
    if (head[:-1] == _SIGNAL_HEADER.encode("ascii") and head[-1:] in (b"\n", b"\r")
            and path.suffix not in _NUMPY_DECOMPRESSES):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # loadtxt's "no data"
                rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                                  skiprows=1, encoding="ascii")
        except (ValueError, UserWarning):  # UnicodeDecodeError is a ValueError
            pass
    if rows is None or rows.shape[1] != 2:
        # An (N, 2) array that owns its buffer when N > 0 (a reshape would
        # be a view, which cannot be shrunk in place).
        rows = np.array(_pair_rows(path, _SIGNAL_HEADER, float, "non-numeric field"),
                        dtype=np.float64)
    n = len(rows)
    if n < 2:
        raise ParseError(f"{path}: need at least 2 samples, got {n}")
    _check_rows(path, rows)
    start, end = float(rows[0, 0]), float(rows[-1, 0])
    # Compact the value column to the front, a block at a time in order: a
    # block's writes land below every later block's reads, and numpy buffers
    # a block whose source and destination overlap.
    flat = rows.reshape(-1)
    for lo in range(0, n, _CHECK_ROWS):
        hi = min(lo + _CHECK_ROWS, n)
        flat[lo:hi] = flat[2 * lo + 1 : 2 * hi : 2]
    del flat
    # Now the samples. No view of the buffer is left (`flat` was the last;
    # `_check_rows` keeps none), so numpy's reference check is skipped: it
    # also counts the reference a trace or profile hook holds, and would
    # refuse under coverage, pdb or cProfile.
    rows.resize(n, refcheck=False)
    rate = (n - 1) / (end - start)
    for supported in SUPPORTED_SOURCE_HZ:
        if abs(rate - supported) / supported < 0.01:
            rate = supported
            break
    else:
        raise ValidationError(
            f"{path}: sample rate {rate:.2f} Hz not in supported set "
            f"{SUPPORTED_SOURCE_HZ}"
        )
    return SignalTrace(channel, rate, rows, start_time_s=start)


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
        bad = [c for c in coords if not math.isfinite(c)]
        if bad:
            raise ParseError(f"{path}:{lineno}: landmark coordinate {bad[0]!r} is not finite")
        if idx in table:
            raise ParseError(f"{path}:{lineno}: frame index {idx} repeated")
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
    for row, (idx, t) in enumerate(rows):
        if not math.isfinite(t):
            lineno = _row_line(frames_csv, _FRAMES_HEADER, row)
            raise ParseError(f"{frames_csv}:{lineno}: frame {idx} timestamp {t!r} is not finite")
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


def _window_source(window: np.ndarray) -> tuple:
    """`(array, offset)`: the contiguous float64 array whose floats from
    `offset` on `window` views, or `(window, 0)` if it views no such array."""
    base = window.base
    if (isinstance(base, np.ndarray) and base.dtype == np.float64
            and base.flags.c_contiguous and window.flags.c_contiguous):
        offset, rem = divmod(window.__array_interface__["data"][0]
                             - base.__array_interface__["data"][0], 8)
        if rem == 0 and 0 <= offset <= base.size - window.size:
            return base, offset
    return window, 0


class _Span:
    """A run of overlapping windows of one channel in one array: `array`'s
    floats `start:end`, first used by sample `first`."""

    __slots__ = ("code", "array", "start", "end", "first", "index")

    def __init__(self, code, array, start, first):
        self.code, self.array, self.start, self.first = code, array, start, first


def _spans(samples: list) -> tuple:
    """The spans to store, in file order, and each sample's `(span, offset)`
    per channel.

    Per channel, the windows that view one array are taken in order of
    their start; a window that overlaps the run before it joins that run's
    span, and any other starts a new one. A file read and written again
    therefore keeps its bytes.
    """
    views = {}  # (channel code, id(array)) -> (array, [(offset, sample position)])
    for pos, s in enumerate(samples):
        for code, channel in enumerate(_CHANNELS):
            array, offset = _window_source(s.segments[channel].window)
            views.setdefault((code, id(array)), (array, []))[1].append((offset, pos))
    spans, refs = [], [[None] * len(_CHANNELS) for _ in samples]
    for (code, _), (array, starts) in views.items():
        span = None
        for offset, pos in sorted(starts):
            if span is None or offset >= span.end:
                span = _Span(code, array, offset, pos)
                spans.append(span)
            span.end = offset + SEGMENT_LEN
            span.first = min(span.first, pos)
            refs[pos][code] = (span, offset - span.start)
    spans.sort(key=lambda sp: (sp.first, sp.code))
    for index, span in enumerate(spans):
        span.index = index
    return spans, refs


def _sample_chunks(samples: list):
    spans, refs = _spans(samples)
    yield _SAMPLES_MAGIC
    yield struct.pack("<IIII", _SAMPLES_VERSION, len(samples), SEGMENT_LEN, len(spans))
    for span in spans:
        yield struct.pack("<BI", span.code, span.end - span.start)
        yield np.ascontiguousarray(span.array.reshape(-1)[span.start : span.end], dtype="<f8")
    for s, sample_refs in zip(samples, refs):
        yield _pack_str(s.subject_id)
        yield _pack_str(s.session_id)
        yield struct.pack("<Id", s.frame_index, s.face.timestamp_s)
        label_vec = np.concatenate(
            [[s.label.valence, s.label.arousal, s.label.liking], s.label.emotions]
        )
        yield np.ascontiguousarray(label_vec, dtype="<f8").tobytes()
        (ecg, ecg_at), (eda, eda_at) = sample_refs
        yield struct.pack("<IIII", ecg.index, ecg_at, eda.index, eda_at)
        image = s.face.image  # one read, one crop: only this sample's face is held
        side = image.shape[0]
        if image.shape != (side, side):
            raise IngestError("processed face images must be square")
        yield struct.pack("<I", side)
        yield np.ascontiguousarray(image, dtype="<f8").tobytes()


def _stamp(stat: os.stat_result) -> tuple:
    """What tells a file apart from another at its path, or from itself changed."""
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


class StoredFace:
    """A read sample's face: the `side` x `side` float64 payload at byte
    `offset` of its samples file, read each time `image` is read and not
    kept, as a `FaceCrop` crops its frame each time. `file` is the
    `(absolute path, _stamp)` of that file as `read_samples` found it,
    one tuple shared by the faces of a read.

    `read_samples` checked the payload; `image` checks again that the file
    is the one it read and that the values are finite.
    """

    __slots__ = ("file", "offset", "side", "timestamp_s")

    def __init__(self, file: tuple, offset: int, side: int, timestamp_s: float):
        self.file = file
        self.offset = offset
        self.side = side
        self.timestamp_s = timestamp_s

    @property
    def image(self) -> np.ndarray:
        """The face, as a new C-contiguous float64 array.

        The file is opened, checked by `fstat` to be the file that was read,
        read at `offset` as `read_samples` read it, and closed. A file that
        was replaced, resized, rewritten or removed since raises a
        CorruptionError that names the path and the face's byte offset.
        """
        (path, stamp), at = self.file, f"face payload at byte offset {self.offset}"
        try:
            f = open(path, "rb")
        except OSError as exc:
            raise CorruptionError(f"{path}: {at}: the file cannot be opened again "
                                  f"({exc.strerror}); it must stay in place while its samples "
                                  f"are used") from None
        with f:
            f.seek(self.offset)
            reader = BlobReader(path, f)
            if _stamp(reader.stat) != stamp:
                raise CorruptionError(f"{path}: {at}: the file changed after it was read; it "
                                      f"must stay as it was while its samples are used")
            return reader.checked_floats(finite_image, (self.side, self.side), "face payload")


def _scaled_trace(values: np.ndarray) -> np.ndarray:
    """`values`, which must lie in [0, 1] as a scaled trace does (a NaN does not)."""
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValidationError("scaled trace values must lie in [0, 1]")
    return values


def read_samples(path) -> list:
    """Read a processed-sample file written by `write_samples`.

    The file is read field by field, and the arrays straight into their
    buffers (`BlobReader.floats`): each window is a view into its span.
    Each face payload is read through one reused buffer and checked, and
    each sample's face is a `StoredFace` that reads it again when used; so
    the peak is about the bytes of the spans and labels plus one face. A
    file cut anywhere, a version other than 2, an id that is
    not UTF-8, a span of an unknown channel or shorter than a window, a
    window whose span index is out of range, whose span holds the other
    channel or whose offset runs past its span, a value its type refuses
    (one not finite, or out of its range) or bytes after the last sample
    raise a CorruptionError that names the path, the field and the byte
    offset.
    """
    path = Path(path)
    # Unbuffered (`BlobReader` reads on after a short read): the fields are
    # read straight into their arrays, and a buffer of the file would be
    # held beside the face buffer at the peak.
    with open(path, "rb", buffering=0) as f:
        reader = BlobReader(path, f)
        if reader.take(4, "magic") != _SAMPLES_MAGIC:
            raise CorruptionError(f"{path}: not a processed-sample file (bad magic at byte offset 0)")
        version, count, seg_len = reader.unpack("<III", "header")
        if version == 1:
            raise CorruptionError(
                f"{path}: sample file version 1 (byte offset 4) is no longer read; "
                f"re-run `bioaffect preprocess` to rewrite it as version {_SAMPLES_VERSION}"
            )
        if version != _SAMPLES_VERSION:
            raise CorruptionError(
                f"{path}: unsupported sample file version {version} at byte offset 4"
            )
        if seg_len != SEGMENT_LEN:
            raise CorruptionError(
                f"{path}: segment length {seg_len} at byte offset 12 != expected {SEGMENT_LEN}"
            )
        (n_spans,) = reader.unpack("<I", "span count")
        spans = []
        for k in range(n_spans):
            code, length = reader.unpack("<BI", "span header")
            if code >= len(_CHANNELS):
                why = f"unknown channel {code}"
            elif length < seg_len:
                why = f"{length} samples, fewer than one window"
            else:
                why = None
            if why:
                raise CorruptionError(f"{path}: span {k} at byte offset {reader.offset - 5}: {why}")
            channel = _CHANNELS[code]
            spans.append((channel, reader.checked_floats(_scaled_trace, (length,),
                                                         f"{channel.value} span {k}")))
        window_fields = [(c, f"{c.value} window") for c in _CHANNELS]
        # Absolute, so that a face is found again after a change of directory.
        source = (Path(os.path.abspath(path)), _stamp(reader.stat))
        face = None  # the buffer each face payload is read into and checked in
        values = np.empty(10)  # the buffer each label is read into
        labels = {}  # a label's bytes -> its AffectLabel

        def label_of(v):
            """The AffectLabel of `v`: samples with one label share it, as
            `synchronize` gives the samples of a session."""
            key = v.tobytes()
            if key not in labels:
                v = v.copy()
                labels[key] = AffectLabel(v[0], v[1], v[2], v[3:10])
            return labels[key]

        samples = []
        for _ in range(count):
            subject_id = reader.text("subject id")
            session_id = reader.text("session id")
            frame_index, timestamp = reader.unpack("<Id", "frame index and timestamp")
            label = reader.checked_floats(label_of, (10,), "label", values)
            segments = {}
            for channel, field in window_fields:
                k, offset = reader.unpack("<II", field)
                if k >= len(spans):
                    why = f"span index {k} out of range ({len(spans)} spans)"
                elif spans[k][0] is not channel:
                    why = f"span {k} holds {spans[k][0].value} samples"
                elif offset + seg_len > spans[k][1].size:
                    why = f"offset {offset} runs past the {spans[k][1].size} samples of span {k}"
                else:
                    why = None
                if why:
                    raise CorruptionError(
                        f"{path}: {field} at byte offset {reader.offset - 8}: {why}")
                window = spans[k][1][offset : offset + seg_len]
                segments[channel] = BioSegment.of_checked_trace(channel, window, frame_index)
            (side,) = reader.unpack("<I", "face side")
            face_at = reader.offset
            reuse = face if face is not None and face.shape == (side, side) else None
            face = reader.checked_floats(finite_image, (side, side), "face payload", reuse)
            samples.append(
                SyncedSample(
                    segments=segments,
                    face=StoredFace(source, face_at, side, timestamp),
                    label=label,
                    subject_id=subject_id,
                    session_id=session_id,
                )
            )
        reader.finish("sample")
    return samples
