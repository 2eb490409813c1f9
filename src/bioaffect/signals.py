"""Physiological signal preprocessing and frame synchronization.

Raw recordings arrive either as 128 Hz exports or as 800 Hz therapy
recordings with 60 fps frame streams. Everything is funneled to a common
shape: per frame, one 1000-sample window per bio channel (scaled to
[0, 1]) plus the face payload and the session's affect label.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import IngestError, ShapeError, ValidationError

MODEL_HZ = 128.0
SEGMENT_LEN = 1000
SUPPORTED_SOURCE_HZ = (128.0, 800.0)
EMOTION_NAMES = ("neutral", "disgust", "joy", "surprise", "anger", "fear", "sadness")
AFFECT_NAMES = ("valence", "arousal", "liking")
LABEL_NAMES = AFFECT_NAMES + EMOTION_NAMES
ALIGNMENTS = ("centered", "leading", "trailing")
# Output samples `resample` interpolates at a time: 64 KB of output times,
# against about 410 KB of source times at 800 Hz to 128 Hz.
_RESAMPLE_BLOCK = 1 << 13


class Channel(str, Enum):
    ECG = "ECG"
    EDA = "EDA"


@dataclass
class SignalTrace:
    """One physiological channel as a uniformly sampled sequence."""

    channel: Channel
    sample_rate_hz: float
    samples: np.ndarray
    start_time_s: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise IngestError(f"{self.channel.value}: trace must be a non-empty vector")
        if not np.isfinite(self.samples).all():
            raise IngestError(f"{self.channel.value}: trace contains non-finite values")
        if self.sample_rate_hz <= 0:
            raise IngestError(f"{self.channel.value}: sample rate must be positive")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def sample_times(self) -> np.ndarray:
        return _time_grid(self.start_time_s, self.samples.size, self.sample_rate_hz)


def _time_grid(start: float, n: int, rate: float, first: int = 0) -> np.ndarray:
    """The bits of `start + np.arange(first, first + n) / rate`, built as one array."""
    grid = np.arange(first, first + n, dtype=np.float64)
    grid /= rate
    grid += start
    return grid


@dataclass
class FrameRecord:
    """One video frame: a grayscale image, with optional face landmarks.

    An 8-bit image (uint8, 0 to 255, as a PGM frame is read) is kept as it
    is, a byte a pixel, until `prepare_face` scales it onto [0, 1]; any
    other image is taken as float64 values.
    """

    timestamp_s: float
    image: np.ndarray
    landmarks: list | None = None

    def __post_init__(self):
        if getattr(self.image, "dtype", None) != np.uint8:
            self.image = np.asarray(self.image, dtype=np.float64)
        if self.image.ndim != 2:
            raise IngestError(f"frame image must be 2D, got shape {self.image.shape}")
        if self.image.dtype != np.uint8:
            finite_image(self.image)


def finite_image(image: np.ndarray) -> np.ndarray:
    """`image`, which must be finite: tested by its extremes, which a NaN
    becomes too, so that no temporary of the image's size is made."""
    if image.size and not (np.isfinite(image.min()) and np.isfinite(image.max())):
        raise IngestError("frame image contains non-finite values")
    return image


@dataclass
class AffectLabel:
    """Valence/arousal/liking on [1, 9] plus seven emotion indicators in [0, 1]."""

    valence: float
    arousal: float
    liking: float
    emotions: np.ndarray = field(default_factory=lambda: np.zeros(7))

    def __post_init__(self):
        for name in AFFECT_NAMES:
            v = float(getattr(self, name))
            if not (1.0 <= v <= 9.0):
                raise ValidationError(f"{name} = {v} outside [1, 9]")
            setattr(self, name, v)
        self.emotions = np.asarray(self.emotions, dtype=np.float64)
        if self.emotions.shape != (7,):
            raise ValidationError(f"emotions must have 7 entries, got {self.emotions.shape}")
        if not ((self.emotions >= 0) & (self.emotions <= 1)).all():  # NaN fails too
            raise ValidationError("emotion indicators must lie in [0, 1]")

    def emotion_class(self) -> int:
        return int(np.argmax(self.emotions))


@dataclass
class BioSegment:
    """A 1000-sample window of one channel, scaled to [0, 1], tied to a frame."""

    channel: Channel
    window: np.ndarray
    frame_index: int

    def __post_init__(self):
        self.window = np.asarray(self.window, dtype=np.float64)
        self._check_shape()
        # Written so that a NaN, which fails every comparison, is refused too.
        if not (self.window.min() >= 0.0 and self.window.max() <= 1.0):
            raise ValidationError("bio segment values must lie in [0, 1]")

    @classmethod
    def of_checked_trace(cls, channel: Channel, window: np.ndarray,
                         frame_index: int) -> "BioSegment":
        """A segment whose float64 `window` views a trace already checked to
        lie in [0, 1], as `read_samples` checks each span whole: its shape is
        checked, its values are not scanned again."""
        segment = cls.__new__(cls)
        segment.channel, segment.window, segment.frame_index = channel, window, frame_index
        segment._check_shape()
        return segment

    def _check_shape(self):
        if self.window.shape != (SEGMENT_LEN,):
            raise ShapeError(
                f"bio segment must have exactly {SEGMENT_LEN} samples, "
                f"got {self.window.shape}"
            )


@dataclass
class SyncedSample:
    """One training instance: per-channel segments + face + label.

    `face` is any object with a `timestamp_s` and an `image`, the prepared
    face as a square float64 array. `read_samples` gives a stored face,
    which reads it from its samples file each time `image` is read, and
    `synchronize` a `FaceCrop`, which crops it from its frame each time;
    both make a new array on each read and refuse an assignment to `image`
    (AttributeError). A FrameRecord of the prepared face serves too.
    """

    segments: dict
    face: object
    label: AffectLabel
    subject_id: str
    session_id: str

    def __post_init__(self):
        if set(self.segments) != {Channel.ECG, Channel.EDA}:
            raise IngestError(
                f"sample must carry exactly ECG and EDA segments, got "
                f"{sorted(c.value for c in self.segments)}"
            )
        indices = {seg.frame_index for seg in self.segments.values()}
        if len(indices) != 1:
            raise IngestError("all segments of a sample must share one frame index")

    @property
    def frame_index(self) -> int:
        return next(iter(self.segments.values())).frame_index


# --- operations -------------------------------------------------------------


def resample(trace: SignalTrace, target_hz: float) -> SignalTrace:
    """Linear interpolation onto a uniform grid at `target_hz`.

    The sample count is chosen so the duration is preserved to within one
    output sample period; constants pass through exactly.
    """
    if target_hz <= 0:
        raise IngestError(f"target rate must be positive, got {target_hz}")
    if abs(target_hz - trace.sample_rate_hz) < 1e-12:
        return trace
    n_src, rate, start = trace.samples.size, trace.sample_rate_hz, trace.start_time_s
    n_out = max(1, int(round(n_src * target_hz / rate)))
    resampled = np.empty(n_out)
    # One block of output times at a time, against the slice of the source
    # grid (the bits of `start + np.arange(n_src) / rate`) that brackets
    # them: two source samples of slack on each side, so every output time
    # falls in the same source interval as it would on the whole grid, and
    # lands on the slice's last time only if that is the trace's last.
    for lo in range(0, n_out, _RESAMPLE_BLOCK):
        t_out = _time_grid(start, min(n_out - lo, _RESAMPLE_BLOCK), target_hz, first=lo)
        a = max(int((t_out[0] - start) * rate) - 2, 0)
        b = min(int((t_out[-1] - start) * rate) + 3, n_src)
        resampled[lo : lo + t_out.size] = np.interp(
            t_out, _time_grid(start, b - a, rate, first=a), trace.samples[a:b])
    return SignalTrace(trace.channel, float(target_hz), resampled, start)


def rescale(trace: SignalTrace) -> SignalTrace:
    """Per-session min-max scaling onto [0, 1].

    A constant trace carries no range information; it maps to all 0.5 and
    a warning is emitted.
    """
    lo = trace.samples.min()
    hi = trace.samples.max()
    if hi == lo:
        warnings.warn(
            f"{trace.channel.value}: constant trace, rescaled to all 0.5",
            stacklevel=2,
        )
        scaled = np.full_like(trace.samples, 0.5)
    else:
        scaled = (trace.samples - lo) / (hi - lo)
    return SignalTrace(trace.channel, trace.sample_rate_hz, scaled, trace.start_time_s)


def segment_for_frames(
    trace: SignalTrace, frame_times, alignment: str = "centered"
) -> list:
    """Cut one SEGMENT_LEN window per frame time out of a scaled trace.

    The window is anchored on the sample nearest to the frame timestamp;
    edge-replicate padding makes every window valid no matter where the
    frame falls. `alignment` places the anchor at the window center
    (default), its first sample ("leading") or its last ("trailing").
    """
    if alignment not in ALIGNMENTS:
        raise IngestError(f"alignment must be one of {ALIGNMENTS}, got {alignment!r}")
    padded = np.pad(trace.samples, SEGMENT_LEN, mode="edge")
    n = trace.samples.size
    segments = []
    for frame_index, t in enumerate(frame_times):
        center = int(round((t - trace.start_time_s) * trace.sample_rate_hz))
        center = min(max(center, 0), n - 1)
        if alignment == "centered":
            start = center + SEGMENT_LEN - SEGMENT_LEN // 2
        elif alignment == "leading":
            start = center + SEGMENT_LEN
        else:
            start = center + 1
        window = padded[start : start + SEGMENT_LEN]
        segments.append(BioSegment(trace.channel, window, frame_index))
    return segments


def _unit_pixels(pixels: np.ndarray) -> np.ndarray:
    """8-bit pixels as float64 on [0, 1]: the one place a frame becomes float."""
    return pixels / 255.0


def _lines_read(i0: np.ndarray, i1: np.ndarray, n: int) -> tuple:
    """The lines (rows or columns) of an axis of `n` that the indices `i0`
    and `i1` read, in order, and each index as a position among them."""
    read = np.zeros(n, dtype=bool)
    read[i0] = read[i1] = True
    position = np.cumsum(read) - 1
    return np.flatnonzero(read), position[i0], position[i1]


def _bilinear_sample(image: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """`image` at the grid `ys` x `xs`, clamped to it, as float64.

    An 8-bit image is read through `_unit_pixels`, and only at the rows and
    columns that the grid reads, so a crop or resize of a large frame never
    makes a float copy of the whole frame (a 64-side grid reads at most 128
    rows and 128 columns).
    """
    h, w = image.shape
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = ys - y0
    wx = xs - x0
    if image.dtype == np.uint8:
        rows, y0, y1 = _lines_read(y0, y1, h)
        cols, x0, x1 = _lines_read(x0, x1, w)
        image = _unit_pixels(image[rows][:, cols])
    # The two source rows, then their columns: the bits of four broadcast
    # 2-D gathers (the tests' reference) from less indexing work.
    row0 = image[y0]
    row1 = image[y1]
    top = row0[:, x0] * (1 - wx)[None, :] + row0[:, x1] * wx[None, :]
    bottom = row1[:, x0] * (1 - wx)[None, :] + row1[:, x1] * wx[None, :]
    return top * (1 - wy)[:, None] + bottom * wy[:, None]


def resize_image(image: np.ndarray, side: int) -> np.ndarray:
    """Bilinear resize of a full 2D image (float, or 8-bit) to side x side."""
    h, w = image.shape
    ys = (np.arange(side) + 0.5) * (h / side) - 0.5
    xs = (np.arange(side) + 0.5) * (w / side) - 0.5
    return _bilinear_sample(image, ys, xs)


def _landmark_box(landmarks) -> tuple:
    """`(x0, y0, x1, y1)`, the bounding box of at least two landmarks with an area."""
    pts = np.asarray(landmarks, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise IngestError("need at least two (x, y) landmarks to crop")
    if not np.isfinite(pts).all():
        raise IngestError("landmarks must be finite to crop")
    x0, y0 = pts[:, 0].min(), pts[:, 1].min()
    x1, y1 = pts[:, 0].max(), pts[:, 1].max()
    if x1 <= x0 or y1 <= y0:
        raise IngestError("degenerate landmark box (zero area)")
    return x0, y0, x1, y1


def crop_face(full_image: np.ndarray, landmarks, side: int = 64) -> np.ndarray:
    """Landmark bounding box + 20% margin, clamped, resized to side x side.

    An 8-bit image is scaled onto [0, 1] only inside the box.
    """
    if getattr(full_image, "dtype", None) != np.uint8:
        full_image = np.asarray(full_image, dtype=np.float64)
    x0, y0, x1, y1 = _landmark_box(landmarks)
    mx = 0.2 * (x1 - x0)
    my = 0.2 * (y1 - y0)
    h, w = full_image.shape
    x0 = max(x0 - mx, 0.0)
    x1 = min(x1 + mx, w - 1.0)
    y0 = max(y0 - my, 0.0)
    y1 = min(y1 + my, h - 1.0)
    # Box edges in pixel-edge coordinates (pixel i covers [i, i+1)), so a
    # box spanning all landmarks of a full image reduces to a plain resize.
    bh = y1 - y0 + 1.0
    bw = x1 - x0 + 1.0
    ys = y0 + (np.arange(side) + 0.5) * (bh / side) - 0.5
    xs = x0 + (np.arange(side) + 0.5) * (bw / side) - 0.5
    return _bilinear_sample(full_image, ys, xs)


def prepare_face(frame: FrameRecord, side: int = 64) -> np.ndarray:
    """The face of `frame` as a new side x side float64 array: cropped by
    landmarks when available, else resized.

    An 8-bit frame becomes float here: of the pixels the crop or resize
    reads (`_bilinear_sample`), or of the whole frame if it is already the
    face's size. A float frame of that size is copied, so the face never
    shares the frame's memory.
    """
    image = frame.image
    if frame.landmarks:
        return crop_face(image, frame.landmarks, side=side)
    if image.shape != (side, side):
        return resize_image(image, side)
    return _unit_pixels(image) if image.dtype == np.uint8 else image.copy()


class FaceCrop:
    """A synchronized sample's face: `prepare_face(frame, side)`, made each
    time `image` is read and not kept, so a sample holds its frame as read
    (a byte a pixel for a PGM frame) rather than a float64 face.

    `timestamp_s` is a plain attribute: sorting and windowing samples by
    time never crop. Landmarks that cannot be cropped are refused here.
    """

    __slots__ = ("frame", "side", "timestamp_s")

    def __init__(self, frame: FrameRecord, side: int):
        if frame.landmarks:
            _landmark_box(frame.landmarks)
        self.frame = frame
        self.side = side
        self.timestamp_s = frame.timestamp_s

    @property
    def image(self) -> np.ndarray:
        return prepare_face(self.frame, side=self.side)


def synchronize(
    traces: dict,
    frames: list,
    label: AffectLabel,
    subject_id: str,
    session_id: str,
    face_size: int = 64,
    alignment: str = "centered",
) -> list:
    """Produce one SyncedSample per frame, bio windows anchored on frame times.

    Both channels must be present and already resampled to a common rate
    and scaled to [0, 1]; the session label is replicated onto every
    sample. Each sample's face is a `FaceCrop` of its frame, cropped when
    it is read.
    """
    missing = [c.value for c in (Channel.ECG, Channel.EDA) if c not in traces]
    if missing:
        raise IngestError(f"missing channel(s): {', '.join(missing)}")
    if not frames:
        raise IngestError("no frames to synchronize")
    rates = {traces[c].sample_rate_hz for c in (Channel.ECG, Channel.EDA)}
    if len(rates) != 1:
        raise IngestError(f"channels disagree on sample rate: {sorted(rates)}")
    frame_times = [f.timestamp_s for f in frames]
    if any(b <= a for a, b in zip(frame_times, frame_times[1:])):
        raise IngestError("frame timestamps must be strictly increasing")
    per_channel = {
        c: segment_for_frames(traces[c], frame_times, alignment=alignment)
        for c in (Channel.ECG, Channel.EDA)
    }
    samples = []
    for i, frame in enumerate(frames):
        samples.append(
            SyncedSample(
                segments={c: per_channel[c][i] for c in per_channel},
                face=FaceCrop(frame, face_size),
                label=label,
                subject_id=subject_id,
                session_id=session_id,
            )
        )
    return samples


def label_targets(label: AffectLabel) -> np.ndarray:
    """The 10 regression targets on a common [0, 1] scale."""
    return np.concatenate(
        [
            [(label.valence - 1.0) / 8.0, (label.arousal - 1.0) / 8.0,
             (label.liking - 1.0) / 8.0],
            label.emotions,
        ]
    )
