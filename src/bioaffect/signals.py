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
        return self.start_time_s + np.arange(self.samples.size) / self.sample_rate_hz


@dataclass
class FrameRecord:
    """One video frame: a grayscale image, with optional face landmarks."""

    timestamp_s: float
    image: np.ndarray
    landmarks: list | None = None

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float64)
        if self.image.ndim != 2:
            raise IngestError(f"frame image must be 2D, got shape {self.image.shape}")
        if not np.isfinite(self.image).all():
            raise IngestError("frame image contains non-finite values")


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
        if self.window.shape != (SEGMENT_LEN,):
            raise ShapeError(
                f"bio segment must have exactly {SEGMENT_LEN} samples, "
                f"got {self.window.shape}"
            )
        # Written so that a NaN, which fails every comparison, is refused too.
        if not (self.window.min() >= 0.0 and self.window.max() <= 1.0):
            raise ValidationError("bio segment values must lie in [0, 1]")


@dataclass
class SyncedSample:
    """One training instance: per-channel segments + face + label."""

    segments: dict
    face: FrameRecord
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
    n_out = max(1, int(round(trace.samples.size * target_hz / trace.sample_rate_hz)))
    t_src = trace.sample_times()
    t_out = trace.start_time_s + np.arange(n_out) / target_hz
    resampled = np.interp(t_out, t_src, trace.samples)
    return SignalTrace(trace.channel, float(target_hz), resampled, trace.start_time_s)


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


def _bilinear_sample(image: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    h, w = image.shape
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = ys - y0
    wx = xs - x0
    top = image[y0[:, None], x0[None, :]] * (1 - wx)[None, :] + image[
        y0[:, None], x1[None, :]
    ] * wx[None, :]
    bottom = image[y1[:, None], x0[None, :]] * (1 - wx)[None, :] + image[
        y1[:, None], x1[None, :]
    ] * wx[None, :]
    return top * (1 - wy)[:, None] + bottom * wy[:, None]


def resize_image(image: np.ndarray, side: int) -> np.ndarray:
    """Bilinear resize of a full 2D image to side x side."""
    h, w = image.shape
    ys = (np.arange(side) + 0.5) * (h / side) - 0.5
    xs = (np.arange(side) + 0.5) * (w / side) - 0.5
    return _bilinear_sample(image, ys, xs)


def crop_face(full_image: np.ndarray, landmarks, side: int = 64) -> np.ndarray:
    """Landmark bounding box + 20% margin, clamped, resized to side x side."""
    full_image = np.asarray(full_image, dtype=np.float64)
    pts = np.asarray(landmarks, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise IngestError("need at least two (x, y) landmarks to crop")
    x0, y0 = pts[:, 0].min(), pts[:, 1].min()
    x1, y1 = pts[:, 0].max(), pts[:, 1].max()
    if x1 <= x0 or y1 <= y0:
        raise IngestError("degenerate landmark box (zero area)")
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


def prepare_face(frame: FrameRecord, side: int = 64) -> FrameRecord:
    """Crop by landmarks when available, else resize."""
    if frame.landmarks:
        face = crop_face(frame.image, frame.landmarks, side=side)
    elif frame.image.shape != (side, side):
        face = resize_image(frame.image, side)
    else:
        face = frame.image
    return FrameRecord(timestamp_s=frame.timestamp_s, image=face)


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
    sample.
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
                face=prepare_face(frame, side=face_size),
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
