"""Synthetic multi-modal sessions with planted signal-to-label couplings.

Each modality encodes a configurable label dimension so that training,
ablation and assessment behavior can be verified on data whose ground
truth is known by construction:

  * ECG pulse rate is linear in arousal (55 + 5 * arousal bpm),
  * EDA tonic level tracks valence, its drift slope tracks liking,
  * face mean intensity tracks valence and the grating orientation
    encodes the emotion class.

Couplings can be disabled or remapped through `SynthSpec.planted_map`;
an unmapped input is held at the scale midpoint so it carries no label
information.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .files import write_lines
from .signals import (
    AFFECT_NAMES, AffectLabel, Channel, SignalTrace, rescale, segment_for_frames,
)
from .session_io import write_pgm, write_signal_csv

DEFAULT_PLANTED_MAP = {
    "ecg_rate": "arousal",
    "eda_level": "valence",
    "eda_rate": None,
    "eda_slope": "liking",
    "face_intensity": "valence",
    "face_orientation": "emotion",
}

FACE_PAD = 8  # frames embed the face pattern with this background margin


def _check_positive(**values) -> None:
    for name, value in values.items():
        if not value > 0:
            raise ConfigError(f"{name} must be positive, got {value}")


def _check_recording(spec) -> None:
    """The checks shared by both spec kinds: sampling rates, noise and face size."""
    _check_hz(spec.signal_hz)
    _check_positive(fps=spec.fps, face_size=spec.face_size)
    if spec.noise_sigma < 0:
        raise ConfigError("noise_sigma must be non-negative")


def _check_planted_map(planted) -> None:
    if not isinstance(planted, dict):
        raise ConfigError(f"planted_map must be an object, got {type(planted).__name__}")
    unknown = sorted(set(planted) - set(DEFAULT_PLANTED_MAP))
    if unknown:
        raise ConfigError(f"planted_map: unknown key(s) {', '.join(map(repr, unknown))}")
    for key, target in planted.items():
        allowed = ("emotion",) if key == "face_orientation" else AFFECT_NAMES
        if target is not None and target not in allowed:
            raise ConfigError(
                f"planted_map[{key!r}] must be one of {', '.join(allowed)} or null, "
                f"got {target!r}"
            )


@dataclass
class SynthSpec:
    """Shape of a generated corpus and which couplings are planted."""

    n_subjects: int = 2
    trials_per_subject: int = 2
    trial_seconds: float = 20.0
    rng_seed: int = 0
    noise_sigma: float = 0.02
    signal_hz: float = 128.0
    fps: float = 0.6
    face_size: int = 64
    planted_map: dict = field(default_factory=lambda: dict(DEFAULT_PLANTED_MAP))

    def __post_init__(self):
        if self.n_subjects < 1 or self.trials_per_subject < 1:
            raise ConfigError("subject and trial counts must be positive")
        _check_positive(trial_seconds=self.trial_seconds)
        _check_recording(self)
        _check_planted_map(self.planted_map)


def heart_rate_bpm(arousal: float) -> float:
    return 55.0 + 5.0 * arousal


def _gaussian_pulses(t: np.ndarray, pulse_times, width: float = 0.03) -> np.ndarray:
    sig = np.zeros_like(t)
    for tk in pulse_times:
        lo = np.searchsorted(t, tk - 5 * width)
        hi = np.searchsorted(t, tk + 5 * width)
        if hi > lo:
            sig[lo:hi] += np.exp(-0.5 * ((t[lo:hi] - tk) / width) ** 2)
    return sig


def _check_hz(hz: float) -> None:
    if float(hz) not in (128.0, 800.0):
        raise ConfigError(f"generator supports 128 or 800 Hz, got {hz}")


def gen_ecg(
    label: AffectLabel,
    seconds: float,
    hz: float,
    seed: int,
    noise_sigma: float = 0.02,
) -> SignalTrace:
    """QRS-like Gaussian pulse train whose rate encodes arousal."""
    _check_hz(hz)
    rng = np.random.default_rng([int(seed), 101])
    period = 60.0 / heart_rate_bpm(label.arousal)
    pulse_times = np.arange(0.3 * period, seconds, period)
    pulse_times = pulse_times + rng.normal(0.0, 0.004, size=pulse_times.size)
    t = np.arange(int(round(seconds * hz))) / hz
    sig = _gaussian_pulses(t, pulse_times)
    sig += 0.05 * np.sin(2 * np.pi * 0.25 * t)  # slow baseline wander
    if noise_sigma > 0:
        sig += noise_sigma * rng.standard_normal(t.size)
    return SignalTrace(Channel.ECG, float(hz), sig)


def burst_times(rng: np.random.Generator, rate_per_s: float, seconds: float) -> np.ndarray:
    """Poisson event times on [0, seconds)."""
    n = rng.poisson(rate_per_s * seconds) if rate_per_s > 0 else 0
    return np.sort(rng.uniform(0.0, seconds, size=n))


def _eda_bursts(t: np.ndarray, events, amp: float = 0.35) -> np.ndarray:
    sig = np.zeros_like(t)
    for tb in events:
        after = t >= tb
        dt = t[after] - tb
        sig[after] += amp * (1.0 - np.exp(-dt / 0.12)) * np.exp(-dt / 1.2)
    return sig


def gen_eda(
    label: AffectLabel,
    seconds: float,
    hz: float,
    seed: int,
    noise_sigma: float = 0.02,
    burst_rate_scale: float = 0.12,
) -> SignalTrace:
    """Tonic drift plus Poisson phasic bursts.

    Tonic level is proportional to valence, drift slope to liking, and
    burst rate to arousal (scaled by `burst_rate_scale`; 0 turns bursts
    off entirely, leaving the pure tonic ramp).
    """
    _check_hz(hz)
    rng = np.random.default_rng([int(seed), 202])
    t = np.arange(int(round(seconds * hz))) / hz
    level = 0.10 + 0.08 * label.valence
    slope = 0.002 * (label.liking - 5.0)
    sig = level + slope * t
    events = burst_times(rng, burst_rate_scale * label.arousal, seconds)
    sig += _eda_bursts(t, events)
    if noise_sigma > 0:
        sig += noise_sigma * rng.standard_normal(t.size)
    return SignalTrace(Channel.EDA, float(hz), sig)


def gen_face(label: AffectLabel, seed: int, side: int = 64) -> np.ndarray:
    """Procedural face stand-in on [0, 1].

    Mean intensity is linear in valence; a fixed-phase sinusoidal grating
    oriented by the emotion class makes the class recoverable by a small
    CNN (or even a linear probe).
    """
    rng = np.random.default_rng([int(seed), 303])
    base = 0.13 + 0.10 * (label.valence - 1.0)
    theta = np.pi * label.emotion_class() / 7.0
    coords = (np.arange(side) + 0.5) / side
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    pattern = np.sin(2 * np.pi * 6.0 * (xx * np.cos(theta) + yy * np.sin(theta)))
    img = base + 0.04 * pattern + 0.01 * rng.standard_normal((side, side))
    return np.clip(img, 0.0, 1.0)


def _frame_image(face: np.ndarray) -> tuple:
    """Embed a face patch in a larger neutral frame; landmarks mark its box."""
    side = face.shape[0]
    frame = np.full((side + 2 * FACE_PAD, side + 2 * FACE_PAD), 0.5)
    frame[FACE_PAD : FACE_PAD + side, FACE_PAD : FACE_PAD + side] = face
    lo, hi = FACE_PAD, FACE_PAD + side - 1
    mid = (lo + hi) / 2.0
    landmarks = [(lo, lo), (hi, lo), (lo, hi), (hi, hi), (mid, mid)]
    return frame, landmarks


def _dim_value(label: AffectLabel, source: str | None) -> float:
    if source is None:
        return 5.0
    return float(getattr(label, source))


def _effective_labels(label: AffectLabel, planted: dict) -> tuple:
    """Per-modality labels with unplanted dimensions held at midpoint."""
    ecg = AffectLabel(5.0, _dim_value(label, planted.get("ecg_rate")), 5.0)
    eda = AffectLabel(
        _dim_value(label, planted.get("eda_level")),
        _dim_value(label, planted.get("eda_rate")),
        _dim_value(label, planted.get("eda_slope")),
    )
    if planted.get("face_orientation") == "emotion":
        face_emotions = label.emotions
    else:
        face_emotions = np.eye(7)[0]
    face = AffectLabel(
        _dim_value(label, planted.get("face_intensity")), 5.0, 5.0,
        emotions=face_emotions,
    )
    return ecg, eda, face


def _write_session_files(
    session_dir: Path,
    session_id: str,
    ecg: SignalTrace,
    eda: SignalTrace,
    frame_times: np.ndarray,
    faces: list,
) -> None:
    session_dir.mkdir(parents=True, exist_ok=True)
    write_signal_csv(session_dir / f"{session_id}_ECG.csv", ecg)
    write_signal_csv(session_dir / f"{session_id}_EDA.csv", eda)
    frames_dir = session_dir / "frames"
    frames_dir.mkdir(exist_ok=True)
    frame_rows = ["frame_index,timestamp_s"]
    landmark_rows = []
    for idx, (t, face) in enumerate(zip(frame_times, faces)):
        frame, landmarks = _frame_image(face)
        write_pgm(frames_dir / f"{idx}.pgm", frame)
        frame_rows.append(f"{idx},{float(t)!r}")
        coords = ",".join(f"{x!r},{y!r}" for x, y in landmarks)
        landmark_rows.append(f"{idx},{coords}")
    write_lines(frames_dir / "frames.csv", frame_rows)
    write_lines(frames_dir / "landmarks.csv", landmark_rows)


def _label_json(subject: str, session: str, label: AffectLabel) -> str:
    return json.dumps(
        {
            "subject": subject,
            "session": session,
            "valence": label.valence,
            "arousal": label.arousal,
            "liking": label.liking,
            "emotions": list(label.emotions),
        },
        sort_keys=True,
    )


def gen_dataset(spec: SynthSpec, out_dir) -> list:
    """Write a full corpus in the session formats; returns session dirs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    label_lines = []
    session_dirs = []
    for si in range(spec.n_subjects):
        subject = f"p{si:02d}"
        for ti in range(spec.trials_per_subject):
            rng = np.random.default_rng([spec.rng_seed, si, ti])
            vals = np.clip(rng.normal(5.0, 1.5, size=3), 1.0, 9.0)
            emotions = np.eye(7)[rng.integers(7)]
            label = AffectLabel(vals[0], vals[1], vals[2], emotions=emotions)
            session = f"{subject}_t{ti:02d}"
            trial_seed = int(rng.integers(2**31 - 1))
            ecg_label, eda_label, face_label = _effective_labels(
                label, spec.planted_map
            )
            ecg = gen_ecg(
                ecg_label, spec.trial_seconds, spec.signal_hz, trial_seed,
                noise_sigma=spec.noise_sigma,
            )
            eda = gen_eda(
                eda_label, spec.trial_seconds, spec.signal_hz, trial_seed + 1,
                noise_sigma=spec.noise_sigma,
            )
            n_frames = max(1, int(spec.trial_seconds * spec.fps))
            frame_times = (np.arange(n_frames) + 0.5) / spec.fps
            faces = [
                gen_face(face_label, trial_seed + 2 + k, side=spec.face_size)
                for k in range(n_frames)
            ]
            session_dir = out_dir / session
            _write_session_files(session_dir, session, ecg, eda, frame_times, faces)
            label_lines.append(_label_json(subject, session, label))
            session_dirs.append(session_dir)
    write_lines(out_dir / "labels.jsonl", label_lines)
    return session_dirs


@dataclass
class TherapySpec:
    """One long session whose planted affect drifts linearly over time."""

    minutes: float = 34.0
    rng_seed: int = 0
    start_valence: float = 2.5
    start_arousal: float = 7.5
    end_valence: float = 7.5
    end_arousal: float = 2.5
    noise_sigma: float = 0.02
    signal_hz: float = 128.0
    fps: float = 0.25
    face_size: int = 64
    patient_id: str = "patient00"

    def __post_init__(self):
        _check_positive(minutes=self.minutes)
        _check_recording(self)
        for name in ("start_valence", "start_arousal", "end_valence", "end_arousal"):
            if not 1.0 <= getattr(self, name) <= 9.0:
                raise ConfigError(f"{name} = {getattr(self, name)} outside [1, 9]")


def gen_therapy_session(spec: TherapySpec, out_dir) -> Path:
    """Write one drifting session; returns its directory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seconds = spec.minutes * 60.0
    rng = np.random.default_rng([spec.rng_seed, 404])

    def valence_at(t):
        return spec.start_valence + (spec.end_valence - spec.start_valence) * t / seconds

    def arousal_at(t):
        return spec.start_arousal + (spec.end_arousal - spec.start_arousal) * t / seconds

    # Pulse times stepped with the local rate so ECG rate follows arousal.
    pulse_times = []
    t_pulse = 0.3
    while t_pulse < seconds:
        pulse_times.append(t_pulse)
        t_pulse += 60.0 / heart_rate_bpm(arousal_at(t_pulse))
    pulse_times = np.asarray(pulse_times) + rng.normal(0.0, 0.004, size=len(pulse_times))

    t = np.arange(int(round(seconds * spec.signal_hz))) / spec.signal_hz
    ecg_sig = _gaussian_pulses(t, pulse_times)
    ecg_sig += 0.05 * np.sin(2 * np.pi * 0.25 * t)
    if spec.noise_sigma > 0:
        ecg_sig += spec.noise_sigma * rng.standard_normal(t.size)
    ecg = SignalTrace(Channel.ECG, spec.signal_hz, ecg_sig)

    eda_sig = 0.10 + 0.08 * valence_at(t)
    eda_sig = eda_sig + _eda_bursts(t, burst_times(rng, 0.6, seconds))
    if spec.noise_sigma > 0:
        eda_sig += spec.noise_sigma * rng.standard_normal(t.size)
    eda = SignalTrace(Channel.EDA, spec.signal_hz, eda_sig)

    n_frames = max(2, int(seconds * spec.fps))
    frame_times = (np.arange(n_frames) + 0.5) / spec.fps
    faces = []
    for k, ft in enumerate(frame_times):
        face_label = AffectLabel(
            float(np.clip(valence_at(ft), 1.0, 9.0)), 5.0, 5.0, emotions=np.eye(7)[0]
        )
        faces.append(gen_face(face_label, spec.rng_seed + 1000 + k, side=spec.face_size))

    session = f"{spec.patient_id}_therapy"
    session_dir = out_dir / session
    _write_session_files(session_dir, session, ecg, eda, frame_times, faces)
    neutral = AffectLabel(5.0, 5.0, 5.0, emotions=np.eye(7)[0])
    write_lines(out_dir / "labels.jsonl", [_label_json(spec.patient_id, session, neutral)])
    return session_dir


def gen_ecg_segments(n_segments: int, seed: int) -> list:
    """Scaled SEGMENT_LEN ECG windows for standalone reconstruction training."""
    rng = np.random.default_rng([int(seed), 505])
    windows = []
    while len(windows) < n_segments:
        arousal = float(np.clip(rng.normal(5.0, 1.5), 1.0, 9.0))
        label = AffectLabel(5.0, arousal, 5.0)
        trace = rescale(gen_ecg(label, 15.0, 128.0, int(rng.integers(2**31 - 1))))
        frame_times = 2.0 + 2.5 * np.arange(4)
        for seg in segment_for_frames(trace, frame_times):
            windows.append(seg.window)
            if len(windows) == n_segments:
                break
    return windows
