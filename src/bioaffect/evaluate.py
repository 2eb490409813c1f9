"""Per-label precision, modality ablation, and the circumplex assessment.

Precision works on binarized labels: affect dimensions split at the scale
midpoint (above 5 counts as high, exactly 5 as low), emotions by argmax
one-vs-rest. A label that is never predicted positive has undefined
precision; it is reported as absent and excluded from the macro average
rather than silently counted as perfect abstention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .bmmn import (
    AffectEstimate,
    TrainConfig,
    TrainResult,
    train,
)
from .errors import ConfigError, GraphError, ValidationError
from .signals import AFFECT_NAMES, EMOTION_NAMES, LABEL_NAMES


def binarize_affect(value: float) -> str:
    """Split a [1, 9] rating at the midpoint; exactly 5 counts as low."""
    return "high" if value > 5.0 else "low"


@dataclass
class PrecisionReport:
    """Per-label precision in percent; None marks an undefined (never-predicted) label."""

    per_label: dict
    macro_average: float
    n: int

    def __getitem__(self, name: str):
        return self.per_label[name]

    def defined(self) -> dict:
        return {k: v for k, v in self.per_label.items() if v is not None}


def _precision_percent(pairs) -> float | None:
    """100 * TP / (TP + FP) over (predicted positive, truly positive) pairs;
    None when nothing was predicted positive."""
    truths = [truth for predicted, truth in pairs if predicted]
    return 100.0 * sum(truths) / len(truths) if truths else None


def precision(predictions: list, labels: list) -> PrecisionReport:
    """TP / (TP + FP) per label over paired predictions and ground truth."""
    if len(predictions) != len(labels):
        raise GraphError(
            f"precision: {len(predictions)} predictions vs {len(labels)} labels"
        )
    if not predictions:
        raise GraphError("precision: need at least one prediction")
    per_label: dict = {}
    for name in AFFECT_NAMES:
        per_label[name] = _precision_percent(
            (binarize_affect(getattr(est, name)) == "high",
             binarize_affect(getattr(label, name)) == "high")
            for est, label in zip(predictions, labels)
        )
    pred_classes = [est.emotion_class() for est in predictions]
    true_classes = [label.emotion_class() for label in labels]
    for c, name in enumerate(EMOTION_NAMES):
        per_label[name] = _precision_percent(
            (p == c, t == c) for p, t in zip(pred_classes, true_classes)
        )
    defined = [v for v in per_label.values() if v is not None]
    macro = float(np.mean(defined)) if defined else 0.0
    return PrecisionReport(per_label=per_label, macro_average=macro, n=len(predictions))


def report_rows(report: PrecisionReport) -> list:
    rows = [("label", "precision_percent")]
    for name in LABEL_NAMES:
        value = report.per_label[name]
        rows.append((name, "" if value is None else repr(value)))
    rows.append(("macro_average", repr(report.macro_average)))
    return rows


# --- trial-level evaluation ---------------------------------------------------


def trial_predictions(model, samples: list, per_frame: bool = False) -> tuple:
    """Predictions paired with labels, per trial (frame-mean) or per frame."""
    if per_frame:
        preds = [model.predict(s) for s in samples]
        return preds, [s.label for s in samples]
    groups: dict = {}
    for s in samples:
        groups.setdefault((s.subject_id, s.session_id), []).append(s)
    preds = []
    labels = []
    for key in sorted(groups):
        members = groups[key]
        stacked = np.stack([model.predict(s).values for s in members])
        preds.append(AffectEstimate(stacked.mean(axis=0)))
        labels.append(members[0].label)
    return preds, labels


def evaluate_model(model, samples: list, per_frame: bool = False) -> PrecisionReport:
    preds, labels = trial_predictions(model, samples, per_frame=per_frame)
    return precision(preds, labels)


# --- ablation ------------------------------------------------------------------


ARM_STREAMS = {
    "bio_only": dict(use_bio=True, use_spatial=False),
    "face_only": dict(use_bio=False, use_spatial=True),
    "multimodal": dict(use_bio=True, use_spatial=True),
}


@dataclass
class AblationResult:
    reports: dict
    models: dict = field(default_factory=dict)
    configs: dict = field(default_factory=dict)
    train_results: dict = field(default_factory=dict)


def ablation_run(samples: list, config: TrainConfig, spec=None) -> AblationResult:
    """Train and score the three stream configurations under identical
    seeds and subject splits; the arm configs differ only in stream masks.

    The single-modality arms train from scratch; the multi-modal arm then
    warm-starts its per-modality conv stacks from them before the joint
    pass (the staged strategy: each network is trained separately first,
    then everything is trained together).
    """
    if config.variant != "bmmn":
        raise ConfigError("ablation arms are stream masks of the base variant")
    result = AblationResult(reports={})
    warm: dict = {}
    for arm, masks in ARM_STREAMS.items():
        arm_config = replace(config, **masks)
        arm_spec = replace(spec, **masks) if spec is not None else None
        init = None
        if arm == "multimodal" and warm:
            init = warm
        outcome: TrainResult = train(samples, arm_config, spec=arm_spec, init_values=init)
        if arm in ("bio_only", "face_only"):
            prefix = "bio." if arm == "bio_only" else "spatial."
            warm.update(
                {
                    name: t.data.copy()
                    for name, t in outcome.model.store.items()
                    if name.startswith(prefix)
                }
            )
        eval_samples = [s for s in samples if s.subject_id in outcome.eval_subjects]
        report = evaluate_model(outcome.model, eval_samples)
        result.reports[arm] = report
        result.models[arm] = outcome.model
        result.configs[arm] = arm_config
        result.train_results[arm] = outcome
    return result


# --- circumplex mapping and therapy assessment ---------------------------------


class Quadrant(str, Enum):
    HVHA = "HVHA"
    LVHA = "LVHA"
    LVLA = "LVLA"
    HVLA = "HVLA"


@dataclass(frozen=True)
class QuadrantPoint:
    valence_scaled: float
    arousal_scaled: float
    quadrant: Quadrant


def to_quadrant(valence: float, arousal: float) -> QuadrantPoint:
    """Map [1, 9] ratings onto [-1, 1] x [-1, 1]; zero coordinates resolve
    toward the low side, so the axes belong to LVLA/HVLA/LVHA."""
    for name, v in (("valence", valence), ("arousal", arousal)):
        if not (1.0 <= v <= 9.0):
            raise ValidationError(f"{name} = {v} outside [1, 9]")
    vs = float((valence - 5.0) / 4.0)
    as_ = float((arousal - 5.0) / 4.0)
    high_v = vs > 0.0
    high_a = as_ > 0.0
    if high_v and high_a:
        q = Quadrant.HVHA
    elif high_a:
        q = Quadrant.LVHA
    elif high_v:
        q = Quadrant.HVLA
    else:
        q = Quadrant.LVLA
    return QuadrantPoint(vs, as_, q)


@dataclass
class PatientAssessment:
    patient: str
    pre: QuadrantPoint
    post: QuadrantPoint
    movement: tuple  # (delta valence, delta arousal) in scaled units
    magnitude: float
    q2_to_q4: bool
    clipped_windows: bool = False


@dataclass
class TherapyReport:
    patients: list
    q2_to_q4_count: int


def _window_mean(model, members: list) -> tuple:
    ests = [model.predict(s) for s in members]
    return (
        float(np.mean([e.valence for e in ests])),
        float(np.mean([e.arousal for e in ests])),
    )


def therapy_assess(samples: list, model, window_minutes: float = 15.0) -> PatientAssessment:
    """Mean estimate over the first and last window of one session.

    Sessions shorter than two windows are split at their midpoint instead
    (with a warning); the two windows never overlap either way.
    """
    if not samples:
        raise GraphError("therapy_assess: no samples")
    ordered = sorted(samples, key=lambda s: s.face.timestamp_s)
    t0 = ordered[0].face.timestamp_s
    t1 = ordered[-1].face.timestamp_s
    duration = t1 - t0
    window_s = window_minutes * 60.0
    clipped = duration < 2.0 * window_s
    if clipped:
        warnings.warn(
            f"session duration {duration:.0f}s < two {window_s:.0f}s windows; "
            "using first/second halves",
            stacklevel=2,
        )
        mid = t0 + duration / 2.0
        pre = [s for s in ordered if s.face.timestamp_s < mid]
        post = [s for s in ordered if s.face.timestamp_s >= mid]
    else:
        pre = [s for s in ordered if s.face.timestamp_s < t0 + window_s]
        post = [s for s in ordered if s.face.timestamp_s > t1 - window_s]
    if not pre or not post:
        raise GraphError("therapy_assess: a window contains no frames")
    pre_point = to_quadrant(*_window_mean(model, pre))
    post_point = to_quadrant(*_window_mean(model, post))
    movement = (
        post_point.valence_scaled - pre_point.valence_scaled,
        post_point.arousal_scaled - pre_point.arousal_scaled,
    )
    magnitude = float(np.hypot(*movement))
    return PatientAssessment(
        patient=ordered[0].subject_id,
        pre=pre_point,
        post=post_point,
        movement=movement,
        magnitude=magnitude,
        q2_to_q4=pre_point.quadrant == Quadrant.LVHA
        and post_point.quadrant == Quadrant.HVLA,
        clipped_windows=clipped,
    )


def summarize_therapy(assessments: list) -> TherapyReport:
    return TherapyReport(
        patients=list(assessments),
        q2_to_q4_count=sum(1 for a in assessments if a.q2_to_q4),
    )


def quadrant_rows(report: TherapyReport) -> list:
    """Plot-ready rows: patient, phase, scaled coordinates, quadrant."""
    rows = [("patient", "phase", "valence_scaled", "arousal_scaled", "quadrant")]
    for a in report.patients:
        for phase, point in (("pre", a.pre), ("post", a.post)):
            rows.append(
                (
                    a.patient,
                    phase,
                    repr(point.valence_scaled),
                    repr(point.arousal_scaled),
                    point.quadrant.value,
                )
            )
    return rows
