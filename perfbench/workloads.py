"""The benchmark's three workloads.

Each workload makes its inputs from the seed (`generate`), pays the
set-up a user pays (`setup`), and then runs closed-loop iterations
(`iterate`): one caller, the next call after the previous returns. Every
call goes through a public bioaffect function; the library sees only the
generated files. An iteration is split into the job phases, which feed
`job_items_per_s`, and a final predict phase, which feeds the predict
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from bioaffect import bae, bmmn, evaluate, params, session_io, signals, synth
from bioaffect.signals import MODEL_HZ

from checks import Outputs

# Acceptance-scale corpus: 4 subjects x 8 trials x 20 s at 0.6 fps gives 384
# frames; the default person-independent split holds out the last subject,
# leaving 288 training samples.
CORPUS = dict(n_subjects=4, trials_per_subject=8, trial_seconds=20.0, fps=0.6)
# bae_pipeline uses two subjects (96 training samples): a bae2 step costs
# about 3x a bmmn step, and at full scale one iteration took ~35 s, too
# long for a run to fit its time limit on a machine half as fast.
BAE_CORPUS = dict(CORPUS, n_subjects=2)
BATCH_SIZE = 16
LR = 1e-3
# One raw 800 Hz therapy session of 10 minutes at 0.25 fps (150 frames);
# 2-minute pre/post windows assess 30 + 30 = 60 frames per iteration, so
# that ingest and assessment each take about half of an iteration; with
# 4-minute windows ingest had a third of a run's time and its rate spread
# up to 0.19 across runs.
THERAPY = dict(minutes=10.0, fps=0.25, signal_hz=800.0)
WINDOW_MINUTES = 2.0


@dataclass
class Iteration:
    phases: dict  # phase name -> (seconds, items)
    job: tuple  # (seconds, items) of the job phases together
    predict: tuple  # (seconds, frames) of the predict phase
    latencies_s: list  # one entry per predict call
    outputs: Outputs
    ops: int  # library calls whose outputs are checked


class TimedModel:
    """The model handed to `evaluate`: times each `predict` call it makes.

    It is the benchmark's own object passed as an argument; no library
    attribute is replaced.
    """

    def __init__(self, model):
        self.model = model
        self.spec = model.spec
        self.latencies_s: list = []
        self.values: list = []

    def predict(self, inputs):
        start = perf_counter()
        estimate = self.model.predict(inputs)
        self.latencies_s.append(perf_counter() - start)
        self.values.append(estimate.values)
        return estimate


def _preprocess(corpus: Path, out: Path) -> Path:
    """The `bioaffect preprocess` path: raw sessions to one samples file."""
    samples = []
    for session_dir in session_io.list_sessions(corpus):
        data = session_io.load_session(session_dir)
        traces = {c: signals.rescale(signals.resample(t, MODEL_HZ)) for c, t in data.traces.items()}
        samples.extend(
            signals.synchronize(
                traces, data.frames, data.label, data.subject_id, data.session_id
            )
        )
    session_io.write_samples(out, samples)
    return out


def _train_config(variant: str, seed: int) -> bmmn.TrainConfig:
    return bmmn.TrainConfig(variant=variant, epochs=1, batch_size=BATCH_SIZE, lr=LR, seed=seed)


def _evaluate(result: bmmn.TrainResult, samples: list):
    """The `bioaffect eval` path with no subject filter: one predict per
    frame of the samples file. Held-out frames alone gave the predict rate
    only a sixth of a run's time, and it spread up to 0.26 across runs."""
    timed = TimedModel(result.model)
    start = perf_counter()
    report = evaluate.evaluate_model(timed, samples)
    elapsed = perf_counter() - start
    return timed, report, elapsed


class TrainBmmn:
    name = "train_bmmn"
    corpus = CORPUS

    def generate(self, seed: int, work: Path) -> dict:
        synth.gen_dataset(synth.SynthSpec(rng_seed=seed, **self.corpus), work / "corpus")
        return {"samples": _preprocess(work / "corpus", work / "samples.bin"), "work": work}

    def setup(self, inputs: dict, seed: int):
        return session_io.read_samples(inputs["samples"])

    def iterate(self, samples: list, inputs: dict, seed: int) -> Iteration:
        start = perf_counter()
        result = bmmn.train(samples, _train_config("bmmn", seed))
        train_s = perf_counter() - start
        n_train = sum(s.subject_id in result.train_subjects for s in samples)
        bmmn.save_model(result.model, inputs["work"] / "model")
        timed, report, predict_s = _evaluate(result, samples)
        outputs = Outputs(arrays={
            "train.loss": np.array([v for row in result.metrics for v in row[1:]]),
            "predict": np.stack(timed.values),
            "eval.macro": np.array([report.macro_average]),
        })
        return Iteration(
            phases={"train": (train_s, n_train)},
            job=(train_s, n_train),
            predict=(predict_s, len(timed.values)),
            latencies_s=timed.latencies_s,
            outputs=outputs,
            ops=2 + len(timed.values),
        )


class BaePipeline(TrainBmmn):
    name = "bae_pipeline"
    corpus = BAE_CORPUS

    def iterate(self, samples: list, inputs: dict, seed: int) -> Iteration:
        config = _train_config("bae2", seed)
        train_ids, _ = bmmn.split_subjects(samples, config)
        train_samples = [s for s in samples if s.subject_id in train_ids]
        pretrain_config = bae.PretrainConfig(epochs=1, seed=seed)
        start = perf_counter()
        merged = params.ParamStore(rng_seed=seed)
        losses = {}
        for ch in bmmn.CHANNEL_ORDER:
            result = bae.pretrain(
                [s.segments[ch].window for s in train_samples], ch,
                epochs=pretrain_config.epochs, seed=pretrain_config.seed,
                lr=pretrain_config.lr, batch_size=pretrain_config.batch_size,
            )
            merged.entries.update(result.model.store.entries)
            losses[ch] = result.losses
        pretrain_s = perf_counter() - start
        # The pretrain-bae -> train --bae hand-off goes through a checkpoint.
        ckpt = inputs["work"] / "bae.ckpt"
        params.save_params(merged, ckpt)
        bae_values = {name: t.data for name, t in params.load_params(ckpt).items()}
        train_start = perf_counter()
        result = bmmn.train(samples, config, bae_values=bae_values)
        end = perf_counter()
        bmmn.save_model(result.model, inputs["work"] / "model")
        timed, report, predict_s = _evaluate(result, samples)
        n_windows = len(bmmn.CHANNEL_ORDER) * len(train_samples)
        outputs = Outputs(arrays={
            **{f"pretrain.{ch.value}.loss": np.array(v) for ch, v in losses.items()},
            "train.loss": np.array([v for row in result.metrics for v in row[1:]]),
            "predict": np.stack(timed.values),
            "eval.macro": np.array([report.macro_average]),
        })
        return Iteration(
            phases={
                "pretrain": (pretrain_s, n_windows),
                "train": (end - train_start, len(train_samples)),
            },
            job=(end - start, len(train_samples)),
            predict=(predict_s, len(timed.values)),
            latencies_s=timed.latencies_s,
            outputs=outputs,
            ops=5 + len(timed.values),
        )


class InferAssess:
    name = "infer_assess"

    def generate(self, seed: int, work: Path) -> dict:
        spec = synth.TherapySpec(rng_seed=seed, **THERAPY)
        session = synth.gen_therapy_session(spec, work / "therapy")
        model = bmmn.BmmnModel(bmmn.ModelSpec(variant=bmmn.FusionVariant.BMMN_BAE_2), seed=seed)
        bmmn.save_model(model, work / "model")
        return {"session": session, "model": work / "model", "work": work}

    def setup(self, inputs: dict, seed: int):
        return bmmn.load_model(inputs["model"])

    def iterate(self, model, inputs: dict, seed: int) -> Iteration:
        """The `bioaffect assess` path: ingest one raw session, then assess it."""
        start = perf_counter()
        session = session_io.load_session(inputs["session"])
        traces = {
            c: signals.rescale(signals.resample(t, MODEL_HZ)) for c, t in session.traces.items()
        }
        samples = signals.synchronize(
            traces, session.frames, session.label, session.subject_id, session.session_id,
            face_size=model.spec.spatial_arch.side,
        )
        ingest_s = perf_counter() - start
        timed = TimedModel(model)
        assess_start = perf_counter()
        a = evaluate.therapy_assess(samples, timed, window_minutes=WINDOW_MINUTES)
        predict_s = perf_counter() - assess_start
        outputs = Outputs(
            arrays={
                "predict": np.stack(timed.values),
                "assess": np.array([
                    a.pre.valence_scaled, a.pre.arousal_scaled,
                    a.post.valence_scaled, a.post.arousal_scaled, a.magnitude,
                ]),
            },
            labels={
                "quadrant.pre": a.pre.quadrant.value,
                "quadrant.post": a.post.quadrant.value,
                "q2_to_q4": str(a.q2_to_q4),
                "clipped_windows": str(a.clipped_windows),
            },
        )
        return Iteration(
            phases={"ingest": (ingest_s, len(samples))},
            job=(ingest_s, len(samples)),
            predict=(predict_s, len(timed.values)),
            latencies_s=timed.latencies_s,
            outputs=outputs,
            ops=2 + len(timed.values),
        )


WORKLOADS = {w.name: w for w in (TrainBmmn(), BaePipeline(), InferAssess())}
