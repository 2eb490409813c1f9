"""Acceptance harness: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured margin (run with -s to see them live).

The headline accuracy tables of the original full-scale experiments are
out of reach on a CPU with synthetic data, so these criteria check
properties: gradient integrity, shape conformance, oracle equivalence,
reconstruction training, planted-signal learnability, ablation direction,
fusion structure, the pre/post assessment, and pipeline totality.
"""

import time

import numpy as np
import pytest

from bioaffect import bmmn, evaluate, gradcheck, synth
from bioaffect.bae import BaeArch, BaeModel, pretrain
from bioaffect.bmmn import BmmnModel, LossWeights, ModelSpec, total_loss, toy_sample
from bioaffect.params import ParamStore
from bioaffect.signals import (
    MODEL_HZ,
    SEGMENT_LEN,
    AffectLabel,
    Channel,
    rescale,
    resample,
    synchronize,
)
from bioaffect.session_io import list_sessions, load_session
from bioaffect.tensor import Tensor
from bioaffect import tensor as T

from oracles import conv1d_direct, conv1d_full_direct, conv2d_direct

# Every criterion is marked slow, so `pytest -m "not slow"` is a quick loop.
pytestmark = pytest.mark.slow

# Frozen acceptance run: deterministic corpus and training seed.
ACCEPT_SEED = 31

ENCODER_CHAIN = [801, 400, 301, 150, 101, 50]
DECODER_CHAIN = [101, 150, 301, 400, 801, 1000]
HEAD_WIDTHS = {"bmmn": 4308, "bae1": 512, "bae2": 4564}
BIO_MERGE_WIDTH = 4052


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _load_corpus(corpus_dir):
    samples = []
    for session_dir in list_sessions(corpus_dir):
        data = load_session(session_dir)
        traces = {c: rescale(resample(t, MODEL_HZ)) for c, t in data.traces.items()}
        samples.extend(
            synchronize(traces, data.frames, data.label, data.subject_id,
                        data.session_id)
        )
    return samples


@pytest.fixture(scope="session")
def corpus_samples(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_corpus")
    spec = synth.SynthSpec(
        n_subjects=4, trials_per_subject=8, trial_seconds=20.0,
        rng_seed=ACCEPT_SEED, fps=0.6, noise_sigma=0.02,
    )
    synth.gen_dataset(spec, root)
    samples = _load_corpus(root)
    n_sessions = len(list_sessions(root))
    return samples, n_sessions


@pytest.fixture(scope="session")
def ablation(corpus_samples):
    samples, _ = corpus_samples
    config = bmmn.TrainConfig(
        variant="bmmn", epochs=30, batch_size=16, lr=1e-3, seed=ACCEPT_SEED
    )
    started = time.monotonic()
    result = evaluate.ablation_run(samples, config)
    return result, time.monotonic() - started


def test_criterion_1_gradient_integrity():
    from bioaffect.cli import dispatch

    started = time.monotonic()
    results = gradcheck.run_suite()
    exit_code = dispatch(["--plain", "gradcheck"])
    elapsed = time.monotonic() - started
    worst = max(results.values())
    needed = {"bmmn_end_to_end", "bae1_end_to_end", "bae2_end_to_end", "bae_end_to_end"}
    _report(
        1,
        worst <= 1e-4 and needed <= set(results) and exit_code == 0 and elapsed < 300,
        f"max rel err {worst:.2e} over {len(results)} cases, "
        f"command exit {exit_code}, {elapsed:.0f}s",
    )


def test_criterion_2_shape_conformance():
    started = time.monotonic()
    arch = BaeArch()
    ok = arch.encoder_chain() == ENCODER_CHAIN and arch.decoder_chain() == DECODER_CHAIN
    model = BaeModel(ParamStore(rng_seed=0), Channel.ECG)
    z, _ = model.encode_graph(Tensor(np.zeros(SEGMENT_LEN)))
    ok = ok and z.data.shape == (128,)
    head = BmmnModel.build_toy().store["head.fc.b"]
    ok = ok and head.data.shape == (10,)
    for variant, width in HEAD_WIDTHS.items():
        spec = ModelSpec(variant=bmmn.FusionVariant(variant))
        ok = ok and spec.head_input_width() == width
    ok = ok and bmmn.BioNetArch().merge_width() * 2 == BIO_MERGE_WIDTH
    elapsed = time.monotonic() - started
    _report(2, ok and elapsed < 1.0, f"chains, |z|=128, widths {HEAD_WIDTHS} in {elapsed:.2f}s")


def test_criterion_3_convolution_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(33)
    worst = 0.0
    for case in range(200):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        if case % 4 == 3:  # 2D batch
            kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h = int(rng.integers(kh, 12))
            w = int(rng.integers(kw, 12))
            stride = int(rng.integers(1, 3))
            x = rng.uniform(-1, 1, (c_in, h, w))
            k = rng.uniform(-1, 1, (c_out, c_in, kh, kw))
            got = T.conv2d_valid(Tensor(x), Tensor(k), stride=stride).data
            ref = conv2d_direct(x, k, stride)
        elif case % 4 == 2:
            width = int(rng.integers(1, 8))
            length = int(rng.integers(1, 32))
            x = rng.uniform(-1, 1, (c_in, length))
            k = rng.uniform(-1, 1, (c_out, c_in, width))
            got = T.conv1d_full(Tensor(x), Tensor(k)).data
            ref = conv1d_full_direct(x, k)
        else:
            width = int(rng.integers(1, 8))
            length = int(rng.integers(width, 32))
            stride = int(rng.integers(1, 4))
            x = rng.uniform(-1, 1, (c_in, length))
            k = rng.uniform(-1, 1, (c_out, c_in, width))
            got = T.conv1d_valid(Tensor(x), Tensor(k), stride=stride).data
            ref = conv1d_direct(x, k, stride)
        worst = max(worst, float(np.abs(got - ref).max()))
    elapsed = time.monotonic() - started
    _report(3, worst < 1e-10 and elapsed < 60, f"max |delta| {worst:.2e} over 200 cases in {elapsed:.0f}s")


def test_criterion_4_bae_pretraining_halves_loss():
    started = time.monotonic()
    windows = synth.gen_ecg_segments(200, seed=42)
    first = pretrain(windows, Channel.ECG, epochs=30, seed=7)
    second = pretrain(windows, Channel.ECG, epochs=30, seed=7)
    elapsed = time.monotonic() - started
    halved = first.losses[-1] < 0.5 * first.losses[0]
    deterministic = first.losses == second.losses and all(
        (first.model.store[n].data == second.model.store[n].data).all()
        for n in first.model.store.names()
    )
    _report(
        4,
        halved and deterministic and elapsed < 600,
        f"mse {first.losses[0]:.4f} -> {first.losses[-1]:.4f}, "
        f"deterministic={deterministic}, {elapsed:.0f}s",
    )


def test_criterion_5_planted_learnability(ablation):
    result, elapsed = ablation
    report = result.reports["multimodal"]
    arousal = report["arousal"] or 0.0
    valence = report["valence"] or 0.0
    metrics = result.train_results["multimodal"].metrics
    halved = metrics[-1][1] < 0.5 * metrics[0][1]
    _report(
        5,
        arousal >= 90.0 and valence >= 90.0 and halved and elapsed < 1800,
        f"held-out arousal {arousal:.1f}%, valence {valence:.1f}%, train loss "
        f"{metrics[0][1]:.4f} -> {metrics[-1][1]:.4f}, {elapsed:.0f}s",
    )


def test_criterion_6_ablation_direction(ablation):
    result, elapsed = ablation
    bio_ar = result.reports["bio_only"]["arousal"] or 0.0
    face_ar = result.reports["face_only"]["arousal"] or 0.0
    multi = result.reports["multimodal"].macro_average
    bio = result.reports["bio_only"].macro_average
    face = result.reports["face_only"].macro_average
    _report(
        6,
        bio_ar - face_ar >= 20.0 and multi >= bio and multi >= face and elapsed < 3600,
        f"arousal bio {bio_ar:.1f} vs face {face_ar:.1f}; "
        f"macro multi {multi:.1f} vs bio {bio:.1f} / face {face:.1f}",
    )


def test_criterion_7_fusion_structure():
    started = time.monotonic()
    rng = np.random.default_rng(77)

    def output(model, sample):
        est, _, _ = model.forward_graph(sample)
        return est.data.copy()

    model1 = BmmnModel.build_toy("bae1", seed=1)
    sample1 = toy_sample(model1, rng)
    bae1_invariant = not any(n.startswith("bio.") for n in model1.store.names())
    before = output(model1, sample1)
    bae1_invariant = bae1_invariant and (output(model1, sample1) == before).all()

    model2 = BmmnModel.build_toy("bae2", seed=1)
    sample2 = toy_sample(model2, rng)
    base = output(model2, sample2)
    for name in model2.store.names():
        if name.startswith("bio.") and name.endswith(".w"):
            model2.store[name].data += 0.05
    bae2_sensitive = np.abs(output(model2, sample2) - base).max() > 0

    est, recons, originals = model2.forward_graph(sample2)
    label = AffectLabel(6.0, 4.0, 5.0)
    zeroed, breakdown = total_loss(est, label, recons, originals, LossWeights(1.0, 0.0))
    reduces = abs(zeroed.item() - breakdown["affect"]) <= 1e-12

    elapsed = time.monotonic() - started
    _report(
        7,
        bae1_invariant and bae2_sensitive and reduces and elapsed < 60,
        f"bae1 invariant={bae1_invariant}, bae2 sensitive={bae2_sensitive}, "
        f"lambda-zero delta {abs(zeroed.item() - breakdown['affect']):.1e}",
    )


@pytest.fixture(scope="session")
def therapy_assessment(ablation, tmp_path_factory):
    result, _ = ablation
    root = tmp_path_factory.mktemp("accept_therapy")
    spec = synth.TherapySpec(minutes=34.0, rng_seed=ACCEPT_SEED, fps=0.25)
    session_dir = synth.gen_therapy_session(spec, root)
    data = load_session(session_dir)
    traces = {c: rescale(resample(t, MODEL_HZ)) for c, t in data.traces.items()}
    samples = synchronize(
        traces, data.frames, data.label, data.subject_id, data.session_id
    )
    model = result.models["multimodal"]
    return evaluate.therapy_assess(samples, model, window_minutes=15.0)


def test_criterion_8_therapy_assessment(therapy_assessment):
    started = time.monotonic()
    a = therapy_assessment
    corner = evaluate.to_quadrant(9.0, 1.0)
    corner_exact = (corner.valence_scaled, corner.arousal_scaled) == (1.0, -1.0)
    elapsed = time.monotonic() - started
    _report(
        8,
        a.q2_to_q4 and a.magnitude > 0.3 and corner_exact and elapsed < 600,
        f"{a.pre.quadrant.value} -> {a.post.quadrant.value}, "
        f"movement {a.magnitude:.3f}, corner (9,1)->({corner.valence_scaled:+.0f},"
        f"{corner.arousal_scaled:+.0f})",
    )


def test_criterion_9_pipeline_totality(corpus_samples, ablation):
    started = time.monotonic()
    samples, n_sessions = corpus_samples
    expected_frames = n_sessions * 12  # 20 s at 0.6 fps per session
    all_lengths = all(
        s.segments[c].window.shape == (SEGMENT_LEN,)
        for s in samples
        for c in (Channel.ECG, Channel.EDA)
    )
    result, _ = ablation
    report = evaluate.evaluate_model(result.models["multimodal"], samples)
    elapsed = time.monotonic() - started
    _report(
        9,
        len(samples) == expected_frames and all_lengths and report.n == n_sessions
        and elapsed < 300,
        f"{len(samples)}/{expected_frames} frames kept, all windows "
        f"{SEGMENT_LEN}-long, {report.n} trials scored in {elapsed:.0f}s",
    )
