"""Fusion network: stream widths, variant wiring, loss combination, training."""

import hashlib

import numpy as np
import pytest

from bioaffect import bmmn
from bioaffect import tensor as T
from bioaffect.bae import BaeArch, BaeModel
from bioaffect.bmmn import (
    AffectEstimate,
    BioNetArch,
    BmmnModel,
    FusionVariant,
    LossWeights,
    ModelInput,
    ModelSpec,
    SpatialArch,
    TrainConfig,
    load_model,
    save_model,
    total_loss,
    toy_sample,
)
from bioaffect.errors import ConfigError, CorruptionError, GraphError, ShapeError
from bioaffect.params import ParamStore, save_params
from bioaffect.signals import AffectLabel, Channel, FrameRecord
from bioaffect.tensor import Tensor

# Frozen width oracle, recomputed by hand from the conv/pool arithmetic:
#   per-channel merge = 4*400 + 2*150 + 2*50 + 2*13 = 2026, two channels 4052;
#   latent 2*128 = 256; spatial CNN features 256.
PER_CHANNEL_MERGE = 2026
BIO_WIDTH = 4052
HEAD_WIDTHS = {"bmmn": 4052 + 256, "bae1": 256 + 256, "bae2": 4052 + 256 + 256}


def toy_model(variant="bmmn", seed=0):
    return BmmnModel.build_toy(variant=variant, seed=seed)


class TestWidths:
    def test_bio_chain_and_merge(self):
        arch = BioNetArch()
        assert arch.chain() == [(801, 400), (301, 150), (101, 50), (26, 13)]
        assert arch.merge_width() == PER_CHANNEL_MERGE

    def test_head_widths_per_variant(self):
        for variant, width in HEAD_WIDTHS.items():
            spec = ModelSpec(variant=FusionVariant(variant))
            assert spec.head_input_width() == width

    def test_ablation_mask_widths(self):
        bio_only = ModelSpec(use_spatial=False)
        face_only = ModelSpec(use_bio=False)
        assert bio_only.head_input_width() == BIO_WIDTH
        assert face_only.head_input_width() == 256

    def test_no_streams_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec(use_bio=False, use_spatial=False).streams()

    def test_spatial_chain(self):
        arch = SpatialArch()
        assert arch.chain() == [31, 14, 6]
        assert arch.flat_width() == 32 * 36

    def test_passthrough_width(self):
        spec = ModelSpec(spatial_passthrough=512)
        assert spec.spatial_width() == 512


# sha256 of each variant's production parameter list, one "name shape" line
# per parameter in creation order. The order fixes the checkpoint layout,
# so a change here stops earlier checkpoints from loading.
PARAM_LIST_SHA256 = {
    "bmmn": (26, "43873051f9a8ce4a33ef59cafd0e69114a268e3c028fd97e689d023105fa2794"),
    "bae1": (42, "161ad15b33fbefc85b0b07a6fa3f15756e63d5c2c479def7f30676f64e7f0b83"),
    "bae2": (58, "8a578a8eea7ef65689886f51e78c154fe4d494c948a6ac35d435555b8a1260b5"),
}


class TestParameterLayout:
    @pytest.mark.parametrize("variant", sorted(PARAM_LIST_SHA256))
    def test_production_parameter_list_is_pinned(self, variant):
        model = BmmnModel(ModelSpec(variant=FusionVariant(variant)), seed=0)
        listing = "\n".join(f"{name} {t.data.shape}" for name, t in model.store.items())
        digest = hashlib.sha256(listing.encode()).hexdigest()
        assert (len(model.store), digest) == PARAM_LIST_SHA256[variant]


class TestForward:
    def test_head_outputs_ten_values(self):
        model = toy_model()
        rng = np.random.default_rng(0)
        est, recons, _ = model.forward_graph(toy_sample(model, rng))
        assert est.data.shape == (10,)
        assert recons == {}

    def test_variant_reconstructions_present(self):
        model = toy_model("bae2")
        rng = np.random.default_rng(1)
        est, recons, originals = model.forward_graph(toy_sample(model, rng))
        assert set(recons) == {Channel.ECG, Channel.EDA}
        for ch, recon in recons.items():
            assert recon.data.shape == (1, model.spec.bae_arch.seg_len)
            assert originals[ch].shape == (model.spec.bae_arch.seg_len,)

    def test_zero_input_zero_bias_gives_bias_output(self):
        model = toy_model()
        spec = model.spec
        zero = ModelInput(
            windows={c: np.zeros(spec.bio_arch.seg_len) for c in bmmn.CHANNEL_ORDER},
            face_image=np.zeros((spec.spatial_arch.side, spec.spatial_arch.side)),
        )
        est, _, _ = model.forward_graph(zero)
        np.testing.assert_array_equal(est.data, model.store["head.fc.b"].data)

    def test_missing_channel_is_usage_error(self):
        model = toy_model()
        rng = np.random.default_rng(2)
        sample = toy_sample(model, rng)
        del sample.windows[Channel.EDA]
        with pytest.raises(GraphError, match="EDA"):
            model.forward_graph(sample)

    def test_wrong_face_size_is_dimension_error(self):
        model = toy_model()
        rng = np.random.default_rng(3)
        sample = toy_sample(model, rng)
        sample.face_image = np.zeros((7, 7))
        with pytest.raises(ShapeError, match="face image"):
            model.forward_graph(sample)

    def test_spatial_passthrough_identity(self):
        spec = ModelSpec(
            variant=FusionVariant.BMMN,
            spatial_passthrough=12,
            bio_arch=BioNetArch.toy(),
            bae_arch=BaeArch.toy(),
        )
        model = BmmnModel(spec, seed=4)
        rng = np.random.default_rng(4)
        fv = rng.uniform(0, 1, 12)
        out = model.spatial_forward(None, fv)
        np.testing.assert_array_equal(out.data, fv)

    def test_variant_without_bae_models_rejected(self):
        model = toy_model("bae1")
        model.baes = {}
        rng = np.random.default_rng(5)
        with pytest.raises(ConfigError):
            model.forward_graph(toy_sample(model, rng))

    def test_channel_order_fixed(self):
        model = toy_model()
        rng = np.random.default_rng(6)
        sample = toy_sample(model, rng)
        a, _, _ = model.forward_graph(sample)
        flipped = ModelInput(
            windows=dict(reversed(list(sample.windows.items()))),
            face_image=sample.face_image,
        )
        b, _, _ = model.forward_graph(flipped)
        np.testing.assert_array_equal(a.data, b.data)

    def test_predict_builds_no_decoder(self, monkeypatch):
        model = toy_model("bae2", seed=7)
        sample = toy_sample(model, np.random.default_rng(7))
        est, recons, _ = model.forward_graph(sample)
        assert set(recons) == set(bmmn.CHANNEL_ORDER)

        def no_decode(*args, **kwargs):
            raise AssertionError("predict must not decode")

        monkeypatch.setattr(BaeModel, "decode_graph", no_decode)
        np.testing.assert_array_equal(model.predict(sample).values, est.data)


class TestFusionStructure:
    def _run(self, model, sample):
        est, _, _ = model.forward_graph(sample)
        return est.data.copy()

    def test_bae1_invariant_to_bio_params(self):
        # The bio stream is absent from the bae1 graph, so wrecking the bio
        # conv weights must not move the output; bae2 keeps the stream.
        rng = np.random.default_rng(7)
        model1 = toy_model("bae1", seed=8)
        sample1 = toy_sample(model1, rng)
        before = self._run(model1, sample1)
        assert not any(name.startswith("bio.") for name in model1.store.names())
        model2 = toy_model("bae2", seed=8)
        sample2 = toy_sample(model2, rng)
        base = self._run(model2, sample2)
        for name in model2.store.names():
            if name.startswith("bio.") and name.endswith(".w"):
                model2.store[name].data += 0.1
        assert np.abs(self._run(model2, sample2) - base).max() > 0
        np.testing.assert_array_equal(self._run(model1, sample1), before)

    def test_gradient_reaches_encoder_in_bae2(self):
        model = toy_model("bae2", seed=9)
        rng = np.random.default_rng(9)
        sample = toy_sample(model, rng)
        model.store.zero_grads()
        est, recons, originals = model.forward_graph(sample)
        loss, _ = total_loss(
            est, AffectLabel(6.0, 4.0, 5.0), recons, originals, LossWeights(1.0, 1.0)
        )
        loss.backward()
        enc_grads = [
            np.abs(model.store[name].grad).sum()
            for name in model.store.names()
            if ".enc.conv" in name and name.endswith(".w")
        ]
        assert all(g > 0 for g in enc_grads)

    def test_zero_recon_weight_reduces_to_affect_loss(self):
        model = toy_model("bae2", seed=10)
        rng = np.random.default_rng(10)
        sample = toy_sample(model, rng)
        label = AffectLabel(6.0, 4.0, 5.0)
        est, recons, originals = model.forward_graph(sample)
        full, breakdown = total_loss(est, label, recons, originals, LossWeights(1.0, 0.0))
        assert abs(full.item() - breakdown["affect"]) < 1e-12


class TestTotalLoss:
    def test_perfect_estimate_and_reconstruction(self):
        label = AffectLabel(5.0, 5.0, 5.0, emotions=np.eye(7)[0])
        from bioaffect.signals import label_targets

        est = Tensor(label_targets(label))
        originals = {Channel.ECG: np.full(8, 0.25)}
        recons = {Channel.ECG: Tensor(np.full((1, 8), 0.25))}
        loss, breakdown = total_loss(est, label, recons, originals, LossWeights(1, 1))
        assert loss.item() == 0.0
        assert breakdown == {"total": 0.0, "affect": 0.0, "recon": 0.0}

    def test_weights_zero_recon(self):
        label = AffectLabel(5.0, 5.0, 5.0)
        est = Tensor(np.zeros(10))
        loss, breakdown = total_loss(est, label, {}, {}, LossWeights(1.0, 0.0))
        assert loss.item() == pytest.approx(breakdown["affect"])

    def test_hand_combination(self):
        # affect mse 0.2, recon mse 0.1, weights (1, 1) -> 0.3
        est = Tensor(np.zeros(10))
        targets = np.full(10, np.sqrt(0.2))
        recons = {Channel.ECG: Tensor(np.zeros((1, 4)))}
        originals = {Channel.ECG: np.full(4, np.sqrt(0.1))}
        loss, _ = bmmn.total_loss_from_targets(
            est, targets, recons, originals, LossWeights(1.0, 1.0)
        )
        assert loss.item() == pytest.approx(0.3)

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(-1.0, 1.0)
        with pytest.raises(ConfigError):
            LossWeights(0.0, 0.0)


class _ToySegment:
    def __init__(self, channel, window, frame_index):
        self.channel = channel
        self.window = window
        self.frame_index = frame_index


class _ToySample:
    """Duck-typed stand-in for SyncedSample at toy window widths."""

    def __init__(self, segments, face, label, subject_id, session_id):
        self.segments = segments
        self.face = face
        self.label = label
        self.subject_id = subject_id
        self.session_id = session_id


def make_samples(n_subjects=3, trials=2, frames=2, seed=0, seg_len=40, side=12):
    rng = np.random.default_rng(seed)
    samples = []
    for si in range(n_subjects):
        for ti in range(trials):
            label = AffectLabel(
                float(rng.uniform(2, 8)), float(rng.uniform(2, 8)), 5.0,
                emotions=np.eye(7)[int(rng.integers(7))],
            )
            for fi in range(frames):
                segments = {
                    c: _ToySegment(c, rng.uniform(0, 1, seg_len), fi)
                    for c in bmmn.CHANNEL_ORDER
                }
                face = FrameRecord(
                    timestamp_s=float(fi), image=rng.uniform(0, 1, (side, side))
                )
                samples.append(
                    _ToySample(segments, face, label, f"p{si:02d}", f"p{si:02d}_t{ti:02d}")
                )
    return samples


def toy_config(**overrides):
    base = dict(variant="bmmn", epochs=2, batch_size=4, lr=1e-3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def toy_spec(config):
    return ModelSpec(
        variant=FusionVariant(config.variant),
        use_bio=config.use_bio,
        use_spatial=config.use_spatial,
        bio_arch=BioNetArch.toy(),
        spatial_arch=SpatialArch.toy(),
        bae_arch=BaeArch.toy(),
    )


def train_toy(samples, config, bae_values=None):
    return bmmn.train(samples, config, bae_values=bae_values, spec=toy_spec(config))


class TestTrain:
    def test_split_is_person_independent(self):
        samples = make_samples(n_subjects=3)
        result = train_toy(samples, toy_config())
        assert set(result.train_subjects) & set(result.eval_subjects) == set()
        assert set(result.train_subjects) | set(result.eval_subjects) == {
            "p00", "p01", "p02",
        }

    def test_single_subject_rejected(self):
        samples = make_samples(n_subjects=1)
        with pytest.raises(ConfigError, match="2 subjects"):
            train_toy(samples, toy_config())

    def test_unknown_holdout_rejected(self):
        samples = make_samples(n_subjects=2)
        with pytest.raises(ConfigError, match="holdout"):
            train_toy(samples, toy_config(holdout_subjects=("nope",)))

    def test_variant_requires_pretrained_bae(self):
        samples = make_samples(n_subjects=2)
        with pytest.raises(ConfigError, match="pretrained"):
            train_toy(samples, toy_config(variant="bae2"))

    def test_loss_decreases(self):
        samples = make_samples(n_subjects=3, trials=3, frames=3, seed=1)
        result = train_toy(samples, toy_config(epochs=12, lr=3e-3, seed=1))
        assert result.metrics[-1][1] < result.metrics[0][1]

    def test_deterministic_metrics(self):
        samples = make_samples(n_subjects=2, seed=2)
        a = train_toy(samples, toy_config(epochs=3, seed=5))
        b = train_toy(samples, toy_config(epochs=3, seed=5))
        assert a.metrics == b.metrics
        assert bmmn.metrics_csv(a.metrics) == bmmn.metrics_csv(b.metrics)

    def test_joint_training_from_pretrained_values(self):
        from bioaffect.bae import pretrain

        samples = make_samples(n_subjects=2, seed=3)
        windows = [s.segments[Channel.ECG].window for s in samples]
        bae_values = {}
        for ch in bmmn.CHANNEL_ORDER:
            result = pretrain(
                [s.segments[ch].window for s in samples], ch,
                epochs=1, seed=6, arch=BaeArch.toy(), lr=1e-3, batch_size=4,
            )
            bae_values.update(
                {name: t.data for name, t in result.model.store.items()}
            )
        outcome = train_toy(samples, toy_config(variant="bae2", epochs=2), bae_values)
        trained = outcome.model
        name = f"bae.{Channel.ECG.value}.enc.conv1.w"
        # Loaded values then jointly trained: parameters moved away from both
        # the fresh init and the pretrained values.
        assert not np.array_equal(trained.store[name].data, bae_values[name])


class TestEstimate:
    def test_scale_mapping_and_clipping(self):
        est = AffectEstimate(np.array([0.5, 0.0, 1.0, 0, 0, 0.9, 0, 0, 0, 0]))
        assert est.valence == 5.0
        assert est.arousal == 1.0
        assert est.liking == 9.0
        assert est.emotion_class() == 2
        wild = AffectEstimate(np.array([2.0, -1.0, 0.5] + [0.0] * 7))
        assert wild.valence == 9.0
        assert wild.arousal == 1.0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model = toy_model("bae2", seed=11)
        rng = np.random.default_rng(11)
        sample = toy_sample(model, rng)
        before = model.predict(sample).values
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        after = loaded.predict(sample).values
        np.testing.assert_array_equal(before, after)

    def test_load_builds_each_parameter_once(self, tmp_path):
        import tracemalloc

        model = BmmnModel(ModelSpec(variant=FusionVariant.BMMN_BAE_2), seed=4)
        sample = toy_sample(model, np.random.default_rng(4))
        save_model(model, tmp_path / "m")
        value_bytes = 8 * model.store.n_values()
        tracemalloc.start()
        try:
            loaded = load_model(tmp_path / "m")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The file bytes plus one copy of the values; no init, no grad buffers.
        assert peak <= 3.5 * value_bytes, peak / value_bytes
        assert all(t.grad is None for _, t in loaded.store.items())
        before = model.predict(sample).values
        after = loaded.predict(sample).values
        assert np.array_equal(before.view(np.uint64), after.view(np.uint64))

    def _resave(self, model, path, shapes):
        store = ParamStore(rng_seed=model.store.rng_seed)
        for name, shape in shapes.items():
            store.create(name, shape)
        save_params(store, path / "params.ckpt")

    def test_load_rejects_checkpoint_missing_a_parameter(self, tmp_path):
        model = toy_model("bae2", seed=5)
        save_model(model, tmp_path / "m")
        shapes = {name: t.data.shape for name, t in model.store.items()}
        shapes.pop("head.fc.b")
        self._resave(model, tmp_path / "m", shapes)
        with pytest.raises(ConfigError, match=f"covered {len(shapes)} of {len(shapes) + 1}"):
            load_model(tmp_path / "m")

    def test_load_rejects_checkpoint_shape_mismatch(self, tmp_path):
        model = toy_model("bae2", seed=6)
        save_model(model, tmp_path / "m")
        shapes = {name: t.data.shape for name, t in model.store.items()}
        shapes["head.fc.b"] = (shapes["head.fc.b"][0] + 1,)
        self._resave(model, tmp_path / "m", shapes)
        with pytest.raises(CorruptionError, match="head.fc.b"):
            load_model(tmp_path / "m")

    def test_summary_reports_widths(self, tmp_path):
        import json

        model = BmmnModel(ModelSpec(variant=FusionVariant.BMMN_BAE_2), seed=0)
        save_model(model, tmp_path / "m")
        meta = json.loads((tmp_path / "m" / "model.json").read_text())
        assert meta["widths"]["head_input"] == 4564
        assert meta["widths"]["bio_merge_per_channel"] == 2026
        assert meta["widths"]["spatial_features"] == 256
        assert meta["widths"]["streams"] == ["bio", "latent", "spatial"]
