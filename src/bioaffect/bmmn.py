"""Bio multi-modal network: bio and spatial streams merged into a 10-output head.

Per channel, the bio stream stacks four conv/pool blocks with shrinking
kernels and concatenates every pooled map (a dense skip aggregation), so
coarse early features and narrow late ones reach the head together. The
spatial stream is a small trainable CNN over the face crop.

Two latent-fusion variants rewire the streams around the per-channel
auto-encoders: "bae1" feeds the latent codes in place of the bio stream,
"bae2" feeds them alongside it. Whenever the auto-encoders participate,
their reconstructions join the objective:

    total = lambda_affect * mse(outputs, targets)
          + lambda_recon  * mean_per_channel mse(reconstruction, window)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import tensor as T
from .bae import BaeArch, BaeModel, conv_pool_lengths, conv_relu, create_convs
from .errors import ConfigError, CorruptionError, GraphError, ShapeError
from .files import read_json, write_json
from .optim import check_fit_settings, fit
from .optim import adam_step  # noqa: F401 (perfbench/tracer.py wraps bmmn.adam_step)
from .params import ParamStore, load_params, save_params
from .signals import AffectLabel, Channel, label_targets
from .tensor import Tensor

CHANNEL_ORDER = (Channel.ECG, Channel.EDA)
N_OUTPUTS = 10


class FusionVariant(str, Enum):
    BMMN = "bmmn"
    BMMN_BAE_1 = "bae1"
    BMMN_BAE_2 = "bae2"


@dataclass(frozen=True)
class BioNetArch:
    seg_len: int = 1000
    kernels: tuple = (200, 100, 50, 25)
    filters: tuple = (4, 2, 2, 2)
    pool: int = 2

    @classmethod
    def toy(cls) -> "BioNetArch":
        return cls(seg_len=40, kernels=(9, 5), filters=(3, 2))

    def chain(self) -> list:
        """(conv_len, pool_len) per block."""
        return conv_pool_lengths(self.seg_len, self.kernels, self.pool)

    def merge_width(self) -> int:
        """Width of one channel's concatenated pooled maps."""
        return sum(f * pool_len for f, (_, pool_len) in zip(self.filters, self.chain()))


@dataclass(frozen=True)
class SpatialArch:
    side: int = 64
    channels: tuple = (8, 16, 32)
    kernel: int = 3
    pool: int = 2
    features: int = 256

    @classmethod
    def toy(cls) -> "SpatialArch":
        return cls(side=12, channels=(3, 4), features=10)

    def chain(self) -> list:
        """Side after each block's pool."""
        kernels = [self.kernel] * len(self.channels)
        return [side for _, side in conv_pool_lengths(self.side, kernels, self.pool)]

    def flat_width(self) -> int:
        return self.channels[-1] * self.chain()[-1] ** 2


@dataclass(frozen=True)
class LossWeights:
    """Coefficients of the two loss terms; non-negative, not both zero."""

    lambda_affect: float = 1.0
    lambda_recon: float = 1.0

    def __post_init__(self):
        if self.lambda_affect < 0 or self.lambda_recon < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.lambda_affect == 0 and self.lambda_recon == 0:
            raise ConfigError("loss weights must not both be zero")


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to rebuild a model skeleton."""

    variant: FusionVariant = FusionVariant.BMMN
    use_bio: bool = True
    use_spatial: bool = True
    bio_arch: BioNetArch = field(default_factory=BioNetArch)
    spatial_arch: SpatialArch = field(default_factory=SpatialArch)
    bae_arch: BaeArch = field(default_factory=BaeArch)

    def streams(self) -> tuple:
        """Active feature streams, in merge order."""
        if self.variant == FusionVariant.BMMN:
            active = []
            if self.use_bio:
                active.append("bio")
            if self.use_spatial:
                active.append("spatial")
            if not active:
                raise ConfigError("at least one stream must stay active")
            return tuple(active)
        if self.variant == FusionVariant.BMMN_BAE_1:
            return ("latent", "spatial")
        return ("bio", "latent", "spatial")

    def head_input_width(self) -> int:
        widths = {
            "bio": len(CHANNEL_ORDER) * self.bio_arch.merge_width(),
            "latent": len(CHANNEL_ORDER) * self.bae_arch.latent,
            "spatial": self.spatial_arch.features,
        }
        return sum(widths[s] for s in self.streams())


@dataclass
class ModelInput:
    """Raw forward inputs: one window per channel plus the face image."""

    windows: dict
    face_image: np.ndarray

    @classmethod
    def from_sample(cls, sample) -> "ModelInput":
        """Accepts anything sample-shaped: segments dict plus a face record."""
        return cls(
            windows={c: sample.segments[c].window for c in sample.segments},
            face_image=sample.face.image,
        )


@dataclass
class AffectEstimate:
    """Ten head outputs on the normalized target scale.

    The affect dimensions map back to the [1, 9] rating scale (clipped);
    the last seven entries are emotion scores ranked by argmax.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (N_OUTPUTS,):
            raise ShapeError(f"estimate must have {N_OUTPUTS} values")

    def _scaled(self, i: int) -> float:
        return float(np.clip(1.0 + 8.0 * self.values[i], 1.0, 9.0))

    @property
    def valence(self) -> float:
        return self._scaled(0)

    @property
    def arousal(self) -> float:
        return self._scaled(1)

    @property
    def liking(self) -> float:
        return self._scaled(2)

    def emotion_class(self) -> int:
        return int(np.argmax(self.values[3:]))


class BmmnModel:
    """Parameter bundle plus the graph builders for one spec."""

    def __init__(self, spec: ModelSpec, seed: int, store: ParamStore | None = None):
        self.spec = spec
        self.store = store if store is not None else ParamStore(rng_seed=seed)
        self.baes: dict = {}
        self._build()

    @classmethod
    def build_toy(cls, variant: str = "bmmn", seed: int = 0) -> "BmmnModel":
        spec = ModelSpec(
            variant=FusionVariant(variant),
            bio_arch=BioNetArch.toy(),
            spatial_arch=SpatialArch.toy(),
            bae_arch=BaeArch.toy(),
        )
        return cls(spec, seed=seed)

    def _build(self):
        spec = self.spec
        streams = spec.streams()
        if "bio" in streams:
            bio = spec.bio_arch
            blocks = list(zip(bio.filters, (1, *bio.filters), bio.kernels))
            for ch in CHANNEL_ORDER:
                create_convs(self.store, f"bio.{ch.value}.", blocks)
        if "spatial" in streams:
            face = spec.spatial_arch
            k = face.kernel
            create_convs(self.store, "spatial.", [
                (f, c, k, k) for f, c in zip(face.channels, (1, *face.channels))
            ])
            self.store.create("spatial.fc.w", (face.features, face.flat_width()))
            self.store.create("spatial.fc.b", (face.features,), init="zeros")
        if spec.variant != FusionVariant.BMMN:
            for ch in CHANNEL_ORDER:
                self.baes[ch] = BaeModel(self.store, ch, arch=spec.bae_arch)
        width = spec.head_input_width()
        self.store.create("head.fc.w", (N_OUTPUTS, width))
        self.store.create("head.fc.b", (N_OUTPUTS,), init="zeros")

    # -- stream builders --

    def bio_stream(self, ch: Channel, window: np.ndarray) -> Tensor:
        arch = self.spec.bio_arch
        if window.shape != (arch.seg_len,):
            raise ShapeError(
                f"bio window for {ch.value} must have {arch.seg_len} samples, "
                f"got {window.shape}"
            )
        h = Tensor(window.reshape(1, -1))
        pooled_maps = []
        for i in range(1, len(arch.kernels) + 1):
            h = conv_relu(self.store, f"bio.{ch.value}.", i, T.conv1d_valid, h)
            h, _ = T.maxpool1d(h, window=arch.pool, stride=arch.pool)
            pooled_maps.append(T.flatten(h))
        return T.concat(pooled_maps)

    def bio_forward(self, windows: dict) -> Tensor:
        missing = [c.value for c in CHANNEL_ORDER if c not in windows]
        if missing:
            raise GraphError(f"bio_forward: missing channel(s) {', '.join(missing)}")
        merged = T.concat([self.bio_stream(c, np.asarray(windows[c])) for c in CHANNEL_ORDER])
        expected = len(CHANNEL_ORDER) * self.spec.bio_arch.merge_width()
        assert merged.data.shape == (expected,)
        return merged

    def spatial_forward(self, face_image) -> Tensor:
        arch = self.spec.spatial_arch
        img = np.asarray(face_image, dtype=np.float64)
        if img.shape != (arch.side, arch.side):
            raise ShapeError(
                f"face image must be {arch.side}x{arch.side}, got {img.shape}"
            )
        h = Tensor(img.reshape(1, arch.side, arch.side))
        for i in range(1, len(arch.channels) + 1):
            h = conv_relu(self.store, "spatial.", i, T.conv2d_valid, h)
            h = T.maxpool2d(h, window=arch.pool, stride=arch.pool)
        feats = T.linear(T.flatten(h), self.store["spatial.fc.w"], self.store["spatial.fc.b"])
        assert feats.data.shape == (arch.features,)
        return feats

    def head_forward(self, streams: list) -> Tensor:
        merged = T.relu(T.concat(streams))
        if merged.data.shape != (self.spec.head_input_width(),):
            raise ShapeError(
                f"head input width mismatch: expected {self.spec.head_input_width()}, "
                f"got {merged.data.shape[0]}"
            )
        return T.linear(merged, self.store["head.fc.w"], self.store["head.fc.b"])

    def _estimate_graph(self, inputs) -> tuple:
        """Build the graph up to the head; returns (estimate, codes, originals).

        `codes` maps each channel to its encoder's (latent, pool indices)
        when the auto-encoders take part in the active variant; nothing
        is decoded here.
        """
        if not isinstance(inputs, ModelInput):
            inputs = ModelInput.from_sample(inputs)
        spec = self.spec
        streams = []
        codes: dict = {}
        originals: dict = {}
        active = spec.streams()
        if "bio" in active:
            streams.append(self.bio_forward(inputs.windows))
        if "latent" in active:
            if not self.baes:
                raise ConfigError(f"variant {spec.variant.value} needs auto-encoder models")
            for ch in CHANNEL_ORDER:
                if ch not in inputs.windows:
                    raise GraphError(f"latent stream: missing channel {ch.value}")
                window = np.asarray(inputs.windows[ch])
                z, idx = self.baes[ch].encode_graph(Tensor(window))
                streams.append(z)
                codes[ch] = (z, idx)
                originals[ch] = window
        if "spatial" in active:
            streams.append(self.spatial_forward(inputs.face_image))
        est = self.head_forward(streams)
        return est, codes, originals

    def forward_graph(self, inputs) -> tuple:
        """Build the full graph; returns (estimate, reconstructions, originals).

        Reconstructions are present only when the auto-encoders take part
        in the active variant.
        """
        est, codes, originals = self._estimate_graph(inputs)
        recons = {ch: self.baes[ch].decode_graph(z, idx) for ch, (z, idx) in codes.items()}
        return est, recons, originals

    def predict(self, inputs) -> AffectEstimate:
        """Head outputs only: no reconstruction is built, as no loss reads one."""
        est, _, _ = self._estimate_graph(inputs)
        return AffectEstimate(est.data.copy())


def toy_sample(model: BmmnModel, rng: np.random.Generator) -> ModelInput:
    spec = model.spec
    windows = {
        c: rng.uniform(0.0, 1.0, size=spec.bio_arch.seg_len) for c in CHANNEL_ORDER
    }
    face = rng.uniform(0.0, 1.0, size=(spec.spatial_arch.side, spec.spatial_arch.side))
    return ModelInput(windows=windows, face_image=face)


# --- loss -------------------------------------------------------------------


def total_loss_from_targets(
    est: Tensor, targets: np.ndarray, recons: dict, originals: dict,
    weights: LossWeights,
) -> tuple:
    affect = T.mse_loss(est, np.asarray(targets, dtype=np.float64))
    total = affect * weights.lambda_affect
    recon_value = 0.0
    if recons:
        per_channel = [
            T.mse_loss(recons[ch], np.asarray(originals[ch]).reshape(1, -1))
            for ch in CHANNEL_ORDER
            if ch in recons
        ]
        recon = per_channel[0]
        for term in per_channel[1:]:
            recon = recon + term
        recon = recon * (1.0 / len(per_channel))
        recon_value = recon.item()
        total = total + recon * weights.lambda_recon
    breakdown = {
        "total": total.item(),
        "affect": affect.item(),
        "recon": recon_value,
    }
    return total, breakdown


def total_loss(
    est: Tensor, label: AffectLabel, recons: dict, originals: dict,
    weights: LossWeights,
) -> tuple:
    """Scalar training loss plus a float breakdown per term."""
    return total_loss_from_targets(est, label_targets(label), recons, originals, weights)


# --- training ---------------------------------------------------------------


@dataclass
class TrainConfig:
    """Run settings; batch_size 16 suits CPUs (GPU-scale reference runs used 115)."""

    variant: str = "bmmn"
    epochs: int = 30
    batch_size: int = 16
    lr: float = 1e-4
    seed: int = 0
    lambda_affect: float = 1.0
    lambda_recon: float = 1.0
    holdout_subjects: tuple = ()
    use_bio: bool = True
    use_spatial: bool = True
    face_size: int = 64

    def __post_init__(self):
        self.variant = FusionVariant(self.variant).value
        self.holdout_subjects = tuple(self.holdout_subjects)
        check_fit_settings(self.epochs, self.batch_size, self.lr)

    def weights(self) -> LossWeights:
        return LossWeights(self.lambda_affect, self.lambda_recon)


def split_subjects(samples: list, config: TrainConfig) -> tuple:
    """Person-independent split: held-out subjects never appear in training."""
    subjects = sorted({s.subject_id for s in samples})
    if len(subjects) < 2:
        raise ConfigError(
            f"person-independent split needs at least 2 subjects, got {len(subjects)}"
        )
    holdout = tuple(config.holdout_subjects) or (subjects[-1],)
    unknown = [s for s in holdout if s not in subjects]
    if unknown:
        raise ConfigError(f"holdout subject(s) not in the data: {unknown}")
    train_subjects = tuple(s for s in subjects if s not in holdout)
    if not train_subjects:
        raise ConfigError("all subjects held out, nothing left to train on")
    return train_subjects, holdout


def model_spec_from_config(config: TrainConfig) -> ModelSpec:
    return ModelSpec(
        variant=FusionVariant(config.variant),
        use_bio=config.use_bio,
        use_spatial=config.use_spatial,
        spatial_arch=SpatialArch(side=config.face_size),
    )


@dataclass
class TrainResult:
    model: BmmnModel
    metrics: list  # rows of (epoch, total, affect, recon)
    train_subjects: tuple
    eval_subjects: tuple


def train(
    samples: list,
    config: TrainConfig,
    bae_values: dict | None = None,
    spec: ModelSpec | None = None,
    init_values: dict | None = None,
) -> TrainResult:
    """Train one model on the training-subject samples.

    For the latent variants the per-channel auto-encoders must already be
    pretrained; pass their checkpoint values via `bae_values`. They then
    continue to train jointly under the combined objective. `spec`
    overrides the architecture (defaults to the production widths);
    `init_values` warm-starts matching parameters before training, which
    is how separately trained per-modality networks are merged for the
    joint stage.
    """
    if not samples:
        raise ConfigError("training needs at least one sample")
    train_subjects, eval_subjects = split_subjects(samples, config)
    train_samples = [s for s in samples if s.subject_id in train_subjects]
    if spec is None:
        spec = model_spec_from_config(config)
    elif spec.variant.value != config.variant:
        raise ConfigError(
            f"spec variant {spec.variant.value} != config variant {config.variant}"
        )
    model = BmmnModel(spec, seed=config.seed)
    if spec.variant != FusionVariant.BMMN:
        if bae_values is None:
            raise ConfigError(
                f"variant {spec.variant.value} requires pretrained auto-encoder values"
            )
        loaded = model.store.load_values(bae_values)
        expected = sum(
            1 for name in model.store.names() if name.startswith("bae.")
        )
        if loaded != expected:
            raise ConfigError(
                f"auto-encoder checkpoint covered {loaded} of {expected} parameters"
            )
    if init_values:
        model.store.load_values(init_values)
    weights = config.weights()

    def item_loss(j):
        sample = train_samples[j]
        est, recons, originals = model.forward_graph(sample)
        loss, parts = total_loss(est, sample.label, recons, originals, weights)
        return loss, (parts["total"], parts["affect"], parts["recon"])

    rng = np.random.default_rng([config.seed, 707])
    history = fit(
        model.store, len(train_samples), config.epochs, config.batch_size, config.lr, rng,
        item_loss,
    )
    metrics = [(epoch, *means) for epoch, means in enumerate(history)]
    return TrainResult(
        model=model,
        metrics=metrics,
        train_subjects=train_subjects,
        eval_subjects=eval_subjects,
    )


def metrics_csv(metrics: list) -> list:
    """Lines of the per-epoch loss CSV, header first."""
    lines = ["epoch,loss_total,loss_affect,loss_recon"]
    for epoch, total, affect, recon in metrics:
        lines.append(f"{epoch},{total!r},{affect!r},{recon!r}")
    return lines


# --- persistence -------------------------------------------------------------


def save_model(model: BmmnModel, out_dir, config: TrainConfig | None = None) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = model.spec
    meta = {
        "variant": spec.variant.value,
        "use_bio": spec.use_bio,
        "use_spatial": spec.use_spatial,
        "bio_arch": asdict(spec.bio_arch),
        "spatial_arch": asdict(spec.spatial_arch),
        "bae_arch": asdict(spec.bae_arch),
        "seed": model.store.rng_seed,
        "widths": {
            "streams": list(spec.streams()),
            "bio_merge_per_channel": spec.bio_arch.merge_width(),
            "spatial_features": spec.spatial_arch.features,
            "latent_per_channel": spec.bae_arch.latent,
            "head_input": spec.head_input_width(),
            "outputs": N_OUTPUTS,
        },
    }
    if config is not None:
        meta["train_config"] = asdict(config)
    # The description goes last: a run cut while writing the checkpoint
    # leaves the previous pair whole.
    save_params(model.store, out_dir / "params.ckpt")
    write_json(out_dir / "model.json", meta)


def _arch(cls, fields: dict):
    """An architecture dataclass from its model.json object (JSON lists back to tuples)."""
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})


def load_model(model_dir) -> BmmnModel:
    model_dir = Path(model_dir)
    meta_path = model_dir / "model.json"
    meta = read_json(meta_path)
    try:
        # Earlier models wrote this field, always null but for precomputed face
        # features, which the spatial stream no longer reads.
        if meta.get("spatial_passthrough") is not None:
            raise CorruptionError(
                f"{meta_path}: field 'spatial_passthrough' is "
                f"{meta['spatial_passthrough']!r}; only face-image models load"
            )
        spec = ModelSpec(
            variant=FusionVariant(meta["variant"]),
            use_bio=meta["use_bio"],
            use_spatial=meta["use_spatial"],
            bio_arch=_arch(BioNetArch, meta["bio_arch"]),
            spatial_arch=_arch(SpatialArch, meta["spatial_arch"]),
            bae_arch=_arch(BaeArch, meta["bae_arch"]),
        )
        seed = meta["seed"]
    except KeyError as exc:
        raise CorruptionError(f"{meta_path}: missing field {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CorruptionError(f"{meta_path}: {exc}") from None
    values = {name: t.data for name, t in load_params(model_dir / "params.ckpt").items()}
    model = BmmnModel(spec, seed=seed, store=ParamStore(seed, values=values))
    n = sum(name in values for name in model.store.names())
    if n != len(model.store):
        raise ConfigError(
            f"{model_dir}: checkpoint covered {n} of {len(model.store)} parameters"
        )
    return model
