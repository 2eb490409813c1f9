"""Bio auto-encoder: a 1000-sample channel window to a 128-value latent and back.

Encoder: three valid conv/ReLU/maxpool blocks, then a fully connected
bottleneck. Decoder: a fully connected expansion, then index unpooling
mirrored against the encoder's pools interleaved with full (transposed)
convolutions, ending in a ReLU so reconstructions stay non-negative like
the [0, 1]-scaled inputs.

One model per channel; latent codes from different channels never share
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import GraphError, ShapeError
from .optim import check_fit_settings, fit
from .params import ParamStore
from .signals import Channel
from .tensor import Tensor


def conv_pool_lengths(length: int, kernels, pool: int) -> list:
    """(conv_len, pool_len) per valid-conv/max-pool block, starting from `length`."""
    out = []
    for k in kernels:
        conv_len = length - k + 1
        length = (conv_len - pool) // pool + 1
        out.append((conv_len, length))
    return out


def create_convs(store: ParamStore, prefix: str, blocks, first: int = 1) -> None:
    """`{prefix}conv{i}.w` of each weight shape (out, in, *kernel) in `blocks`,
    numbered from `first`, each followed by its zero bias `.b`."""
    for i, shape in enumerate(blocks, start=first):
        store.create(f"{prefix}conv{i}.w", shape)
        store.create(f"{prefix}conv{i}.b", (shape[0],), init="zeros")


def conv_relu(store: ParamStore, prefix: str, i: int, conv, h: Tensor) -> Tensor:
    """relu(conv(h, w) + b) with block i's `{prefix}conv{i}` parameters, as
    one conv node with the bias-ReLU epilogue."""
    return conv(h, store[f"{prefix}conv{i}.w"], bias_relu=store[f"{prefix}conv{i}.b"])


@dataclass(frozen=True)
class BaeArch:
    """Layer sizes; the default is the production configuration."""

    seg_len: int = 1000
    kernels: tuple = (200, 100, 50)
    enc_filters: tuple = (16, 8, 4)
    latent: int = 128
    pool: int = 2

    def __post_init__(self):
        if len(self.kernels) != len(self.enc_filters):
            raise ShapeError("kernels and enc_filters must have equal length")

    @classmethod
    def toy(cls) -> "BaeArch":
        return cls(seg_len=40, kernels=(9, 5, 3), enc_filters=(4, 3, 2), latent=6)

    def encoder_chain(self) -> list:
        """Lengths after each conv and pool, in order."""
        pairs = conv_pool_lengths(self.seg_len, self.kernels, self.pool)
        return [n for pair in pairs for n in pair]

    def decoder_chain(self) -> list:
        """Lengths after each unpool and conv, ending at seg_len."""
        enc = self.encoder_chain()
        # Unpool targets are the encoder pre-pool lengths in reverse; each
        # full conv then lands exactly on the next pooled length.
        chain = []
        for i in range(len(self.kernels) - 1, -1, -1):
            chain.append(enc[2 * i])
            chain.append(enc[2 * i - 1] if i > 0 else self.seg_len)
        return chain

    @property
    def flat_width(self) -> int:
        return self.enc_filters[-1] * self.encoder_chain()[-1]


class BaeModel:
    """Encoder/decoder parameter bundle for one bio channel."""

    def __init__(self, store: ParamStore, channel: Channel, arch: BaeArch = BaeArch()):
        self.store = store
        self.channel = channel
        self.arch = arch
        self.prefix = f"bae.{channel.value}."
        self._build()

    def _build(self):
        arch = self.arch
        p = self.prefix
        filters = arch.enc_filters
        create_convs(self.store, f"{p}enc.", zip(filters, (1, *filters), arch.kernels))
        self.store.create(f"{p}enc.fc.w", (arch.latent, arch.flat_width))
        self.store.create(f"{p}enc.fc.b", (arch.latent,), init="zeros")
        self.store.create(f"{p}dec.fc.w", (arch.flat_width, arch.latent))
        self.store.create(f"{p}dec.fc.b", (arch.flat_width,), init="zeros")
        dec_out = (*filters[-2::-1], 1)  # mirror, then 1 channel
        dec_blocks = zip(dec_out, (filters[-1], *dec_out), arch.kernels[::-1])
        create_convs(self.store, f"{p}dec.", dec_blocks, first=len(arch.kernels) + 1)

    def _p(self, name: str) -> Tensor:
        return self.store[self.prefix + name]

    def encode_graph(self, x: Tensor) -> tuple:
        """Graph-building encoder; returns (latent tensor, pool indices)."""
        arch = self.arch
        if x.data.ndim == 1:
            x = T.reshape(x, (1, arch.seg_len))
        if x.data.shape != (1, arch.seg_len):
            raise ShapeError(
                f"encoder input must have {arch.seg_len} samples, got {x.data.shape}"
            )
        indices = []
        h = x
        for i in range(1, len(arch.kernels) + 1):
            h = conv_relu(self.store, f"{self.prefix}enc.", i, T.conv1d_valid, h)
            h, idx = T.maxpool1d(h, window=arch.pool, stride=arch.pool)
            indices.append(idx)
        z = T.linear(T.flatten(h), self._p("enc.fc.w"), self._p("enc.fc.b"))
        return z, tuple(indices)

    def decode_graph(self, z: Tensor, indices: tuple) -> Tensor:
        """Graph-building decoder; consumes the encoder's pool indices."""
        arch = self.arch
        if z.data.shape != (arch.latent,):
            raise ShapeError(
                f"latent must have length {arch.latent}, got {z.data.shape}"
            )
        if len(indices) != len(arch.kernels):
            raise GraphError(
                f"need {len(arch.kernels)} pool index sets, got {len(indices)}"
            )
        enc_chain = arch.encoder_chain()
        h = T.linear(z, self._p("dec.fc.w"), self._p("dec.fc.b"))
        h = T.reshape(h, (arch.enc_filters[-1], enc_chain[-1]))
        n = len(arch.kernels)
        # unpool1d raises GraphError on indices stale for this input.
        for step, i in enumerate(range(n - 1, -1, -1)):
            h = T.unpool1d(h, indices[i], target_len=enc_chain[2 * i])
            h = conv_relu(self.store, f"{self.prefix}dec.", n + 1 + step, T.conv1d_full, h)
        assert h.data.shape == (1, arch.seg_len), h.data.shape
        return h


def reconstruction_loss(x, x_hat) -> float:
    """Mean squared error between a window and its reconstruction."""
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    b = np.asarray(x_hat, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ShapeError(f"reconstruction_loss: shapes {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


@dataclass
class PretrainConfig:
    epochs: int = 30
    lr: float = 1e-4
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        check_fit_settings(self.epochs, self.batch_size, self.lr)


@dataclass
class PretrainResult:
    model: BaeModel
    # losses[0] is the dataset MSE before training; one entry per epoch after.
    losses: list = field(default_factory=list)


def _dataset_mse(model: BaeModel, windows: list) -> float:
    total = 0.0
    with T.no_tape():
        for w in windows:
            z, idx = model.encode_graph(Tensor(np.asarray(w)))
            recon = model.decode_graph(z, idx)
            total += reconstruction_loss(w, recon.data)
    return total / len(windows)


def pretrain(
    windows: list,
    channel: Channel,
    epochs: int,
    seed: int,
    arch: BaeArch = BaeArch(),
    lr: float = 1e-4,
    batch_size: int = 8,
) -> PretrainResult:
    """Train one channel's auto-encoder on reconstruction loss alone."""
    if not windows:
        raise GraphError("pretrain needs at least one window")
    windows = [np.asarray(w, dtype=np.float64).reshape(-1) for w in windows]
    store = ParamStore(rng_seed=seed)
    model = BaeModel(store, channel, arch=arch)
    rng = np.random.default_rng([int(seed), 606])
    losses = [_dataset_mse(model, windows)]

    def item_loss(j):
        z, idx = model.encode_graph(Tensor(windows[j]))
        loss = T.mse_loss(model.decode_graph(z, idx), windows[j].reshape(1, -1))
        return loss, (loss.item(),)

    losses += [mse for (mse,) in fit(store, len(windows), epochs, batch_size, lr, rng, item_loss)]
    return PretrainResult(model=model, losses=losses)
