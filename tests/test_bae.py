"""Auto-encoder: shape chains, latent contract, reconstruction training."""

import numpy as np
import pytest

from bioaffect.bae import BaeArch, BaeModel, pretrain, reconstruction_loss
from bioaffect.errors import GraphError, ShapeError
from bioaffect.params import ParamStore
from bioaffect.signals import Channel
from bioaffect.synth import gen_ecg_segments
from bioaffect.tensor import Tensor
from bioaffect import tensor as T

# Frozen against the conv/pool arithmetic: valid conv shrinks by K-1,
# pooling halves with floor((L - 2) / 2) + 1, full conv grows by K-1.
ENCODER_CHAIN = [801, 400, 301, 150, 101, 50]
DECODER_CHAIN = [101, 150, 301, 400, 801, 1000]


def build_model(seed=0, arch=None):
    store = ParamStore(rng_seed=seed)
    return BaeModel(store, Channel.ECG, arch=arch or BaeArch()), store


class TestShapes:
    def test_encoder_chain_matches_oracle(self):
        assert BaeArch().encoder_chain() == ENCODER_CHAIN

    def test_decoder_chain_matches_oracle(self):
        assert BaeArch().decoder_chain() == DECODER_CHAIN

    def test_latent_width_is_128(self):
        model, _ = build_model()
        rng = np.random.default_rng(0)
        z, indices = model.encode_graph(Tensor(rng.uniform(0, 1, 1000)))
        assert z.data.shape == (128,)
        assert [idx.indices.shape for idx in indices] == [
            (16, 400), (8, 150), (4, 50),
        ]

    def test_decode_restores_input_length(self):
        model, _ = build_model()
        rng = np.random.default_rng(1)
        z, indices = model.encode_graph(Tensor(rng.uniform(0, 1, 1000)))
        recon = model.decode_graph(z, indices)
        assert recon.data.shape == (1, 1000)

    def test_wrong_input_length_rejected(self):
        model, _ = build_model()
        with pytest.raises(ShapeError):
            model.encode_graph(Tensor(np.zeros(999)))

    def test_toy_arch_chains_consistent(self):
        arch = BaeArch.toy()
        enc, dec = arch.encoder_chain(), arch.decoder_chain()
        assert dec[-1] == arch.seg_len
        assert dec[0] == enc[-2]


class TestEncodeDecode:
    def test_zero_segment_gives_zero_latent(self):
        # Biases start at zero, so zeros propagate through convs and pools.
        model, _ = build_model()
        z, _ = model.encode_graph(Tensor(np.zeros(1000)))
        np.testing.assert_array_equal(z.data, 0.0)

    def test_zero_latent_gives_zero_reconstruction(self):
        model, _ = build_model()
        rng = np.random.default_rng(2)
        _, indices = model.encode_graph(Tensor(rng.uniform(0, 1, 1000)))
        recon = model.decode_graph(Tensor(np.zeros(128)), indices)
        np.testing.assert_array_equal(recon.data, 0.0)

    def test_reconstruction_nonnegative(self):
        model, _ = build_model(seed=5)
        rng = np.random.default_rng(3)
        z, indices = model.encode_graph(Tensor(rng.uniform(0, 1, 1000)))
        recon = model.decode_graph(z, indices)
        assert recon.data.min() >= 0.0

    def test_latent_deterministic(self):
        model, _ = build_model(seed=6)
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 1000)
        za, _ = model.encode_graph(Tensor(x))
        zb, _ = model.encode_graph(Tensor(x))
        assert (za.data == zb.data).all()
        assert model.channel == Channel.ECG

    def test_stale_indices_rejected(self):
        model, _ = build_model()
        toy_model, _ = (BaeModel(ParamStore(0), Channel.ECG, arch=BaeArch.toy()), None)
        rng = np.random.default_rng(5)
        _, toy_idx = toy_model.encode_graph(Tensor(rng.uniform(0, 1, 40)))
        with pytest.raises(GraphError, match="stale|index sets"):
            model.decode_graph(Tensor(np.zeros(128)), toy_idx)

    def test_detached_roundtrip_matches_graph(self):
        # The decoder reads only the latent's values and the pool indices: a
        # detached copy of the latent decodes to the bits of the connected graph.
        model, _ = build_model(seed=7)
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, 1000)
        z, indices = model.encode_graph(Tensor(x.copy()))
        recon = model.decode_graph(Tensor(z.data.copy()), indices)
        z_graph, idx_graph = model.encode_graph(Tensor(x))
        recon_graph = model.decode_graph(z_graph, idx_graph)
        assert (z.data == z_graph.data).all()
        assert (recon.data == recon_graph.data).all()


class TestReconstructionLoss:
    def test_identical_is_zero(self):
        x = np.linspace(0, 1, 1000)
        assert reconstruction_loss(x, x) == 0.0

    def test_constant_offset(self):
        assert reconstruction_loss(np.full(10, 0.5), np.zeros(10)) == pytest.approx(0.25)

    def test_matches_tensor_mse(self):
        rng = np.random.default_rng(7)
        a, b = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
        assert reconstruction_loss(a, b) == pytest.approx(
            T.mse_loss(Tensor(a), Tensor(b)).item(), abs=1e-15
        )


class TestPretrain:
    def test_zero_epochs_keeps_initialization(self):
        windows = [w[:40] for w in gen_ecg_segments(4, seed=20)]
        result = pretrain(windows, Channel.ECG, epochs=0, seed=21, arch=BaeArch.toy())
        fresh = BaeModel(ParamStore(rng_seed=21), Channel.ECG, arch=BaeArch.toy())
        for name in result.model.store.names():
            assert (result.model.store[name].data == fresh.store[name].data).all()
        assert len(result.losses) == 1

    def test_loss_decreases_on_small_corpus(self):
        windows = [w[:40] for w in gen_ecg_segments(16, seed=22)]
        result = pretrain(windows, Channel.ECG, epochs=8, seed=23, arch=BaeArch.toy(),
                          lr=1e-3, batch_size=4)
        assert result.losses[-1] < result.losses[0]

    def test_deterministic_curves(self):
        windows = [w[:40] for w in gen_ecg_segments(6, seed=24)]

        def run():
            return pretrain(windows, Channel.ECG, epochs=3, seed=25,
                            arch=BaeArch.toy(), batch_size=2)

        a, b = run(), run()
        assert a.losses == b.losses
        for name in a.model.store.names():
            assert (a.model.store[name].data == b.model.store[name].data).all()

    def test_empty_dataset_rejected(self):
        with pytest.raises(GraphError):
            pretrain([], Channel.ECG, epochs=1, seed=0)

    @pytest.mark.parametrize("seed", [27, 91])
    def test_pretrained_beats_random_init_on_training_segment(self, seed):
        windows = [w[:40] for w in gen_ecg_segments(10, seed=26)]
        result = pretrain(windows, Channel.ECG, epochs=12, seed=seed,
                          arch=BaeArch.toy(), lr=1e-3, batch_size=4)
        fresh = BaeModel(ParamStore(rng_seed=seed), Channel.ECG, arch=BaeArch.toy())

        def recon_mse(model, w):
            z, idx = model.encode_graph(Tensor(w))
            return reconstruction_loss(w, model.decode_graph(z, idx).data)

        for w in windows:
            assert recon_mse(result.model, w) < recon_mse(fresh, w)
