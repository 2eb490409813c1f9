"""Forward semantics of the tensor ops against hand values and loop oracles."""

import numpy as np
import pytest

from bioaffect import tensor as T
from bioaffect.errors import ConfigError, CorruptionError, GraphError, ShapeError
from bioaffect.optim import AdamState, adam_step
from bioaffect.params import ParamStore
from bioaffect.tensor import PoolIndices, Tensor

from oracles import conv1d_direct, conv1d_full_direct, conv2d_direct, maxpool1d_direct


class TestConv1dValid:
    def test_production_length(self):
        x = Tensor(np.zeros((1, 1000)))
        k = Tensor(np.zeros((16, 1, 200)))
        assert T.conv1d_valid(x, k).shape == (16, 801)

    def test_zero_kernel_single_window(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 5)))
        k = Tensor(np.zeros((2, 1, 5)))
        out = T.conv1d_valid(x, k)
        assert out.shape == (2, 1)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(2, 7))
        k = rng.uniform(-1, 1, size=(3, 2, 3))
        out = T.conv1d_valid(Tensor(x), Tensor(k)).data
        assert np.abs(out - conv1d_direct(x, k)).max() < 1e-10

    def test_stride(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(2, 11))
        k = rng.uniform(-1, 1, size=(1, 2, 4))
        out = T.conv1d_valid(Tensor(x), Tensor(k), stride=3).data
        assert np.abs(out - conv1d_direct(x, k, stride=3)).max() < 1e-10

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(ShapeError, match="axis 1"):
            T.conv1d_valid(Tensor(np.zeros((2, 10))), Tensor(np.zeros((1, 3, 4))))

    def test_too_short_input(self):
        with pytest.raises(ShapeError, match="length"):
            T.conv1d_valid(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 1, 5))))


class TestConv1dFull:
    def test_decoder_lengths(self):
        out = T.conv1d_full(Tensor(np.zeros((4, 101))), Tensor(np.zeros((8, 4, 50))))
        assert out.shape == (8, 150)
        out = T.conv1d_full(Tensor(np.zeros((16, 801))), Tensor(np.zeros((1, 16, 200))))
        assert out.shape == (1, 1000)

    def test_identity_single_tap(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(3, 9))
        k = np.zeros((3, 3, 1))
        for c in range(3):
            k[c, c, 0] = 1.0
        out = T.conv1d_full(Tensor(x), Tensor(k)).data
        np.testing.assert_allclose(out, x)

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(2, 8))
        k = rng.uniform(-1, 1, size=(3, 2, 4))
        out = T.conv1d_full(Tensor(x), Tensor(k)).data
        assert np.abs(out - conv1d_full_direct(x, k)).max() < 1e-10

    def test_stride_unsupported(self):
        with pytest.raises(ConfigError):
            T.conv1d_full(Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 1, 3))), stride=2)

    def test_adjoint_of_valid(self):
        # <conv_valid(x; w), y> == <x, conv_full(y; w with in/out swapped)>
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, size=(3, 12))
        w = rng.uniform(-1, 1, size=(4, 3, 5))
        y = rng.uniform(-1, 1, size=(4, 8))
        lhs = float(np.sum(T.conv1d_valid(Tensor(x), Tensor(w)).data * y))
        back = T.conv1d_full(Tensor(y), Tensor(w.swapaxes(0, 1))).data
        rhs = float(np.sum(x * back))
        assert abs(lhs - rhs) < 1e-10


class TestKernelSpectrumMemo:
    """The FFT path reuses a kernel's spectrum only while its values hold.

    Shapes are well above `_FFT_WORK_THRESHOLD`, so both ops take the FFT
    path in forward and backward.
    """

    OPS = (T.conv1d_valid, T.conv1d_full)

    @staticmethod
    def run(op, x_data, kernels):
        """Output, input grad and kernel grad of one forward/backward, as bytes."""
        x = Tensor(x_data, requires_grad=True)
        kernels.zero_grad()
        out = op(x, kernels)
        T.mse_loss(out, np.zeros(out.shape)).backward()
        return out.data.tobytes(), x.grad.tobytes(), kernels.grad.tobytes()

    def fresh(self, op, x_data, w):
        return self.run(op, x_data, Tensor(w.copy(), requires_grad=True))

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(30)
        x = rng.uniform(-1, 1, size=(16, 400))
        w = rng.uniform(-1, 1, size=(8, 16, 100))
        assert x.shape[0] * w.shape[2] * 301 > T._FFT_WORK_THRESHOLD
        return x, w

    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
    def test_hit_matches_fresh_kernel(self, op, data):
        x, w = data
        k = Tensor(w.copy(), requires_grad=True)
        first = self.run(op, x, k)
        memo = k._spectra
        assert memo is not None
        second = self.run(op, x, k)
        assert k._spectra is memo  # served from the memo, not rebuilt
        assert first == second == self.fresh(op, x, w)

    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
    def test_in_place_write_invalidates(self, op, data):
        x, w = data
        k = Tensor(w.copy(), requires_grad=True)
        self.run(op, x, k)
        k.data[0, 0, 0] += 1e-5  # a finite-difference probe
        assert self.run(op, x, k) == self.fresh(op, x, k.data)
        k.data[...] = w[::-1]  # a checkpoint load
        assert self.run(op, x, k) == self.fresh(op, x, w[::-1])

    def test_adam_step_releases_memos(self, data):
        x, _ = data
        store = ParamStore(rng_seed=0)
        k_valid = store.create("valid.w", (8, 16, 100))
        k_full = store.create("full.w", (8, 16, 100))
        state = AdamState(store, lr=1e-3)
        store.zero_grads()
        loss = T.mse_loss(T.conv1d_valid(Tensor(x), k_valid), np.zeros((8, 301)))
        loss = loss + T.mse_loss(T.conv1d_full(Tensor(x), k_full), np.zeros((8, 499)))
        loss.backward()
        assert k_valid._spectra is not None and k_full._spectra is not None
        adam_step(store, state)
        assert all(t._spectra is None for _, t in store.items())


class TestConv2dValid:
    def test_basic_shape(self):
        out = T.conv2d_valid(Tensor(np.zeros((1, 8, 8))), Tensor(np.zeros((4, 1, 3, 3))))
        assert out.shape == (4, 6, 6)

    def test_zero_kernel(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 6, 6)))
        out = T.conv2d_valid(x, Tensor(np.zeros((3, 2, 3, 3))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(1, 5, 5))
        k = rng.uniform(-1, 1, size=(2, 1, 3, 3))
        out = T.conv2d_valid(Tensor(x), Tensor(k)).data
        assert np.abs(out - conv2d_direct(x, k)).max() < 1e-10

    def test_stride_matches_direct_loop(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(2, 9, 7))
        k = rng.uniform(-1, 1, size=(3, 2, 3, 2))
        out = T.conv2d_valid(Tensor(x), Tensor(k), stride=2).data
        assert np.abs(out - conv2d_direct(x, k, stride=2)).max() < 1e-10


def test_random_conv_cases_match_oracles():
    rng = np.random.default_rng(10)
    for _ in range(60):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        width = int(rng.integers(1, 6))
        length = int(rng.integers(width, 20))
        stride = int(rng.integers(1, 4))
        x = rng.uniform(-1, 1, size=(c_in, length))
        k = rng.uniform(-1, 1, size=(c_out, c_in, width))
        got = T.conv1d_valid(Tensor(x), Tensor(k), stride=stride).data
        assert np.abs(got - conv1d_direct(x, k, stride)).max() < 1e-10
        got_full = T.conv1d_full(Tensor(x), Tensor(k)).data
        assert np.abs(got_full - conv1d_full_direct(x, k)).max() < 1e-10


class TestMaxPool1d:
    def test_production_lengths(self):
        out, idx = T.maxpool1d(Tensor(np.zeros((16, 801))), window=2, stride=2)
        assert out.shape == (16, 400)  # floor((801 - 2) / 2) + 1
        assert idx.indices.shape == (16, 400)
        out, _ = T.maxpool1d(Tensor(np.zeros((8, 301))), window=2, stride=2)
        assert out.shape == (8, 150)

    def test_constant_input_ties_take_first(self):
        out, idx = T.maxpool1d(Tensor(np.ones((2, 8))), window=2, stride=2)
        np.testing.assert_array_equal(out.data, 1.0)
        np.testing.assert_array_equal(idx.indices[0], [0, 2, 4, 6])

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, size=(3, 17))
        out, idx = T.maxpool1d(Tensor(x), window=3, stride=2)
        ref_out, ref_idx = maxpool1d_direct(x, window=3, stride=2)
        np.testing.assert_array_equal(out.data, ref_out)
        np.testing.assert_array_equal(idx.indices, ref_idx)

    def test_window_larger_than_input(self):
        with pytest.raises(ShapeError):
            T.maxpool1d(Tensor(np.zeros((1, 3))), window=4, stride=1)


class TestUnpool1d:
    def test_production_length(self):
        x = Tensor(np.zeros((4, 50)))
        idx = PoolIndices(np.arange(50, dtype=np.int64)[None, :].repeat(4, 0) * 2, 101)
        assert T.unpool1d(x, idx, target_len=101).shape == (4, 101)

    def test_one_hot_roundtrip(self):
        x = np.zeros((1, 10))
        x[0, 3] = 7.0
        pooled, idx = T.maxpool1d(Tensor(x), window=2, stride=2)
        restored = T.unpool1d(pooled, idx, target_len=10)
        assert restored.data[0, 3] == 7.0
        assert restored.data[0].sum() == 7.0

    def test_max_positions_preserved(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, size=(3, 20))
        pooled, idx = T.maxpool1d(Tensor(x), window=2, stride=2)
        restored = T.unpool1d(pooled, idx, target_len=20).data
        nz = restored != 0
        for c in range(3):
            for i, src in enumerate(idx.indices[c]):
                assert restored[c, src] == x[c, src]
        assert nz.sum() <= idx.indices.size

    def test_sum_conserved_with_overlapping_windows(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, size=(2, 15))
        pooled, idx = T.maxpool1d(Tensor(x), window=3, stride=1)
        restored = T.unpool1d(pooled, idx, target_len=15)
        assert abs(restored.data.sum() - pooled.data.sum()) < 1e-12

    def test_out_of_bounds_index(self):
        x = Tensor(np.zeros((1, 4)))
        idx = PoolIndices(np.array([[0, 2, 4, 6]], dtype=np.int64), 8)
        with pytest.raises(CorruptionError):
            T.unpool1d(x, idx, target_len=5)

    def test_stale_shape(self):
        x = Tensor(np.zeros((2, 4)))
        idx = PoolIndices(np.zeros((1, 4), dtype=np.int64), 8)
        with pytest.raises(GraphError, match="stale"):
            T.unpool1d(x, idx, target_len=8)


class TestLinear:
    def test_bottleneck_shape(self):
        out = T.linear(
            Tensor(np.zeros(200)), Tensor(np.zeros((128, 200))), Tensor(np.zeros(128))
        )
        assert out.shape == (128,)

    def test_identity(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, size=6)
        out = T.linear(Tensor(x), Tensor(np.eye(6)), Tensor(np.zeros(6)))
        np.testing.assert_allclose(out.data, x)

    def test_matches_dot_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-1, 1, size=7)
        w = rng.uniform(-1, 1, size=(4, 7))
        b = rng.uniform(-1, 1, size=4)
        out = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        ref = np.array([sum(w[m, n] * x[n] for n in range(7)) + b[m] for m in range(4)])
        assert np.abs(out - ref).max() < 1e-10

    def test_mismatch(self):
        with pytest.raises(ShapeError, match="weight columns"):
            T.linear(Tensor(np.zeros(5)), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))


class TestPointwise:
    def test_relu_values(self):
        out = T.relu(Tensor(np.array([-1.0, 0.0, 3.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

    def test_mse_identical_is_zero(self):
        x = np.linspace(0, 1, 9)
        assert T.mse_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_mse_hand_value(self):
        assert T.mse_loss(Tensor(np.zeros(2)), Tensor(np.array([2.0, 2.0]))).item() == 4.0

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.mse_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_concat_and_flatten(self):
        a = Tensor(np.array([[1.0, 2.0]]))
        b = Tensor(np.array([[3.0, 4.0]]))
        joined = T.concat([a, b], axis=0)
        np.testing.assert_array_equal(joined.data, [[1, 2], [3, 4]])
        flat = T.flatten(joined)
        np.testing.assert_array_equal(flat.data, [1, 2, 3, 4])

    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(6.0))
        np.testing.assert_array_equal(T.reshape(x, (2, 3)).data, [[0, 1, 2], [3, 4, 5]])
        with pytest.raises(ShapeError):
            T.reshape(x, (4, 2))

    def test_channel_bias_broadcast(self):
        x = Tensor(np.zeros((2, 3)))
        out = T.add_channel_bias(x, Tensor(np.array([1.0, -1.0])))
        np.testing.assert_array_equal(out.data, [[1, 1, 1], [-1, -1, -1]])

    def test_forward_outputs_finite_on_finite_inputs(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.uniform(-10, 10, size=(3, 30)))
        k = Tensor(rng.uniform(-10, 10, size=(2, 3, 5)))
        h = T.relu(T.conv1d_valid(x, k, stride=2))
        h, _ = T.maxpool1d(h, 2, 2)
        out = T.flatten(h)
        assert np.isfinite(out.data).all()
