"""Forward semantics of the tensor ops against hand values and loop oracles."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from bioaffect import tensor as T
from bioaffect.errors import CorruptionError, GraphError, ShapeError
from bioaffect.optim import AdamState, adam_step
from bioaffect.params import ParamStore
from bioaffect.tensor import PoolIndices, Tensor

from oracles import (
    conv1d_direct,
    conv1d_full_direct,
    conv2d_direct,
    maxpool1d_direct,
    maxpool2d_direct,
)


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

    def test_negative_index(self):
        x = Tensor(np.zeros((1, 2)))
        idx = PoolIndices(np.array([[-1, 2]], dtype=np.int64), 4)
        with pytest.raises(CorruptionError, match="unpool1d"):
            T.unpool1d(x, idx, target_len=4)

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


class TestMaxPool2d:
    @pytest.mark.parametrize("shape, window, stride", [
        ((2, 8, 8), 2, 2), ((3, 9, 7), 2, 2), ((2, 9, 8), 3, 2), ((1, 6, 7), 3, 1),
    ])
    def test_matches_direct_loop(self, shape, window, stride):
        rng = np.random.default_rng(17)
        x = rng.integers(-2, 3, size=shape).astype(np.float64)  # many ties
        xt = Tensor(x)
        out = T.maxpool2d(xt, window, stride)
        ref_out, rows, cols = maxpool2d_direct(x, window, stride)
        np.testing.assert_array_equal(out.data, ref_out)
        g = rng.normal(size=out.shape)
        out.grad = g
        out._backprop()
        routed = np.zeros(shape)
        for (ch, i, j), gv in np.ndenumerate(g):
            routed[ch, rows[ch, i, j], cols[ch, i, j]] += gv
        np.testing.assert_array_equal(xt.grad, routed)


# --- convs, pools and unpool scatter, pinned bit for bit -----------------------
#
# The references are the formulations the kernels replaced: each pool as
# sliding_window_view + argmax + take_along_axis, each scatter as np.add.at,
# and conv2d and the sub-threshold 1-D convs as one GEMM per kernel tap.
# Outputs, pool indices and gradients must agree in every bit, signed zeros
# and NaN payloads included (the 1-D convs with one payload; see _conv_input).


def _maxpool1d_reference(x, window, stride):
    windows = sliding_window_view(x, window, axis=1)[:, ::stride, :]
    arg = windows.argmax(axis=2)
    src = arg + stride * np.arange(windows.shape[1], dtype=np.int64)[None, :]
    out = np.take_along_axis(windows, arg[:, :, None], axis=2)[:, :, 0]
    return out, src


def _maxpool2d_reference(x, window, stride):
    windows = sliding_window_view(x, (window, window), axis=(1, 2))[:, ::stride, ::stride]
    c, nh, nw = windows.shape[:3]
    flat = windows.reshape(c, nh, nw, window * window)
    arg = flat.argmax(axis=3)
    out = np.take_along_axis(flat, arg[:, :, :, None], axis=3)[:, :, :, 0]
    dy, dx = np.divmod(arg, window)
    ys = dy + stride * np.arange(nh, dtype=np.int64)[None, :, None]
    xs = dx + stride * np.arange(nw, dtype=np.int64)[None, None, :]
    return out, (np.arange(c)[:, None, None], ys, xs)


def _add_at_reference(shape, index, values):
    out = np.zeros(shape)
    np.add.at(out, index, values)
    return out


def _conv2d_reference(x, w, stride, g):
    """Forward by one GEMM per tap, and both gradients of upstream `g`."""
    c_out, c_in, kh, kw = w.shape
    nh = (x.shape[1] - kh) // stride + 1
    nw = (x.shape[2] - kw) // stride + 1
    span_h, span_w = (nh - 1) * stride + 1, (nw - 1) * stride + 1
    out = np.zeros((c_out, nh * nw))
    g2 = g.reshape(c_out, -1)
    gw = np.empty_like(w)
    gx = np.zeros_like(x)
    for a in range(kh):
        for b in range(kw):
            sl = x[:, a : a + span_h : stride, b : b + span_w : stride]
            out += w[:, :, a, b] @ sl.reshape(c_in, -1)
            gw[:, :, a, b] = g2 @ sl.reshape(c_in, -1).T
            gx[:, a : a + span_h : stride, b : b + span_w : stride] += (
                w[:, :, a, b].T @ g2
            ).reshape(c_in, nh, nw)
    return out.reshape(c_out, nh, nw), gw, gx


def _correlate_reference(a, w, full, swap, out_len, stride):
    """One GEMM per tap, the products added onto zeros in tap order."""
    out = np.zeros((w.shape[1] if swap else w.shape[0], out_len))
    span = ((a.shape[1] if full else out_len) - 1) * stride + 1
    for k in range(w.shape[2]):
        w_k = w[:, :, k].T if swap else w[:, :, k]
        if full:
            out[:, k : k + span : stride] += w_k @ a
        else:
            out += w_k @ a[:, k : k + span : stride]
    return out


def _conv1d_reference(x, w, stride, full, g):
    """Forward, kernel gradient and input gradient of upstream `g`, one GEMM per tap."""
    length, k_width = x.shape[1], w.shape[2]
    out_len = length + k_width - 1 if full else (length - k_width) // stride + 1
    out = _correlate_reference(x, w, full, False, out_len, stride)
    gw = np.empty_like(w)
    span = (out_len - 1) * stride + 1
    for k in range(k_width):
        if full:
            gw[:, :, k] = g[:, k : k + length] @ x.T
        else:
            gw[:, :, k] = g @ x[:, k : k + span : stride].T
    gx = _correlate_reference(g, w, not full, True, length, stride)
    return out, gw, gx


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


# Quiet NaNs with distinct payloads, so a test sees which NaN won.
_NAN_A = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
_NAN_B = np.array([0x7FF8000000000002], dtype=np.uint64).view(np.float64)[0]

# Where each input kind plants its NaNs: one NaN off a window's first tap,
# and one window holding two.
_NAN_AT = {
    2: ((0, 3), (-1, 4), (-1, 5)),
    3: ((0, 0, 1), (-1, 2, 3), (-1, 3, 2)),
}


def _pool_input(kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "equal":
        return np.full(shape, 0.25)
    if kind == "coarse":  # ties inside most windows
        return rng.integers(-1, 2, size=shape).astype(np.float64)
    if kind == "signed_zeros":  # 0.0 and -0.0 tie in most windows
        return rng.choice([0.0, -0.0, -0.0, -1.0], size=shape)
    x = rng.normal(size=shape)
    if kind == "nans":
        one, first, second = _NAN_AT[len(shape)]
        x[one] = np.nan
        x[first], x[second] = _NAN_A, _NAN_B
    return x


_KINDS = ["normal", "equal", "coarse", "nans", "signed_zeros"]

# Production shapes at window 2, stride 2: bio (4, 801), (2, 301), (2, 101),
# (2, 26); BAE encoder (16, 801), (8, 301), (4, 101). Then overlapping and
# odd-stride windows.
_POOL1D_CASES = [
    ((4, 801), 2, 2), ((2, 301), 2, 2), ((2, 101), 2, 2), ((2, 26), 2, 2),
    ((16, 801), 2, 2), ((8, 301), 2, 2), ((4, 101), 2, 2),
    ((4, 801), 3, 2), ((2, 26), 3, 2), ((4, 101), 3, 1), ((3, 17), 3, 1),
]

# Face CNN shapes at window 2, stride 2, then overlapping windows.
_POOL2D_CASES = [
    ((8, 62, 62), 2, 2), ((16, 29, 29), 2, 2), ((32, 12, 12), 2, 2),
    ((8, 29, 29), 3, 2), ((2, 9, 7), 3, 1),
]


def _conv_input(kind, shape, rng):
    v = rng.normal(size=shape)
    if kind == "zeros":
        v[..., ::2] = 0.0
    elif kind == "signed_zeros":  # every other entry -0.0: products and sums of zeros
        v[..., ::2] = -0.0
        v[..., 1::4] = 0.0
    elif kind == "nans":
        # One payload: where two NaNs meet in a sum, numpy's add keeps the
        # payload of one operand or the other by the element's place in its
        # vector loop, so two payloads would pin that loop, not these kernels.
        v.flat[[1 % v.size, (v.size - 2) % v.size]] = np.nan
    return v


# Every shape here is below the FFT threshold, so it takes the stacked
# matmul path: the production bio conv3 and conv4, BAE encoder conv3 and
# decoder conv4 (a full conv); strides 2 and 3; width 1; length == width;
# and one-element outputs (one output channel, one position), where the
# tap sum must not turn pairwise (K >= 8).
_CONV1D_CASES = [
    ((2, 150), (2, 2, 50), 1, False), ((2, 50), (2, 2, 25), 1, False),
    ((8, 150), (4, 8, 50), 1, False), ((4, 101), (8, 4, 50), 1, True),
    ((2, 150), (2, 2, 50), 2, False), ((8, 150), (4, 8, 50), 3, False),
    ((2, 17), (3, 2, 5), 2, False), ((3, 12), (2, 3, 5), 1, True),
    ((3, 10), (2, 3, 1), 1, False), ((3, 10), (2, 3, 1), 1, True),
    ((1, 10), (2, 1, 1), 1, False), ((1, 10), (2, 1, 1), 1, True),
    ((2, 7), (3, 2, 7), 1, False), ((2, 9), (1, 2, 9), 1, False),
    ((4, 30), (1, 4, 30), 1, False), ((1, 1), (1, 1, 1), 1, False),
    ((1, 1), (1, 1, 1), 1, True),
]


class TestKernelsMatchReplacedFormulation:
    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("shape, window, stride", _POOL1D_CASES)
    def test_maxpool1d(self, shape, window, stride, kind):
        x = _pool_input(kind, shape, seed=shape[1] + window)
        ref_out, ref_src = _maxpool1d_reference(x, window, stride)
        xt = Tensor(x)
        out, idx = T.maxpool1d(xt, window, stride)
        _assert_same_bits(out.data, ref_out)
        _assert_same_bits(idx.indices, ref_src)
        g = np.random.default_rng(1).normal(size=out.shape)
        out.grad = g
        out._backprop()
        rows = np.arange(shape[0])[:, None]
        _assert_same_bits(xt.grad, _add_at_reference(shape, (rows, ref_src), g))

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("shape, window, stride", _POOL2D_CASES)
    def test_maxpool2d(self, shape, window, stride, kind):
        x = _pool_input(kind, shape, seed=shape[1] + window)
        ref_out, ref_index = _maxpool2d_reference(x, window, stride)
        xt = Tensor(x)
        out = T.maxpool2d(xt, window, stride)
        _assert_same_bits(out.data, ref_out)
        g = np.random.default_rng(2).normal(size=out.shape)
        out.grad = g
        out._backprop()
        _assert_same_bits(xt.grad, _add_at_reference(shape, ref_index, g))

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("shape, window, stride", [
        ((16, 801), 2, 2), ((8, 301), 2, 2), ((4, 101), 2, 2),
        ((4, 101), 3, 1), ((2, 26), 3, 2),
    ])
    def test_unpool1d(self, shape, window, stride, kind):
        x = _pool_input(kind, shape, seed=shape[1])
        pooled, idx = T.maxpool1d(Tensor(x), window, stride)
        v = np.random.default_rng(3).normal(size=pooled.shape)
        rows = np.arange(shape[0])[:, None]
        vt = Tensor(v)
        out = T.unpool1d(vt, idx, target_len=shape[1])
        _assert_same_bits(out.data, _add_at_reference(shape, (rows, idx.indices), v))
        g = np.random.default_rng(4).normal(size=shape)
        out.grad = g
        out._backprop()
        _assert_same_bits(vt.grad, np.zeros(v.shape) + g[rows, idx.indices])

    @pytest.mark.parametrize("x_shape, w_shape, stride", [
        ((1, 64, 64), (8, 1, 3, 3), 1),
        ((1, 64, 64), (8, 1, 3, 3), 2),
        ((1, 11, 9), (3, 1, 2, 3), 2),
        ((3, 12, 12), (4, 3, 3, 3), 1),
    ])
    def test_conv2d_valid(self, x_shape, w_shape, stride):
        rng = np.random.default_rng(5)
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        xt, wt = Tensor(x), Tensor(w)
        out = T.conv2d_valid(xt, wt, stride=stride)
        g = rng.normal(size=out.shape)
        ref_out, ref_gw, ref_gx = _conv2d_reference(x, w, stride, g)
        _assert_same_bits(out.data, ref_out)
        out.grad = g
        out._backprop()
        _assert_same_bits(wt.grad, np.zeros(w.shape) + ref_gw)
        _assert_same_bits(xt.grad, np.zeros(x.shape) + ref_gx)

    @pytest.mark.parametrize("kind", ["normal", "zeros", "signed_zeros", "nans"])
    @pytest.mark.parametrize("x_shape, w_shape, stride, full", _CONV1D_CASES)
    def test_conv1d(self, x_shape, w_shape, stride, full, kind):
        rng = np.random.default_rng(x_shape[1] + w_shape[2] + stride)
        x, w = _conv_input(kind, x_shape, rng), _conv_input(kind, w_shape, rng)
        xt, wt = Tensor(x), Tensor(w)
        out = T.conv1d_full(xt, wt) if full else T.conv1d_valid(xt, wt, stride=stride)
        g = _conv_input(kind, out.shape, rng)
        ref_out, ref_gw, ref_gx = _conv1d_reference(x, w, stride, full, g)
        _assert_same_bits(out.data, ref_out)
        out.grad = g
        out._backprop()
        _assert_same_bits(wt.grad, np.zeros(w.shape) + ref_gw)
        _assert_same_bits(xt.grad, np.zeros(x.shape) + ref_gx)

    @pytest.mark.parametrize("op", ["maxpool1d", "maxpool2d", "unpool1d"])
    def test_leaf_written_after_pooling_keeps_routing(self, op):
        # gradcheck probes and adam_step write a leaf's values in place; the
        # pool's winners must be those of the values it pooled.
        shape = (3, 9, 8) if op == "maxpool2d" else (3, 17)
        x = np.random.default_rng(7).normal(size=shape)
        xt = Tensor(x.copy(), requires_grad=True)
        if op == "maxpool2d":
            out = T.maxpool2d(xt, 2, 2)
            _, index = _maxpool2d_reference(x, 2, 2)
        else:
            out, idx = T.maxpool1d(xt, 3, 2)
            _, src = _maxpool1d_reference(x, 3, 2)
            index = (np.arange(shape[0])[:, None], src)
        xt.data[...] = -xt.data  # moves every window's maximum
        if op == "unpool1d":
            v = np.random.default_rng(8).normal(size=idx.indices.shape)
            _assert_same_bits(T.unpool1d(Tensor(v), idx, shape[1]).data,
                              _add_at_reference(shape, index, v))
            return
        g = np.random.default_rng(8).normal(size=out.shape)
        out.grad = g
        out._backprop()
        _assert_same_bits(xt.grad, _add_at_reference(shape, index, g))


# Every ReLU input shape in the forward graphs of the three production
# variants: bio stream, face CNN, BAE encoder and decoder, and the merges.
_RELU_SHAPES = [
    (4, 801), (2, 301), (2, 101), (2, 26),
    (8, 62, 62), (16, 29, 29), (32, 12, 12),
    (16, 801), (8, 301), (4, 101), (8, 150), (16, 400), (1, 1000),
    (4308,), (512,), (4564,),
]
# NaNs of both signs (and two payloads), zeros of both signs, infinities
# and the smallest subnormals.
_RELU_SPECIALS = np.array(
    [0x7FF8000000000001, 0xFFF8000000000002, 0x8000000000000000, 0, 0x7FF0000000000000,
     0xFFF0000000000000, 1, 0x8000000000000001],
    dtype=np.uint64,
).view(np.float64)


@pytest.mark.parametrize("kind", ["specials", "negative_zeros"])
@pytest.mark.parametrize("shape", _RELU_SHAPES)
def test_relu_has_the_bits_of_the_masked_formulation(shape, kind):
    rng = np.random.default_rng(math.prod(shape))
    x = rng.normal(size=shape)
    flat = x.reshape(-1)
    if kind == "specials":
        flat[rng.choice(flat.size, 4 * _RELU_SPECIALS.size, replace=False)] = np.repeat(
            _RELU_SPECIALS, 4
        )
    else:  # vectorized loops may treat a few elements on their own, wherever they fall
        flat[...] = -0.0
    xt = Tensor(x, requires_grad=True)
    out = T.relu(xt)
    _assert_same_bits(out.data, np.where(x > 0, x, 0.0))
    g = rng.normal(size=shape)
    out.grad = g
    out._backprop()
    _assert_same_bits(xt.grad, np.zeros(shape) + g * (x > 0))
