"""Backward pass, optimizer, and initialization behavior."""

import numpy as np
import pytest

from bioaffect import tensor as T
from bioaffect.errors import CorruptionError, GraphError
from bioaffect.gradcheck import finite_difference_check, run_suite
from bioaffect.optim import AdamState, adam_step
from bioaffect.params import ParamStore, load_params, save_params, uniform_init
from bioaffect.tensor import Tensor

from test_files import record_opens


class TestBackward:
    def test_hand_derivative_scalar_regression(self):
        # loss = mse(w * x, y) with scalars: d loss / d w = 2 x (w x - y)
        w = Tensor(np.array([[1.5]]), requires_grad=True)
        x, y = 0.7, 2.0
        loss = T.mse_loss(
            T.linear(Tensor(np.array([x])), w, Tensor(np.zeros(1))),
            Tensor(np.array([y])),
        )
        loss.backward()
        expected = 2 * x * (1.5 * x - y)
        assert abs(w.grad[0, 0] - expected) < 1e-12

    def test_constant_loss_leaves_grads_zero(self):
        p = Tensor(np.ones(4), requires_grad=True)
        loss = T.mse_loss(Tensor(np.zeros(3)), Tensor(np.zeros(3)))
        loss.backward()
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_unreachable_parameter_stays_zero(self):
        store = ParamStore(rng_seed=0)
        used = store.create("used", (3,))
        unused = store.create("unused", (3,))
        loss = T.mse_loss(used, Tensor(np.zeros(3)))
        loss.backward()
        assert np.abs(used.grad).sum() > 0
        np.testing.assert_array_equal(unused.grad, 0.0)

    def test_backward_requires_scalar(self):
        with pytest.raises(GraphError, match="scalar"):
            Tensor(np.zeros(3)).backward()

    def test_grads_accumulate_across_calls(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        for _ in range(2):
            T.mse_loss(p, Tensor(np.zeros(1))).backward()
        assert p.grad[0] == pytest.approx(4.0)  # 2 * (2 * 1.0)

    def test_second_backward_on_one_graph_adds_the_same_grads(self):
        # Interior grads are released after routing, so the second call
        # routes only the loss's own unit gradient again: 8, then 16.
        p = Tensor(np.array([1.0]), requires_grad=True)
        loss = T.mse_loss(p * 2.0, Tensor(np.zeros(1)))
        loss.backward()
        assert p.grad[0] == 8.0
        loss.backward()
        assert p.grad[0] == 16.0

    def test_first_grad_is_a_fresh_array_with_the_bits_of_zeros_plus_g(self):
        # add_channel_bias hands its output gradient straight to its input.
        x = Tensor(np.zeros((2, 3)))
        out = T.add_channel_bias(x, Tensor(np.zeros(2)))
        g = np.array([[-0.0, 1.5, -2.0], [0.0, -0.0, 3.0]])
        out.grad = g
        out._backprop()
        assert not np.shares_memory(x.grad, g)
        expected = np.zeros_like(g) + g
        np.testing.assert_array_equal(x.grad.view(np.uint64), expected.view(np.uint64))

    def test_reused_node_fan_out(self):
        # p feeds two branches; gradient must sum both contributions.
        p = Tensor(np.array([3.0]), requires_grad=True)
        loss = T.mse_loss(p, Tensor(np.zeros(1))) * 1.0 + T.mse_loss(
            p, Tensor(np.zeros(1))
        ) * 1.0
        loss.backward()
        assert p.grad[0] == pytest.approx(12.0)

    def test_op_suite_meets_tolerance(self):
        results = run_suite(
            names=["conv1d_valid", "conv1d_full", "maxpool1d", "unpool1d", "linear"],
            max_probes=32,
        )
        assert all(err <= 1e-4 for err in results.values()), results

    def test_composite_finite_difference(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.uniform(-1, 1, size=(1, 24)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, size=(2, 1, 5)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(3, 20)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=3), requires_grad=True)
        target = rng.uniform(-1, 1, size=3)

        def make():
            h = T.relu(T.conv1d_valid(x, k))
            h, _ = T.maxpool1d(h, 2, 2)
            return T.mse_loss(T.linear(T.flatten(h), w, b), target)

        err = finite_difference_check(
            make, {"x": x, "k": k, "w": w, "b": b}, rng, max_probes_per_tensor=24
        )
        assert err <= 1e-4


    @pytest.mark.parametrize("stride", [1, 2])
    def test_one_channel_conv2d_finite_difference(self, stride):
        # gradcheck's own conv2d case has two input channels; this covers the
        # one-channel forward, which multiplies instead of calling matmul.
        rng = np.random.default_rng(31 + stride)
        x = Tensor(rng.uniform(-1, 1, size=(1, 9, 8)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, size=(3, 1, 3, 2)), requires_grad=True)
        out_shape = (3, (9 - 3) // stride + 1, (8 - 2) // stride + 1)
        target = rng.uniform(-1, 1, size=out_shape)

        def make():
            return T.mse_loss(T.conv2d_valid(x, k, stride=stride), target)

        assert finite_difference_check(make, {"x": x, "k": k}, rng) <= 1e-4


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        store = ParamStore(rng_seed=1)
        p = store.create("p", (4,))
        before = p.data.copy()
        state = AdamState(store, lr=1e-2)
        store.zero_grads()
        adam_step(store, state)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_lr(self):
        store = ParamStore(rng_seed=2)
        p = store.create("p", (1,))
        start = p.data.copy()
        state = AdamState(store, lr=1e-4)
        p.grad[...] = 1.0
        adam_step(store, state)
        # m-hat = v-hat = 1, so the step is lr / (1 + eps), essentially lr.
        assert abs((start - p.data)[0] - 1e-4) < 1e-9

    def test_monotone_descent_on_quadratic(self):
        store = ParamStore(rng_seed=3)
        p = store.create("p", (1,))
        p.data[...] = 2.0
        state = AdamState(store, lr=1e-2)
        losses = []
        for _ in range(600):
            store.zero_grads()
            loss = T.mse_loss(p, Tensor(np.zeros(1)))
            loss.backward()
            losses.append(loss.item())
            adam_step(store, state)
        assert losses[-1] < 0.01 * losses[0]
        # Strict descent until the iterate reaches the minimum's neighborhood,
        # where Adam's momentum may produce tiny oscillations.
        settled = next((i for i, v in enumerate(losses) if v < 1e-3), len(losses))
        prefix = losses[: settled + 1]
        assert all(b <= a + 1e-12 for a, b in zip(prefix, prefix[1:]))

    def test_missing_grad_is_usage_error(self):
        store = ParamStore(rng_seed=4)
        p = store.create("p", (2,))
        state = AdamState(store, lr=1e-3)
        p.grad = None
        with pytest.raises(GraphError, match="gradient"):
            adam_step(store, state)

    def test_deterministic_trajectories(self):
        def run():
            store = ParamStore(rng_seed=5)
            p = store.create("p", (8,))
            state = AdamState(store, lr=1e-3)
            rng = np.random.default_rng(42)
            target = rng.uniform(-1, 1, size=8)
            history = []
            for _ in range(25):
                store.zero_grads()
                T.mse_loss(p, target).backward()
                adam_step(store, state)
                history.append(p.data.copy())
            return np.stack(history)

        a, b = run(), run()
        assert (a == b).all()  # bit-identical


class TestInit:
    def test_fan_in_one_bound(self):
        t = uniform_init((1000,), rng_seed=0, name="b")
        assert t.data.min() >= -1.0 and t.data.max() <= 1.0

    def test_fan_in_scaling(self):
        t = uniform_init((8, 100), rng_seed=0, name="w")
        bound = (1.0 / 100) ** 0.5
        assert np.abs(t.data).max() <= bound

    def test_deterministic_per_name_shape_seed(self):
        a = uniform_init((4, 9), rng_seed=7, name="w")
        b = uniform_init((4, 9), rng_seed=7, name="w")
        assert (a.data == b.data).all()
        c = uniform_init((4, 9), rng_seed=7, name="other")
        assert not (a.data == c.data).all()

    def test_mean_within_three_sigma(self):
        t = uniform_init((100000,), rng_seed=11, name="big")
        # var of U(-1, 1) is 1/3; the sample mean has sigma = 1/sqrt(3 n)
        sigma = 1.0 / np.sqrt(3 * t.data.size)
        assert abs(t.data.mean()) < 3 * sigma

    def test_store_rejects_duplicates(self):
        store = ParamStore(rng_seed=0)
        store.create("w", (2, 2))
        with pytest.raises(GraphError, match="duplicate"):
            store.create("w", (2, 2))

    def test_store_entries_have_grad_slots(self):
        store = ParamStore(rng_seed=0)
        t = store.create("w", (3,))
        assert t.grad is not None and t.grad.shape == (3,)

    def test_init_independent_of_creation_order(self):
        s1 = ParamStore(rng_seed=9)
        s1.create("a", (3, 3))
        s1.create("b", (3, 3))
        s2 = ParamStore(rng_seed=9)
        s2.create("b", (3, 3))
        s2.create("a", (3, 3))
        assert (s1["a"].data == s2["a"].data).all()
        assert (s1["b"].data == s2["b"].data).all()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        store = ParamStore(rng_seed=13)
        store.create("enc.w", (4, 7))
        store.create("enc.b", (4,), init="zeros")
        store["enc.b"].data[...] = np.arange(4.0)
        path = tmp_path / "params.ckpt"
        save_params(store, path)
        loaded = load_params(path)
        assert loaded.rng_seed == 13
        assert loaded.names() == ["enc.w", "enc.b"]
        for name in store.names():
            assert (loaded[name].data == store[name].data).all()

    def test_bytes_deterministic(self, tmp_path):
        def write(p):
            store = ParamStore(rng_seed=3)
            store.create("x", (5, 5))
            save_params(store, p)
            return p.read_bytes()

        assert write(tmp_path / "a.ckpt") == write(tmp_path / "b.ckpt")

    def test_cut_or_padded_checkpoint_names_field_and_offset(self, tmp_path):
        store = ParamStore(rng_seed=5)
        store.create("enc.w", (2, 3))
        store.create("b", (4,), init="zeros")
        path = tmp_path / "params.ckpt"
        save_params(store, path)
        blob = path.read_bytes()
        second = 20 + (2 + 5 + 1 + 8)  # header, then the whole first entry
        values = second + (2 + 1 + 1 + 4)
        cuts = {
            2: (0, "magic"),
            10: (4, "header"),
            21: (20, "parameter name length"),
            24: (22, "parameter name"),
            second + 2: (second + 2, "parameter name"),
            values - 2: (values - 4, "shape of 'b'"),
            values + 8: (values, "values of 'enc.w'"),
            len(blob) - 1: (len(blob) - 32, "values of 'b'"),
        }
        for cut, (start, field) in cuts.items():
            path.write_bytes(blob[:cut])
            with pytest.raises(
                CorruptionError,
                match=rf"params\.ckpt: truncated at byte offset {start}: {field} needs",
            ):
                load_params(path)
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CorruptionError, match=r"params\.ckpt: truncated at byte offset"):
                load_params(path)
        path.write_bytes(blob + b"\x00\x00")
        with pytest.raises(
            CorruptionError,
            match=rf"2 trailing bytes at byte offset {len(blob)} after the last value",
        ):
            load_params(path)

    def test_name_bytes_that_are_not_utf8(self, tmp_path):
        store = ParamStore(rng_seed=5)
        store.create("enc.w", (2, 3))
        path = tmp_path / "params.ckpt"
        save_params(store, path)
        blob = bytearray(path.read_bytes())
        blob[23] = 0xFF  # second byte of the name
        path.write_bytes(bytes(blob))
        with pytest.raises(
            CorruptionError, match=r"parameter name is not UTF-8 at byte offset 23"
        ):
            load_params(path)


class TestGradBuffers:
    def test_zero_grad_keeps_the_buffer(self):
        p = Tensor(np.ones(4), requires_grad=True)
        buffer = p.grad
        T.mse_loss(p, Tensor(np.zeros(4))).backward()
        assert p.grad is buffer and (buffer != 0).all()
        p.zero_grad()
        assert p.grad is buffer
        assert np.array_equal(buffer.view(np.uint64), np.zeros(4).view(np.uint64))

    def test_zero_grads_allocates_only_a_missing_buffer(self):
        store = ParamStore(rng_seed=2)
        a = store.create("a", (3,))
        b = store.create("b", (2, 2))
        b.grad = None  # as for a parameter loaded from a checkpoint
        kept = a.grad
        store.zero_grads()
        assert a.grad is kept
        assert b.grad is not None and b.grad.shape == (2, 2) and not b.grad.any()
        kept_b = b.grad
        store.zero_grads()
        assert b.grad is kept_b


# g and x entries whose products are zeros of both signs, infinities and NaNs.
_OUTER_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e300])


class TestLinearWeightGradient:
    """The weight gradient is added one block of rows at a time; the bits
    are those of `grad + np.outer(g, x)`, or of `np.outer(g, x) + 0.0`."""

    @pytest.mark.parametrize("shape", [(3, 20), (256, 1152), (10, 4308), (1, 9000)])
    @pytest.mark.parametrize("held", ["none", "zeros", "values"])
    def test_bits_of_the_outer_product(self, shape, held):
        rng = np.random.default_rng(shape[1])
        g = rng.normal(size=shape[0])
        x = rng.normal(size=shape[1])
        g[: min(7, shape[0])] = _OUTER_SPECIALS[: min(7, shape[0])]
        x[:7] = _OUTER_SPECIALS
        w = Tensor(rng.normal(size=shape))
        if held == "zeros":
            w.grad = -np.zeros(shape)  # -0.0 + -0.0 keeps its sign
        elif held == "values":
            w.grad = rng.normal(size=shape)
        start = None if w.grad is None else w.grad.copy()
        out = T.linear(Tensor(x), w, Tensor(np.zeros(shape[0])))
        out.grad = g
        with np.errstate(invalid="ignore", over="ignore"):
            out._backprop()
            want = np.outer(g, x) + 0.0 if start is None else start + np.outer(g, x)
        assert np.array_equal(w.grad.view(np.uint64), want.view(np.uint64))

    def test_backward_allocates_no_outer_product(self):
        import tracemalloc

        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(256, 1152)), requires_grad=True)
        out = T.linear(Tensor(rng.normal(size=1152)), w, Tensor(np.zeros(256)))
        out.grad = rng.normal(size=256)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out._backprop()
            extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert extra < w.data.nbytes / 8, extra


class TestCheckpointReading:
    def test_repeated_name_names_it_and_its_offset(self, tmp_path):
        store = ParamStore(rng_seed=5)
        store.create("a", (2,))
        store.create("b", (3,))
        path = tmp_path / "params.ckpt"
        save_params(store, path)
        blob = bytearray(path.read_bytes())
        second = 20 + (2 + 1 + 1 + 4)  # header, then the whole first entry
        assert blob[second + 2 : second + 3] == b"b"
        blob[second + 2] = ord("a")  # now "a" (2,) and then "a" (3,)
        path.write_bytes(bytes(blob))
        with pytest.raises(
            CorruptionError,
            match=rf"params\.ckpt: parameter name 'a' repeated at byte offset {second}",
        ):
            load_params(path)

    def test_peak_is_about_the_value_bytes(self, tmp_path):
        import tracemalloc

        store = ParamStore(rng_seed=6)
        store.create("spatial.fc.w", (256, 1152))
        store.create("spatial.fc.b", (256,), init="zeros")
        store.create("head.fc.w", (10, 300))
        path = tmp_path / "params.ckpt"
        save_params(store, path)
        value_bytes = 8 * store.n_values()
        tracemalloc.start()
        try:
            loaded = load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * value_bytes, peak / value_bytes
        for name, t in store.items():
            assert np.array_equal(loaded[name].data.view(np.uint64), t.data.view(np.uint64))
            assert loaded[name].data.flags.c_contiguous and loaded[name].data.dtype == np.float64

    def test_file_is_closed_on_success_and_on_every_error(self, tmp_path, monkeypatch):
        from bioaffect import params

        store = ParamStore(rng_seed=5)
        store.create("a", (2, 3))
        store.create("b", (4,), init="zeros")
        path = tmp_path / "params.ckpt"
        save_params(store, path)
        blob = path.read_bytes()
        second_name = 20 + (2 + 1 + 1 + 8) + 2
        bad = [blob[:cut] for cut in range(len(blob))]
        bad += [blob + b"\x00", b"NOPE" + blob[4:], blob[:4] + b"\x02" + blob[5:]]
        bad.append(blob[:22] + b"\xff" + blob[23:])  # a name that is not UTF-8
        bad.append(blob[:second_name] + b"a" + blob[second_name + 1 :])  # "a" twice
        files = record_opens(monkeypatch, params)
        load_params(path)
        for body in bad:
            path.write_bytes(body)
            with pytest.raises(CorruptionError):
                load_params(path)
        assert len(files) == 1 + len(bad)
        assert all(f.closed for f in files)
