"""The tape is acyclic: a dead graph is freed by reference counting alone.

Each test runs with the cyclic collector off, drops every reference, and
then asks the collector how much garbage it finds; any reference cycle in
a graph would show up there. `_backprop` must also stay a zero-argument
callable that an outside profiler can wrap without changing gradients,
and a backward pass leaves no grad on interior nodes.

Only what needs a gradient is taped: `predict` records nothing and gives
the bits of the recorded forward, and the raw inputs of a training step
get no gradient while every parameter gradient keeps its bits.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from bioaffect import bae, bmmn
from bioaffect import tensor as T
from bioaffect.bae import BaeArch
from bioaffect.bmmn import BmmnModel, FusionVariant, LossWeights, ModelSpec, toy_sample
from bioaffect.signals import Channel
from bioaffect.tensor import Tensor

TARGETS = np.linspace(0.1, 0.9, bmmn.N_OUTPUTS)


@pytest.fixture
def cyclic_gc_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def bae2_loss(model, sample):
    est, recons, originals = model.forward_graph(sample)
    loss, _ = bmmn.total_loss_from_targets(est, TARGETS, recons, originals, LossWeights())
    return loss


class TestNoCyclicGarbage:
    def test_bae2_training_step(self, cyclic_gc_off):
        model = BmmnModel.build_toy("bae2", seed=0)
        sample = toy_sample(model, np.random.default_rng(0))
        bae2_loss(model, sample).backward()
        del model, sample
        assert gc.collect() == 0

    def test_bae_pretrain_epoch(self, cyclic_gc_off):
        rng = np.random.default_rng(1)
        windows = [rng.uniform(0.0, 1.0, 40) for _ in range(5)]
        result = bae.pretrain(windows, Channel.ECG, epochs=1, seed=0, arch=BaeArch.toy(),
                              batch_size=2)
        assert len(result.losses) == 2
        del result, windows
        assert gc.collect() == 0

    def test_predict(self, cyclic_gc_off):
        model = BmmnModel.build_toy("bae2", seed=0)
        estimate = model.predict(toy_sample(model, np.random.default_rng(2)))
        assert estimate.values.shape == (bmmn.N_OUTPUTS,)
        del model, estimate
        assert gc.collect() == 0


def test_wrapped_backprop_keeps_gradients():
    """Replace every node's `_backprop` with a zero-argument wrapper, as a
    profiler does, and check the gradients come out bit-identical."""
    grads = []
    for wrap in (False, True):
        model = BmmnModel.build_toy("bae2", seed=3)
        loss = bae2_loss(model, toy_sample(model, np.random.default_rng(3)))
        calls = []
        if wrap:
            nodes = [n for n in T._toposort(loss) if n._backprop is not None]
            for node in nodes:
                def wrapped(inner=node._backprop):
                    calls.append(1)
                    inner()

                node._backprop = wrapped
        loss.backward()
        if wrap:
            assert len(calls) == len(nodes) > 0
        grads.append({name: model.store[name].grad.copy() for name in model.store.names()})
    plain, wrapped = grads
    assert plain.keys() == wrapped.keys()
    for name in plain:
        np.testing.assert_array_equal(plain[name], wrapped[name], err_msg=name)


def test_backward_twice_doubles_every_leaf_gradient():
    model = BmmnModel.build_toy("bae2", seed=3)
    loss = bae2_loss(model, toy_sample(model, np.random.default_rng(3)))
    loss.backward()
    once = {name: model.store[name].grad.copy() for name in model.store.names()}
    assert all(n.grad is None for n in T._toposort(loss) if n._backprop is not None)
    loss.backward()
    for name, grad in once.items():
        np.testing.assert_array_equal(model.store[name].grad, 2.0 * grad, err_msg=name)


def production_model(variant, seed=0):
    return BmmnModel(ModelSpec(variant=FusionVariant(variant)), seed=seed)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestNoTape:
    def test_restores_recording_after_an_exception(self):
        p = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ZeroDivisionError):
            with T.no_tape():
                assert (p * 2.0)._backprop is None
                1 / 0
        assert (p * 2.0)._backprop is not None

    def test_a_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=(2, 30)), rng.normal(size=(3, 2, 5))
        grads = {}
        for taped in (False, True):
            xt, wt = Tensor(x, requires_grad=taped), Tensor(w, requires_grad=True)
            T.mse_loss(T.conv1d_valid(xt, wt), np.zeros((3, 26))).backward()
            grads[taped] = wt.grad
            assert (xt.grad is not None) == taped
        assert same_bits(grads[False], grads[True])


@pytest.mark.parametrize("variant", ["bmmn", "bae1", "bae2"])
def test_predict_gives_the_bits_of_the_recorded_forward(variant, tmp_path):
    model = production_model(variant, seed=1)
    sample = toy_sample(model, np.random.default_rng(1))
    recorded, _, _ = model._estimate_graph(sample)
    assert recorded._backprop is not None  # its parameters require grad
    bmmn.save_model(model, tmp_path)
    loaded = bmmn.load_model(tmp_path)
    for m in (model, loaded):
        assert same_bits(m.predict(sample).values, recorded.data)
        with T.no_tape():
            est, _, _ = m._estimate_graph(sample)
        assert est._parents == () and est._backprop is None
    # Loaded parameters need no gradient, so even outside no_tape nothing is recorded.
    est, _, _ = loaded._estimate_graph(sample)
    assert est._parents == () and est._backprop is None


@pytest.mark.parametrize("loaded", [False, True])
def test_production_predict_leaves_no_garbage(loaded, tmp_path, cyclic_gc_off):
    model = production_model("bae2", seed=2)
    if loaded:
        bmmn.save_model(model, tmp_path)
        gc.collect()  # json's indenting encoder leaves reference cycles behind
        model = bmmn.load_model(tmp_path)
    estimate = model.predict(toy_sample(model, np.random.default_rng(2)))
    del model, estimate
    assert gc.collect() == 0


@pytest.mark.parametrize("loaded", [False, True])
def test_production_bae2_predict_peak_memory(loaded, tmp_path):
    # A recorded forward peaked at about 2.5 MB: every activation of the
    # graph alive until the output is dropped. Unrecorded, it peaked at
    # 1.16 MB while each encoder's pool indices, and the pooled maps they
    # read, stayed alive to the head; 0.59 MB once they are dropped as the
    # encoder returns.
    model = production_model("bae2", seed=3)
    if loaded:
        bmmn.save_model(model, tmp_path)
        model = bmmn.load_model(tmp_path)
    sample = toy_sample(model, np.random.default_rng(3))
    model.predict(sample)  # fills each kernel's spectrum memo
    tracemalloc.start()
    try:
        model.predict(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75e6, peak


def test_production_bae2_training_step_peak_memory():
    # One sample's forward and backward, with the grad buffers and kernel
    # spectra already allocated: 5.17 MB with a separate bias node before
    # each conv block's ReLU and full-length kernel-gradient FFTs, 3.87 MB
    # with one bias-ReLU node after each conv node and lag-window FFTs in
    # row blocks, 3.06 MB with each conv block one conv node that keeps no
    # pre-activation.
    model = production_model("bae2", seed=3)
    sample = toy_sample(model, np.random.default_rng(3))
    model.store.zero_grads()
    bae2_loss(model, sample).backward()  # fills each kernel's spectrum memo
    tracemalloc.start()
    try:
        bae2_loss(model, sample).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.4e6, peak


@pytest.mark.parametrize("variant", ["bmmn", "bae2"])
def test_parameter_gradients_keep_their_bits(variant, monkeypatch):
    """A production step's parameter gradients have the same bits when the
    raw inputs (bio windows, encoder windows, face crop) are taped as
    leaves that require grad, as every input was before, and those inputs
    otherwise get no gradient."""
    grads = {}
    for taped in (False, True):
        inputs = []

        def make_input(data, taped=taped, inputs=inputs):
            inputs.append(Tensor(data, requires_grad=taped))
            return inputs[-1]

        monkeypatch.setattr(bmmn, "Tensor", make_input)
        model = production_model(variant, seed=4)
        loss = bae2_loss(model, toy_sample(model, np.random.default_rng(4)))
        loss.backward()
        assert inputs and all((t.grad is not None) == taped for t in inputs)
        grads[taped] = {name: t.grad for name, t in model.store.items()}
    assert grads[False].keys() == grads[True].keys()
    for name, grad in grads[False].items():
        assert same_bits(grad, grads[True][name]), name
