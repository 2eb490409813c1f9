"""The tape is acyclic: a dead graph is freed by reference counting alone.

Each test runs with the cyclic collector off, drops every reference, and
then asks the collector how much garbage it finds; any reference cycle in
a graph would show up there. `_backprop` must also stay a zero-argument
callable that an outside profiler can wrap without changing gradients,
and a backward pass leaves no grad on interior nodes.
"""

import gc

import numpy as np
import pytest

from bioaffect import bae, bmmn
from bioaffect import tensor as T
from bioaffect.bae import BaeArch
from bioaffect.bmmn import BmmnModel, LossWeights, toy_sample
from bioaffect.signals import Channel

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
