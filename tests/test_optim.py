"""The shared training loop, pinned to a loop written out by hand."""

import weakref

import numpy as np
import pytest

from bioaffect import optim
from bioaffect import tensor as T
from bioaffect.errors import NonFiniteError
from bioaffect.optim import AdamState, adam_step, fit
from bioaffect.params import ParamStore

N_ITEMS, BATCH, EPOCHS, LR = 5, 2, 2, 1e-2
INPUTS = np.random.default_rng(1).uniform(-1.0, 1.0, size=(N_ITEMS, 3))
TARGETS = np.random.default_rng(2).uniform(-1.0, 1.0, size=(N_ITEMS, 2))


def _store() -> ParamStore:
    store = ParamStore(rng_seed=4)
    store.create("w", (2, 3))
    store.create("b", (2,))
    return store


def _item_loss(store: ParamStore, j: int):
    est = T.linear(T.Tensor(INPUTS[j]), store["w"], store["b"])
    loss = T.mse_loss(est, TARGETS[j])
    return loss, (loss.item(), float(est.data[0]))


def _explicit_loop(store: ParamStore) -> list:
    state = AdamState(store, lr=LR)
    rng = np.random.default_rng(9)
    history = []
    for _ in range(EPOCHS):
        order = rng.permutation(N_ITEMS)
        batches = [order[0:2], order[2:4], order[4:5]]
        assert [len(b) for b in batches] == [2, 2, 1]  # the last one is partial
        epoch = [0.0, 0.0]
        for batch in batches:
            store.zero_grads()
            sums = [0.0, 0.0]
            for j in batch:
                loss, terms = _item_loss(store, j)
                (loss * (1.0 / len(batch))).backward()
                sums = [sums[0] + terms[0], sums[1] + terms[1]]
            adam_step(store, state)
            epoch = [epoch[0] + sums[0] / len(batch), epoch[1] + sums[1] / len(batch)]
        history.append([epoch[0] / 3, epoch[1] / 3])
    return history


def test_fit_matches_an_explicit_loop():
    expected_store = _store()
    expected = _explicit_loop(expected_store)
    store = _store()
    history = fit(
        store, N_ITEMS, EPOCHS, BATCH, LR, np.random.default_rng(9),
        lambda j: _item_loss(store, j),
    )
    assert history == expected
    assert all(type(v) is float for row in history for v in row)
    for name, t in store.items():
        assert t.data.tobytes() == expected_store[name].data.tobytes(), name


def test_fit_releases_the_grad_buffers_and_the_store_trains_on():
    # A second fit allocates the buffers again and gives the bits of a loop
    # that kept them throughout.
    expected_store = _store()
    expected = _explicit_loop(expected_store) + _explicit_loop(expected_store)
    store = _store()
    history = []
    for _ in range(2):
        history += fit(
            store, N_ITEMS, EPOCHS, BATCH, LR, np.random.default_rng(9),
            lambda j: _item_loss(store, j),
        )
        assert all(t.grad is None for _, t in store.items())
    assert history == expected
    for name, t in store.items():
        assert t.data.tobytes() == expected_store[name].data.tobytes(), name


def test_fit_holds_one_graph_at_a_time(monkeypatch):
    # A graph holds its item's activations and backprop closures; once its
    # backward has run nothing reads them, so the next item and the step
    # find every earlier item's loss root freed.
    store = _store()
    roots = []
    alive_at = []

    def item_loss(j):
        alive_at.append(("item", sum(r() is not None for r in roots)))
        loss, terms = _item_loss(store, j)
        roots.append(weakref.ref(loss))
        return loss, terms

    def step(params, state):
        alive_at.append(("step", sum(r() is not None for r in roots)))
        adam_step(params, state)

    monkeypatch.setattr(optim, "adam_step", step)
    fit(store, N_ITEMS, EPOCHS, BATCH, LR, np.random.default_rng(9), item_loss)
    batches = -(-N_ITEMS // BATCH) * EPOCHS
    assert [kind for kind, _ in alive_at].count("step") == batches
    assert len(roots) == N_ITEMS * EPOCHS
    assert alive_at == [(kind, 0) for kind, _ in alive_at]


def test_fit_with_no_epochs_leaves_the_store_alone():
    store = _store()
    before = {name: t.data.copy() for name, t in store.items()}
    assert fit(store, N_ITEMS, 0, BATCH, LR, np.random.default_rng(9), None) == []
    for name, t in store.items():
        assert t.data.tobytes() == before[name].tobytes()


def _batch_of(item: int) -> int:
    order = np.random.default_rng(9).permutation(N_ITEMS)
    return int(np.flatnonzero(order == item)[0]) // BATCH


def test_fit_stops_at_a_non_finite_loss():
    store = _store()

    def item_loss(j):
        x = np.full(3, np.nan) if j == 3 else INPUTS[j]
        loss = T.mse_loss(T.linear(T.Tensor(x), store["w"], store["b"]), TARGETS[j])
        return loss, (loss.item(),)

    with np.errstate(invalid="ignore"), pytest.raises(
        NonFiniteError, match=f"epoch 0, batch {_batch_of(3)}, item 3: loss is nan"
    ):
        fit(store, N_ITEMS, EPOCHS, BATCH, LR, np.random.default_rng(9), item_loss)
    assert all(t.grad is not None for _, t in store.items())  # kept for inspection


def test_fit_stops_at_a_non_finite_gradient_before_the_step():
    store = ParamStore(rng_seed=4)
    store.create("w", (2, 3), init="zeros")
    store.create("b", (2,), init="zeros")

    def item_loss(j):
        # The other items leave w[:, 0] at zero, so item 2's loss stays finite
        # (about 5e307) while its d loss / d w[:, 0], about -1e154 * 1e300, is not.
        x, target = (
            ([1e300, 0.0, 0.0], [1e154, 0.0]) if j == 2
            else (INPUTS[j] * [0.0, 1.0, 1.0], TARGETS[j])
        )
        loss = T.mse_loss(T.linear(T.Tensor(x), store["w"], store["b"]), target)
        return loss, (loss.item(),)

    with np.errstate(over="ignore"), pytest.raises(
        NonFiniteError, match=f"epoch 0, batch {_batch_of(2)}: gradient of 'w' is not finite"
    ):
        fit(store, N_ITEMS, EPOCHS, BATCH, LR, np.random.default_rng(9), item_loss)
    assert np.isfinite(store["w"].data).all()  # the step with an infinite gradient was not taken
    assert not np.isfinite(store["w"].grad).all()  # the gradient stays for inspection


# --- blockwise Adam -----------------------------------------------------------


def _whole_array_adam(values, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam update written over whole arrays, with full-size temporaries."""
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * (grads * grads)
    values -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# Zeros of both signs, the smallest subnormal, and magnitudes whose squares
# underflow, stay finite or overflow.
_SPECIAL_GRADS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-300, 1e150, -1e154, 1e200])


def _adam_sizes():
    from bioaffect.optim import _ADAM_BLOCK

    return {"one": (1,), "below": (_ADAM_BLOCK - 1,), "block": (_ADAM_BLOCK,),
            "above": (_ADAM_BLOCK + 1,), "spatial_fc": (256, 1152)}


def test_blockwise_adam_matches_the_whole_array_formula():
    store = ParamStore(rng_seed=8)
    for name, shape in _adam_sizes().items():
        store.create(name, shape)
    reference = {name: (t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data))
                 for name, t in store.items()}
    state = AdamState(store, lr=1e-3)
    rng = np.random.default_rng(12)
    # g * g overflows to inf for the largest magnitudes, on both sides.
    with np.errstate(over="ignore"):
        _run_adam_against_reference(store, state, reference, rng)


def _run_adam_against_reference(store, state, reference, rng):
    for step in range(1, 4):
        store.zero_grads()
        for name, t in store.items():
            g = t.grad.reshape(-1)
            g[...] = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=g.size)
            g[rng.integers(0, g.size, size=min(g.size, 50))] = rng.choice(_SPECIAL_GRADS, min(g.size, 50))
            values, m, v = reference[name]
            _whole_array_adam(values, t.grad, m, v, step, lr=1e-3)
        adam_step(store, state)
        for name, t in store.items():
            values, m, v = reference[name]
            for got, want in ((t.data, values), (state.m[name], m), (state.v[name], v)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (name, step)


def test_adam_step_allocates_no_parameter_sized_temporary():
    import tracemalloc

    from bioaffect.optim import _ADAM_BLOCK

    store = ParamStore(rng_seed=9)
    p = store.create("spatial.fc.w", (256, 1152))
    store.zero_grads()
    p.grad[...] = np.random.default_rng(3).normal(size=p.grad.shape)
    state = AdamState(store, lr=1e-3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        adam_step(store, state)
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    scratch_bytes = 2 * 8 * _ADAM_BLOCK
    assert extra < 2 * scratch_bytes, (extra, p.data.nbytes)
