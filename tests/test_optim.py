"""The shared training loop, pinned to a loop written out by hand."""

import numpy as np
import pytest

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
