"""Adam optimizer over a ParamStore."""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .errors import ConfigError, GraphError, NonFiniteError
from .params import ParamStore


class AdamState:
    """First/second moment buffers plus the step counter for one run.

    Defaults: lr 1e-4, beta1 0.9, beta2 0.999, eps 1e-8.
    """

    def __init__(
        self,
        params: ParamStore,
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


def adam_step(params: ParamStore, state: AdamState) -> None:
    """One bias-corrected Adam update, in place, over every parameter.

    Each parameter's memo of kernel spectra is released once its values
    have changed, since none of those spectra can be reused.
    """
    for name, t in params.items():
        if t.grad is None:
            raise GraphError(f"adam_step: parameter {name!r} has no gradient")
        if name not in state.m:
            raise GraphError(f"adam_step: state was not built for parameter {name!r}")
    state.step_count += 1
    t_step = state.step_count
    bc1 = 1.0 - state.beta1**t_step
    bc2 = 1.0 - state.beta2**t_step
    for name, p in params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p._spectra = None


def check_fit_settings(epochs: int, batch_size: int, lr: float) -> None:
    """ConfigError unless epochs >= 0, batch_size >= 1 and lr > 0, as `fit` needs."""
    if epochs < 0 or batch_size < 1:
        raise ConfigError("epochs must be >= 0 and batch_size >= 1")
    if not lr > 0:
        raise ConfigError("learning rate must be positive")


def fit(store: ParamStore, n_items: int, epochs: int, batch_size: int, lr: float,
        rng: np.random.Generator, item_loss) -> list:
    """The one minibatch Adam loop; returns each epoch's mean of batch term means.

    `item_loss(j)` builds item j's graph and returns (scalar loss, tuple of
    float terms). Each epoch visits the items in `rng.permutation` order;
    each batch zeroes the grads, backpropagates every loss scaled by
    1 / |batch| and takes one `adam_step`. A non-finite item loss, or a
    non-finite gradient before the step, raises NonFiniteError naming the
    epoch, the batch and the item or the first such parameter.
    """
    state = AdamState(store, lr=lr)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(n_items)
        batch_means = []
        for start in range(0, n_items, batch_size):
            batch = order[start : start + batch_size]
            where = f"epoch {epoch}, batch {start // batch_size}"
            store.zero_grads()
            rows = []
            for j in batch:
                loss, terms = item_loss(j)
                if not np.isfinite(loss.data).all():
                    raise NonFiniteError(f"{where}, item {j}: loss is {loss.item()!r}")
                (loss * (1.0 / batch.size)).backward()
                rows.append(terms)
            for name, p in store.items():
                if not np.isfinite(p.grad).all():
                    raise NonFiniteError(f"{where}: gradient of {name!r} is not finite")
            adam_step(store, state)
            # Summed in order from 0.0: the builtin `sum` compensates on Python >= 3.12.
            batch_means.append([reduce(add, col, 0.0) / batch.size for col in zip(*rows)])
        history.append([reduce(add, col, 0.0) / len(batch_means) for col in zip(*batch_means)])
    return history
