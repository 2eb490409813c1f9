"""Adam optimizer over a ParamStore."""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .errors import ConfigError, GraphError, NonFiniteError
from .params import ParamStore


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second moment buffers plus the step counter for one run."""

    def __init__(self, params: ParamStore, lr: float = 1e-4):
        self.lr = float(lr)
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


# Elements per block of `adam_step`; its two scratch buffers hold one block each.
_ADAM_BLOCK = 8192


def adam_step(params: ParamStore, state: AdamState) -> None:
    """One bias-corrected Adam update, in place, over every parameter.

    `m`, `v` and the values are updated one block of each flattened
    parameter at a time, through two scratch buffers of `_ADAM_BLOCK`
    elements, so a step allocates no parameter-sized temporary. Each
    element gets the operations, in the order, of the whole-array formula
    m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps).
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
    b1, b2, lr, eps = BETA1, BETA2, state.lr, EPS
    bc1 = 1.0 - b1**t_step
    bc2 = 1.0 - b2**t_step
    scratch = np.empty(_ADAM_BLOCK)
    scratch2 = np.empty(_ADAM_BLOCK)
    for name, p in params.items():
        values = p.data.reshape(-1)
        grads = p.grad.reshape(-1)
        ms = state.m[name].reshape(-1)
        vs = state.v[name].reshape(-1)
        for start in range(0, values.size, _ADAM_BLOCK):
            block = slice(start, start + _ADAM_BLOCK)
            x, g, m, v = values[block], grads[block], ms[block], vs[block]
            s = scratch[: x.size]
            s2 = scratch2[: x.size]
            np.multiply(m, b1, out=m)
            np.multiply(1.0 - b1, g, out=s)
            np.add(m, s, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, g, out=s)
            np.multiply(1.0 - b2, s, out=s)
            np.add(v, s, out=v)
            np.divide(m, bc1, out=s)
            np.multiply(lr, s, out=s)
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, eps, out=s2)
            np.divide(s, s2, out=s)
            np.subtract(x, s, out=x)
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
    epoch, the batch and the item or the first such parameter; the grads
    are then left for inspection. Each item's graph is dropped once it has
    been backpropagated, so a batch holds one graph at a time and none
    during the step. On return every grad buffer is released, so a trained
    store holds values only, as a loaded one does.
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
                del loss  # frees item j's graph before item j + 1 builds its own
                rows.append(terms)
            for name, p in store.items():
                if not np.isfinite(p.grad).all():
                    raise NonFiniteError(f"{where}: gradient of {name!r} is not finite")
            adam_step(store, state)
            # Summed in order from 0.0: the builtin `sum` compensates on Python >= 3.12.
            batch_means.append([reduce(add, col, 0.0) / batch.size for col in zip(*rows)])
        history.append([reduce(add, col, 0.0) / len(batch_means) for col in zip(*batch_means)])
    for _, p in store.items():
        p.grad = None
    return history
