"""Central finite-difference oracle for analytic gradients.

`finite_difference_check` rebuilds the loss from scratch for every probe,
so the analytic path and the numeric path never share a graph. Errors are
reported relative to gradient magnitude with a small floor, which keeps
the comparison absolute for near-zero gradients where FD round-off noise
would otherwise dominate.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
_REL_FLOOR = 1e-3


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), _REL_FLOOR)


def finite_difference_check(
    make_loss,
    wiggle: dict,
    rng: np.random.Generator,
    step: float = DEFAULT_STEP,
    max_probes_per_tensor: int = 64,
) -> float:
    """Max relative error between backward() grads and central differences.

    `make_loss` must rebuild the scalar loss from the current data of the
    tensors in `wiggle` (name -> leaf Tensor with requires_grad).
    """
    for t in wiggle.values():
        t.zero_grad()
    loss = make_loss()
    loss.backward()
    analytic = {name: t.grad.copy() for name, t in wiggle.items()}

    worst = 0.0
    for name, t in wiggle.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if n <= max_probes_per_tensor:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_probes_per_tensor, replace=False)
        for c in coords:
            original = flat[c]
            flat[c] = original + step
            up = make_loss().item()
            flat[c] = original - step
            down = make_loss().item()
            flat[c] = original
            numeric = (up - down) / (2.0 * step)
            err = relative_error(analytic[name].reshape(-1)[c], numeric)
            worst = max(worst, err)
    return worst


# --- named check suite (used by the CLI and the acceptance tests) ----------


def _t(rng, *shape) -> Tensor:
    return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)


def _case_conv1d_valid(rng, bias_relu=False):
    x = _t(rng, 2, 17)
    k = _t(rng, 3, 2, 5)
    b = _t(rng, 3) if bias_relu else None
    target = rng.uniform(-1, 1, size=(3, 7))

    def make():
        return T.mse_loss(T.conv1d_valid(x, k, stride=2, bias_relu=b), target)

    return make, {"x": x, "k": k} | ({} if b is None else {"b": b})


def _case_conv1d_full(rng, bias_relu=False):
    x = _t(rng, 2, 9)
    k = _t(rng, 3, 2, 4)
    b = _t(rng, 3) if bias_relu else None
    target = rng.uniform(-1, 1, size=(3, 12))

    def make():
        return T.mse_loss(T.conv1d_full(x, k, bias_relu=b), target)

    return make, {"x": x, "k": k} | ({} if b is None else {"b": b})


def _case_conv2d_valid(rng, bias_relu=False):
    x = _t(rng, 2, 7, 8)
    k = _t(rng, 3, 2, 3, 3)
    b = _t(rng, 3) if bias_relu else None
    target = rng.uniform(-1, 1, size=(3, 3, 3))

    def make():
        return T.mse_loss(T.conv2d_valid(x, k, stride=2, bias_relu=b), target)

    return make, {"x": x, "k": k} | ({} if b is None else {"b": b})


def _case_maxpool1d(rng):
    x = _t(rng, 3, 14)
    target = rng.uniform(-1, 1, size=(3, 7))

    def make():
        pooled, _ = T.maxpool1d(x, window=2, stride=2)
        return T.mse_loss(pooled, target)

    return make, {"x": x}


def _case_maxpool2d(rng):
    x = _t(rng, 2, 8, 8)
    target = rng.uniform(-1, 1, size=(2, 4, 4))

    def make():
        return T.mse_loss(T.maxpool2d(x, window=2, stride=2), target)

    return make, {"x": x}


def _case_unpool1d(rng):
    x = _t(rng, 2, 12)
    target = rng.uniform(-1, 1, size=(2, 12))

    def make():
        pooled, idx = T.maxpool1d(x, window=2, stride=2)
        return T.mse_loss(T.unpool1d(pooled, idx, target_len=12), target)

    return make, {"x": x}


def _case_linear(rng):
    x = _t(rng, 11)
    w = _t(rng, 5, 11)
    b = _t(rng, 5)
    target = rng.uniform(-1, 1, size=5)

    def make():
        return T.mse_loss(T.linear(x, w, b), target)

    return make, {"x": x, "w": w, "b": b}


def _case_add_channel_bias(rng):
    x = _t(rng, 3, 6)
    b = _t(rng, 3)
    target = rng.uniform(-1, 1, size=(3, 6))

    def make():
        return T.mse_loss(T.add_channel_bias(x, b), target)

    return make, {"x": x, "b": b}


def _case_relu(rng):
    x = _t(rng, 4, 9)
    target = rng.uniform(-1, 1, size=(4, 9))

    def make():
        return T.mse_loss(T.relu(x), target)

    return make, {"x": x}


def _case_bias_relu(rng):
    x = _t(rng, 3, 4, 5)
    b = _t(rng, 3)
    target = rng.uniform(-1, 1, size=(3, 4, 5))

    def make():
        return T.mse_loss(T.bias_relu(x, b), target)

    return make, {"x": x, "b": b}


def _case_concat_flatten(rng):
    a = _t(rng, 2, 3)
    b = _t(rng, 2, 5)
    target = rng.uniform(-1, 1, size=16)

    def make():
        joined = T.concat([a, b], axis=1)
        return T.mse_loss(T.flatten(joined), target)

    return make, {"a": a, "b": b}


def _case_mse_loss(rng):
    p = _t(rng, 9)
    q = _t(rng, 9)

    def make():
        return T.mse_loss(p, q)

    return make, {"p": p, "q": q}


def _case_scalar_combination(rng):
    p = _t(rng, 6)
    q = _t(rng, 6)
    target = rng.uniform(-1, 1, size=6)

    def make():
        return T.mse_loss(p, target) * 0.7 + T.mse_loss(q, target) * 0.3

    return make, {"p": p, "q": q}


def _shake_zero_params(store, rng) -> None:
    # Zero-initialized biases put many pre-activations exactly on the ReLU
    # kink, where central differences are one-sided by construction; probe
    # the chain rule at a generic point instead.
    for t in store.entries.values():
        if not t.data.any():
            t.data[...] = rng.uniform(-0.3, 0.3, size=t.data.shape)


def _case_bae_toy(rng):
    from .bae import BaeArch, BaeModel
    from .params import ParamStore
    from .signals import Channel

    store = ParamStore(rng_seed=7)
    model = BaeModel(store, Channel.ECG, arch=BaeArch.toy())
    _shake_zero_params(store, rng)
    x = Tensor(rng.uniform(0.0, 1.0, size=model.arch.seg_len), requires_grad=True)
    target = x.data.copy().reshape(1, -1)  # frozen, not a view of x

    def make():
        z, idx = model.encode_graph(x)
        recon = model.decode_graph(z, idx)
        return T.mse_loss(recon, target)

    return make, dict(store.items()) | {"x": x}


def _make_bmmn_case(variant):
    def build(rng):
        from . import bmmn
        from .signals import Channel

        model = bmmn.BmmnModel.build_toy(variant=variant, seed=11)
        _shake_zero_params(model.store, rng)
        sample = bmmn.toy_sample(model, rng)
        weights = bmmn.LossWeights(1.0, 1.0)
        targets = rng.uniform(0.0, 1.0, size=10)

        def make():
            est, recons, originals = model.forward_graph(sample)
            loss, _ = bmmn.total_loss_from_targets(
                est, targets, recons, originals, weights
            )
            return loss

        return make, dict(model.store.items())

    return build


CASES = {
    "conv1d_valid": _case_conv1d_valid,
    "conv1d_full": _case_conv1d_full,
    "conv2d_valid": _case_conv2d_valid,
    # Each conv block as one node: the conv with its bias-ReLU epilogue.
    "conv1d_valid_bias_relu": lambda rng: _case_conv1d_valid(rng, bias_relu=True),
    "conv1d_full_bias_relu": lambda rng: _case_conv1d_full(rng, bias_relu=True),
    "conv2d_valid_bias_relu": lambda rng: _case_conv2d_valid(rng, bias_relu=True),
    "maxpool1d": _case_maxpool1d,
    "maxpool2d": _case_maxpool2d,
    "unpool1d": _case_unpool1d,
    "linear": _case_linear,
    "add_channel_bias": _case_add_channel_bias,
    "relu": _case_relu,
    "bias_relu": _case_bias_relu,
    "concat_flatten": _case_concat_flatten,
    "mse_loss": _case_mse_loss,
    "scalar_combination": _case_scalar_combination,
    "bae_end_to_end": _case_bae_toy,
    "bmmn_end_to_end": _make_bmmn_case("bmmn"),
    "bae1_end_to_end": _make_bmmn_case("bae1"),
    "bae2_end_to_end": _make_bmmn_case("bae2"),
}


def run_suite(names=None, seed: int = 20240, max_probes: int = 48) -> dict:
    """Run the named finite-difference checks; returns name -> max rel error."""
    selected = list(CASES) if not names else list(names)
    results = {}
    for name in selected:
        if name not in CASES:
            raise KeyError(f"unknown gradcheck case {name!r}")
        rng = np.random.default_rng([seed, len(name), *name.encode()])
        make, wiggle = CASES[name](rng)
        results[name] = finite_difference_check(
            make, wiggle, rng, max_probes_per_tensor=max_probes
        )
    return results
