"""Span tracer that instruments bioaffect from outside the package.

Nothing in `src/` is edited. `Tracer.install` replaces each attribute in
TARGETS at the place its caller resolves it (a module global such as
`bioaffect.tensor.conv1d_valid`, the copy of `adam_step` that `bmmn`
imported by name, or a method on a class) with a wrapper that records one
span per call, and `uninstall` puts the originals back. A tensor op's
wrapper also wraps the returned node's `_backprop`, so every backward pass
gets a span per op as well.

Spans stay in memory as `[name, start, end, parent, run_id]` lists and
are written out once, when the run ends. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

import numpy as np

TENSOR_OPS = (
    "conv1d_valid",
    "conv1d_full",
    "conv2d_valid",
    "maxpool1d",
    "maxpool2d",
    "unpool1d",
    "linear",
    "add_channel_bias",
    "relu",
    "concat",
    "flatten",
    "reshape",
    "mse_loss",
)
CONV_OPS = ("conv1d_valid", "conv1d_full", "conv2d_valid")
LAYERS = ("tensor", "optim", "params", "session_io", "signals", "bae", "bmmn", "evaluate")

# (owner, attribute, span name, kind). "owner" is a module path, or
# "module:Class" for a method. A name bound by `from x import y` is wrapped
# in every module that holds a copy, so each caller's lookup is covered.
TARGETS = (
    *(("bioaffect.tensor", op, f"tensor.{op}", "op") for op in TENSOR_OPS),
    ("bioaffect.tensor:Tensor", "backward", "tensor.backward", "call"),
    ("numpy.fft", "rfft", "tensor.fft", "call"),
    ("numpy.fft", "irfft", "tensor.fft", "call"),
    ("bioaffect.optim", "adam_step", "optim.adam_step", "call"),
    ("bioaffect.bmmn", "adam_step", "optim.adam_step", "call"),
    ("bioaffect.params:ParamStore", "zero_grads", "params.zero_grads", "call"),
    ("bioaffect.params", "load_params", "params.load_params", "ckpt_in"),
    ("bioaffect.bmmn", "load_params", "params.load_params", "ckpt_in"),
    ("bioaffect.params", "save_params", "params.save_params", "ckpt_out"),
    ("bioaffect.bmmn", "save_params", "params.save_params", "ckpt_out"),
    ("bioaffect.session_io", "read_samples", "session_io.read_samples", "file_in"),
    ("bioaffect.session_io", "load_session", "session_io.load_session", "call"),
    ("bioaffect.signals", "resample", "signals.resample", "call"),
    ("bioaffect.signals", "rescale", "signals.rescale", "call"),
    ("bioaffect.signals", "synchronize", "signals.synchronize", "call"),
    ("bioaffect.bae", "pretrain", "bae.pretrain", "call"),
    ("bioaffect.bae:BaeModel", "encode_graph", "bae.encode_graph", "call"),
    ("bioaffect.bae:BaeModel", "decode_graph", "bae.decode_graph", "call"),
    ("bioaffect.bmmn", "train", "bmmn.train", "call"),
    ("bioaffect.bmmn", "total_loss", "bmmn.loss", "call"),
    ("bioaffect.bmmn", "save_model", "bmmn.save_model", "call"),
    ("bioaffect.bmmn", "load_model", "bmmn.load_model", "call"),
    ("bioaffect.bmmn:BmmnModel", "forward_graph", "bmmn.forward_graph", "call"),
    ("bioaffect.bmmn:BmmnModel", "bio_forward", "bmmn.bio_forward", "call"),
    ("bioaffect.bmmn:BmmnModel", "spatial_forward", "bmmn.spatial_forward", "call"),
    ("bioaffect.bmmn:BmmnModel", "head_forward", "bmmn.head_forward", "call"),
    ("bioaffect.bmmn:BmmnModel", "predict", "evaluate.predict", "call"),
    ("bioaffect.evaluate", "evaluate_model", "evaluate.evaluate_model", "call"),
    ("bioaffect.evaluate", "therapy_assess", "evaluate.therapy_assess", "call"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _raw(owner, attr):
    # Read through __dict__ so a method comes back as the plain function
    # that was (or will be) stored, not a bound or static wrapper.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


# Captured when this module is imported, before anything is installed.
_ORIGINALS = {(path, attr): _raw(_owner(path), attr) for path, attr, _, _ in TARGETS}


def assert_unwrapped() -> None:
    """Raise unless every traced attribute is the library's own object."""
    for (path, attr), original in _ORIGINALS.items():
        current = _raw(_owner(path), attr)
        if current is not original or getattr(current, "_perfbench_wrapped", False):
            raise RuntimeError(f"tracing wrapper still installed on {path}.{attr}")


def _shape(x) -> tuple:
    return tuple(getattr(x, "data", x).shape)


def _conv_record(op: str, args, out) -> dict:
    """Shape of one conv call and its direct-equivalent multiply-adds."""
    x_shape, w_shape, y_shape = _shape(args[0]), _shape(args[1]), _shape(out)
    c_out, c_in = w_shape[0], w_shape[1]
    k = int(np.prod(w_shape[2:]))
    l_in = int(np.prod(x_shape[1:]))
    l_out = int(np.prod(y_shape[1:]))
    # A full correlation touches every input sample with every tap; a valid
    # one computes every tap at every output position.
    macs = c_out * c_in * k * (l_in if op == "conv1d_full" else l_out)
    return {
        "op": op, "c_in": c_in, "c_out": c_out, "k": k, "l_in": l_in, "l_out": l_out,
        "work": c_in * k * l_out, "macs": macs,
        "fwd_ms": 0.0, "bwd_ms": 0.0, "fwd_fft_calls": 0, "bwd_fft_calls": 0,
    }


class Tracer:
    """Records spans while installed; owns the wrappers it installs."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.run_id = ""
        self.conv_calls: list = []
        self.ckpt_bytes = 0
        self.read_bytes = 0
        self._installed: list = []

    # -- spans --

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.run_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = perf_counter()
        self.stack.pop()
        return span[2] - span[1]

    def _fft_children(self, idx: int) -> int:
        return sum(1 for s in self.spans[idx + 1 :] if s[3] == idx and s[0] == "tensor.fft")

    # -- wrappers --

    def _wrap(self, fn, name: str, kind: str, op: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if kind == "ckpt_in" or kind == "file_in":
                size = os.path.getsize(args[0])
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = tracer.close(idx)
            if kind == "ckpt_in":
                tracer.ckpt_bytes += size
            elif kind == "file_in":
                tracer.read_bytes += size
            elif kind == "ckpt_out":
                tracer.ckpt_bytes += os.path.getsize(args[1])
            elif kind == "op":
                node = out[0] if isinstance(out, tuple) else out
                record = None
                if op in CONV_OPS:
                    record = _conv_record(op, args, node)
                    record["fwd_ms"] = elapsed * 1e3
                    record["fwd_fft_calls"] = tracer._fft_children(idx)
                    tracer.conv_calls.append(record)
                tracer._hook_backward(node, name + ".bwd", record)
            return out

        wrapped._perfbench_wrapped = True
        return wrapped

    def _hook_backward(self, node, name: str, record: dict | None) -> None:
        inner = node._backprop
        if inner is None:
            return
        tracer = self

        def backprop():
            idx = tracer.open(name)
            try:
                inner()
            finally:
                elapsed = tracer.close(idx)
            if record is not None:
                record["bwd_ms"] += elapsed * 1e3
                record["bwd_fft_calls"] += tracer._fft_children(idx)

        node._backprop = backprop

    def install(self, names=None) -> None:
        """Wrap every target, or only those whose span name is in `names`."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for path, attr, name, kind in TARGETS:
            if names is not None and name not in names:
                continue
            owner = _owner(path)
            original = _ORIGINALS[(path, attr)]
            op = attr if kind == "op" else None
            setattr(owner, attr, self._wrap(original, name, kind, op))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- aggregation --

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return {k: {"calls": c, "s": s, "self_s": x} for k, (c, s, x) in out.items()}

    def useful_decode_ratio(self) -> float:
        """Decodes whose reconstruction feeds a loss / decodes run (0 if none ran).

        A decode under a predict span is thrown away; every other decode
        (pretraining, joint training) enters a loss term.
        """
        total = useful = 0
        for name, _, _, parent, _ in self.spans:
            if name != "bae.decode_graph":
                continue
            total += 1
            while parent >= 0 and self.spans[parent][0] != "evaluate.predict":
                parent = self.spans[parent][3]
            useful += parent < 0
        return useful / total if total else 0.0

    def layer_metrics(self) -> dict:
        """Per-layer metrics in the names BENCHMARK.json lists; values in ms unless named."""
        t = self.totals()

        def ms(name):
            return t.get(name, {}).get("s", 0.0) * 1e3

        def calls(name):
            return t.get(name, {}).get("calls", 0)

        m: dict = {}
        for op in TENSOR_OPS:
            m[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}")
            m[f"tensor.{op}.bwd_ms"] = ms(f"tensor.{op}.bwd")
            m[f"tensor.{op}.calls"] = calls(f"tensor.{op}")
        m["tensor.fft.ms"] = ms("tensor.fft")
        m["tensor.fft.calls"] = calls("tensor.fft")
        # A conv's backward computes both the kernel and the input gradient,
        # even when the input needs none (as for the first conv of a stack),
        # so a call whose backward ran computed three times its forward work.
        flop = sum(
            2 * r["macs"] * (1 + (2 if r["bwd_ms"] > 0 else 0)) for r in self.conv_calls
        )
        conv_s = sum(r["fwd_ms"] + r["bwd_ms"] for r in self.conv_calls) / 1e3
        m["tensor.conv.gflop"] = flop / 1e9
        m["tensor.conv.gflop_per_s"] = flop / 1e9 / conv_s if conv_s else 0.0
        m["tensor.backward.calls"] = calls("tensor.backward")
        m["tensor.backward.ms"] = ms("tensor.backward")
        m["tensor.tape_ms"] = t.get("tensor.backward", {}).get("self_s", 0.0) * 1e3
        for name in ("forward_graph", "bio_forward", "spatial_forward", "head_forward", "loss"):
            m[f"bmmn.{name}.ms"] = ms(f"bmmn.{name}")
        m["bae.encode_graph.ms"] = ms("bae.encode_graph")
        m["bae.decode_graph.ms"] = ms("bae.decode_graph")
        m["bae.decode_graph.calls"] = calls("bae.decode_graph")
        m["evaluate.predict.ms"] = ms("evaluate.predict")
        m["evaluate.therapy_assess.ms"] = ms("evaluate.therapy_assess")
        m["evaluate.useful_decode_ratio"] = self.useful_decode_ratio()
        m["optim.adam_step.ms"] = ms("optim.adam_step")
        m["optim.adam_step.calls"] = calls("optim.adam_step")
        m["params.zero_grads.ms"] = ms("params.zero_grads")
        m["params.load_params.ms"] = ms("params.load_params")
        m["params.save_params.ms"] = ms("params.save_params")
        m["params.ckpt_bytes"] = self.ckpt_bytes
        m["session_io.read_samples.ms"] = ms("session_io.read_samples")
        m["session_io.read_samples.bytes"] = self.read_bytes
        m["session_io.load_session.ms"] = ms("session_io.load_session")
        for name in ("resample", "rescale", "synchronize"):
            m[f"signals.{name}.ms"] = ms(f"signals.{name}")
        for layer in LAYERS:
            m[f"layer.{layer}.self_ms"] = (
                sum(v["self_s"] for k, v in t.items() if k.split(".", 1)[0] == layer) * 1e3
            )
        return m

    def dump(self) -> dict:
        """Spans as [name, start_us, end_us, parent, run_id], relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "span_fields": ["name", "start_us", "end_us", "parent", "run_id"],
            "spans": [
                [n, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), p, r]
                for n, s, e, p, r in self.spans
            ],
            "conv_calls": self.conv_calls,
        }
