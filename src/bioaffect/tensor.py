"""Reverse-mode differentiation engine for the fixed network zoo.

Dense float64 arrays with a tape of closures: every operation returns a
fresh node that references its inputs and knows how to route the output
gradient back to them. A graph is built per forward pass. References run
only from a node to its inputs: no backprop closure holds its own output
node, so the tape is acyclic and a graph is freed by reference counting
as soon as the caller drops its last node, with no cyclic collection.
Parameter leaves accumulate gradients across backward calls until
explicitly zeroed, which is how minibatches are averaged. An interior
node's grad is released as soon as its backprop has routed it to the
node's inputs, so a graph backpropagated twice adds each leaf gradient
exactly twice.

The FFT path memoizes each kernel's spectrum on the kernel tensor, next
to a copy of the values it was computed from. A spectrum is reused only
while the kernel's values are bitwise unchanged; any in-place write
(an optimizer step, a checkpoint load, a finite-difference probe) drops
the memo, so reuse never changes a result.

Convolutions use cross-correlation semantics (no kernel flip). The
vectorized implementations here are checked against direct-loop
references in the test suite. Both 1-D convs run on one primitive,
`_correlate`: each one's input gradient is the other mode (valid or
full) over the kernels with their in/out axes swapped. The FFT-or-matmul
path is chosen once per op call, from the forward's work, and both
gradients reuse that choice.

The non-FFT kernels give the bits of their plain formulations. Below the
FFT threshold a 1-D conv forms every kernel tap's product in one stacked
matmul over a strided window view of its input (the im2col idea of
Chellapilla, Puri & Simard 2006, kept per tap), and adds the products in
tap order from zeros, as a loop of one matmul per tap did. Both pools
keep a running maximum over the window's strided tap views, taken in
row-major order, with `argmax`'s rule: the first maximum wins, and a NaN
beats any number, the first NaN winning. Which tap won is found only when
something reads it: a pool's backward, or `PoolIndices.indices`. Their
gradients and `unpool1d` scatter by `np.bincount`, which adds onto zeros
in index order, as `np.add.at` does. With one input channel,
`conv2d_valid` forms each tap's product by broadcasting: each entry of a
(C_out, 1) @ (1, P) product is one rounded multiply anyway. With more
channels it keeps one matmul per tap, whose summation order a rewrite
would change.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import CorruptionError, GraphError, ShapeError

__all__ = [
    "Tensor",
    "PoolIndices",
    "as_tensor",
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
]


class Tensor:
    """One node of a single-use computation graph.

    `data` is float64 and C-contiguous (row-major). Leaves created with
    `requires_grad=True` keep a grad buffer that accumulates across
    backward passes; interior nodes get a scratch grad only while a
    backward pass runs over them. `_spectra` is the FFT path's memo of
    kernel spectra (see `_kernel_spectrum`).
    """

    __slots__ = (
        "data", "grad", "requires_grad", "_parents", "_backprop", "_spectra", "__weakref__"
    )

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple = ()
        self._backprop = None
        self._spectra = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        """Zero the grad buffer in place, keeping its identity; allocate one if there is none."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def backward(self) -> None:
        """Propagate d(self)/d(everything) through the recorded graph.

        Only defined for scalar outputs. Gradients are accumulated into
        every leaf reachable from here, so leaf grads add up across calls
        until zeroed. An interior node's grad is set back to None once it
        has been routed to the node's inputs.
        """
        if self.data.size != 1:
            raise GraphError(
                f"backward requires a scalar loss, got shape {tuple(self.data.shape)}"
            )
        order = _toposort(self)
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._backprop is not None:
                node._backprop()
                node.grad = None

    # Scalar arithmetic, used to combine loss terms.

    def __add__(self, other):
        other = as_tensor(other)
        if self.data.shape != other.data.shape:
            raise ShapeError(
                f"add: shapes {self.data.shape} and {other.data.shape} differ"
            )

        def backprop(g):
            _accumulate(self, g)
            _accumulate(other, g)

        return _node(self.data + other.data, (self, other), backprop)

    def __mul__(self, scalar):
        c = float(scalar)

        def backprop(g):
            _accumulate(self, c * g)

        return _node(self.data * c, (self,), backprop)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple, backprop) -> Tensor:
    """Record one op: a node over `parents` whose gradient `backprop(g)` routes.

    `backprop` receives the node's gradient and must not reference the
    node itself. `_backprop` reaches the node through a weak reference,
    so the node does not keep itself alive and a dead graph is freed
    by reference counting.
    """
    out = Tensor(data)
    out._parents = parents
    ref = weakref.ref(out)
    out._backprop = lambda: backprop(ref().grad)
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # `g + 0.0` is a fresh array with the bits of zeros + g, -0.0 included:
    # a node never holds, and later adds into, an array an op passed in.
    if t.grad is None:
        t.grad = g + 0.0
    else:
        t.grad += g


# Elements of the row block through which `_accumulate_outer` adds a product.
_OUTER_BLOCK = 8192


def _accumulate_outer(t: Tensor, u: np.ndarray, v: np.ndarray) -> None:
    """`_accumulate(t, np.outer(u, v))` without the full product: the product
    is formed and added into `t.grad` (zeros if `t` had none; zeros + p has
    the bits of p + 0.0) one block of rows at a time."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    rows = max(1, _OUTER_BLOCK // max(1, v.size))
    for start in range(0, u.size, rows):
        grad = t.grad[start : start + rows]
        grad += u[start : start + rows, None] * v


def _toposort(root: Tensor) -> list:
    order: list = []
    seen: set = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


class PoolIndices:
    """Per-output-element source position along the pooled length axis.

    `indices` (int64, shaped like the pooled output) may be passed as a
    function of no arguments instead; it is called on the first read.
    """

    __slots__ = ("_indices", "src_len")

    def __init__(self, indices, src_len: int):
        self._indices = indices
        self.src_len = src_len

    @property
    def indices(self) -> np.ndarray:
        if callable(self._indices):
            self._indices = self._indices()
        return self._indices


# --- convolutions ---------------------------------------------------------


# Work threshold above which stride-1 1D convolutions go through the FFT
# path; below it one stacked matmul over the kernel taps is faster.
_FFT_WORK_THRESHOLD = 50_000


# The views of a (out, in, width) kernel that the FFT path convolves with.
_KERNEL_VIEWS = {
    "id": lambda w: w,
    "flip": lambda w: w[:, :, ::-1],
    "swap": lambda w: w.transpose(1, 0, 2),
    "flipswap": lambda w: w[:, :, ::-1].transpose(1, 0, 2),
}


def _kernel_spectrum(kernels: Tensor, view: str, n: int) -> np.ndarray:
    """`rfft` of a view of the kernel values at length n, memoized on `kernels`.

    The memo holds a copy of the values its spectra came from and is
    rebuilt whenever the current values differ from it in any bit. The
    comparison is on the bits, not the floats, because -0.0 == 0.0 and
    NaN != NaN.
    """
    w = kernels.data
    memo = kernels._spectra
    if memo is None or not np.array_equal(memo[0].view(np.uint64), w.view(np.uint64)):
        memo = kernels._spectra = (w.copy(), {})
    spectra = memo[1]
    key = (view, n)
    if key not in spectra:
        spectra[key] = np.fft.rfft(_KERNEL_VIEWS[view](w), n)
    return spectra[key]


def _conv_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """convfull(a[i], b[j]) for every pair -> (I, J, La + Lb - 1)."""
    n = a.shape[1] + b.shape[1] - 1
    a_f = np.fft.rfft(a, n)
    b_f = np.fft.rfft(b, n)
    return np.fft.irfft(a_f[:, None, :] * b_f[None, :, :], n)


def _windows(a: np.ndarray, width: int, count: int, stride: int) -> np.ndarray:
    """Read-only (width, rows, count) view of a 2-D `a`: [k, c, t] is a[c, k + t * stride]."""
    s0, s1 = a.strides
    return as_strided(a, (width, a.shape[0], count), (s1, s0, s1 * stride), writeable=False)


def _tap_sum(taps: np.ndarray) -> np.ndarray:
    """zeros + taps[0] + taps[1] + ..., added in tap order as a loop of `out += tap` adds."""
    if math.prod(taps.shape[1:]) == 1:
        # With one element per tap, np.add.reduce would sum the now contiguous
        # tap axis pairwise; a scan adds in order.
        zeros = np.zeros((1,) + taps.shape[1:])
        return np.add.accumulate(np.concatenate((zeros, taps)), axis=0)[-1]
    # Over a leading axis of multi-element slices, np.add.reduce adds one
    # slice after another into the running sum.
    return np.add.reduce(taps, axis=0, initial=0.0)


def _correlate(
    a: np.ndarray, kernels: Tensor, full: bool, swap: bool, out_len: int, stride: int,
    use_fft: bool,
) -> np.ndarray:
    """Correlate the rows of `a` with the kernels w[o, c, k], or with w[c, o, k] if `swap`.

    valid: out[o, t] = sum over c, k of w[o, c, k] * a[c, t * stride + k];
    full:  out[o, t * stride + k] += w[o, c, k] * a[c, t] for every c, k.
    By FFT against the memoized kernel spectrum (stride 1 only), or by one
    stacked matmul of every kernel tap with a strided window view of `a`,
    whose per-tap products are then added in tap order.
    """
    w = kernels.data
    k_width = w.shape[2]
    if use_fft:
        view = ("" if full else "flip") + ("swap" if swap else "")
        n = a.shape[1] + k_width - 1
        a_f = np.fft.rfft(a, n)
        b_f = _kernel_spectrum(kernels, view or "id", n)
        out = np.fft.irfft(np.einsum("jif,if->jf", b_f, a_f), n)
        return out if full else out[:, k_width - 1 : k_width - 1 + out_len]
    # w_taps[k] is the (out, in) matrix of tap k. Each stacked product has
    # the operand strides, so the matmul kernel and the bits, of the per-tap
    # product `w[:, :, k] @ a[...]`.
    w_taps = w.transpose(2, 1, 0) if swap else w.transpose(2, 0, 1)
    if not full:
        return _tap_sum(np.matmul(w_taps, _windows(a, k_width, out_len, stride)))
    # Tap k's product lands at k + t * stride. Adding +0.0 where it does not
    # land keeps every sum's bits: a sum begun at +0.0 is never -0.0.
    products = np.matmul(w_taps, a)
    placed = np.zeros(products.shape[:2] + (out_len,))
    s0, s1, s2 = placed.strides
    as_strided(placed, products.shape, (s0 + s2, s1, s2 * stride))[...] = products
    return _tap_sum(placed)


def _conv1d(x: Tensor, kernels: Tensor, stride: int, full: bool) -> Tensor:
    """One 1-D conv node; the FFT-or-matmul choice is made once, from the forward's work."""
    if x.data.ndim != 2:
        raise ShapeError(f"conv1d: input must be (channels, length), got {x.data.shape}")
    if kernels.data.ndim != 3:
        raise ShapeError(
            f"conv1d: kernels must be (out, in, width), got {kernels.data.shape}"
        )
    if kernels.data.shape[1] != x.data.shape[0]:
        raise ShapeError(
            f"conv1d: kernel in-channels (axis 1) = {kernels.data.shape[1]} "
            f"!= input channels (axis 0) = {x.data.shape[0]}"
        )
    if stride < 1:
        raise ShapeError(f"conv1d: stride must be >= 1, got {stride}")
    w = kernels.data
    xd = x.data
    k_width = w.shape[2]
    length = xd.shape[1]
    if full:
        out_len = length + k_width - 1
    elif length < k_width:
        raise ShapeError(
            f"conv1d_valid: input length (axis 1) = {length} < kernel width {k_width}"
        )
    else:
        out_len = (length - k_width) // stride + 1
    work = xd.shape[0] * k_width * (length if full else out_len)
    use_fft = stride == 1 and work > _FFT_WORK_THRESHOLD
    out_data = _correlate(xd, kernels, full, False, out_len, stride, use_fft)

    def backprop(g):
        if use_fft and full:
            gw = _conv_pairs(xd[:, ::-1], g).transpose(1, 0, 2)[
                :, :, length - 1 : length - 1 + k_width
            ]
        elif use_fft:
            gw = _conv_pairs(g[:, ::-1], xd)[:, :, out_len - 1 : out_len - 1 + k_width]
        else:
            # Tap k is g[:, k : k + length] @ xd.T (full), or g times the
            # transpose of xd's k-th window (valid): all in one stacked matmul.
            if full:
                gw_taps = np.matmul(_windows(g, k_width, length, 1), xd.T)
            else:
                gw_taps = np.matmul(g, _windows(xd, k_width, out_len, stride).transpose(0, 2, 1))
            gw = np.ascontiguousarray(gw_taps.transpose(1, 2, 0))
        _accumulate(kernels, gw)
        _accumulate(x, _correlate(g, kernels, not full, True, length, stride, use_fft))

    return _node(out_data, (x, kernels), backprop)


def conv1d_valid(x: Tensor, kernels: Tensor, stride: int = 1) -> Tensor:
    """Valid cross-correlation: (C_in, L) x (C_out, C_in, K) -> (C_out, L').

    L' = floor((L - K) / stride) + 1. Differentiable with respect to both
    the input and the kernels.
    """
    return _conv1d(as_tensor(x), as_tensor(kernels), stride, full=False)


def conv1d_full(x: Tensor, kernels: Tensor) -> Tensor:
    """Full (transposed) cross-correlation: output length L + K - 1.

    out[o, t] = sum over c, k of x[c, t - k] * kernels[o, c, k]: the
    adjoint of `conv1d_valid` at stride 1 with the kernel in/out axes
    swapped.
    """
    return _conv1d(as_tensor(x), as_tensor(kernels), 1, full=True)


def conv2d_valid(x: Tensor, kernels: Tensor, stride: int = 1) -> Tensor:
    """Valid 2D cross-correlation: (C_in, H, W) x (C_out, C_in, KH, KW)."""
    x, kernels = as_tensor(x), as_tensor(kernels)
    if x.data.ndim != 3:
        raise ShapeError(f"conv2d: input must be (channels, H, W), got {x.data.shape}")
    if kernels.data.ndim != 4:
        raise ShapeError(
            f"conv2d: kernels must be (out, in, KH, KW), got {kernels.data.shape}"
        )
    if kernels.data.shape[1] != x.data.shape[0]:
        raise ShapeError(
            f"conv2d: kernel in-channels (axis 1) = {kernels.data.shape[1]} "
            f"!= input channels (axis 0) = {x.data.shape[0]}"
        )
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    w = kernels.data
    xd = x.data
    kh, kw = w.shape[2], w.shape[3]
    h, wid = xd.shape[1], xd.shape[2]
    if h < kh or wid < kw:
        raise ShapeError(
            f"conv2d_valid: input {h}x{wid} smaller than kernel {kh}x{kw} (axes 1, 2)"
        )
    nh = (h - kh) // stride + 1
    nw = (wid - kw) // stride + 1
    span_h = (nh - 1) * stride + 1
    span_w = (nw - 1) * stride + 1
    c_out, c_in = w.shape[0], w.shape[1]
    # With one input channel each tap's (C_out, 1) @ (1, P) product is one
    # rounded multiply per entry, which broadcasting gives with the same bits.
    tap_product = np.multiply if c_in == 1 else np.matmul
    out_flat = np.zeros((c_out, nh * nw))
    for a in range(kh):
        for b in range(kw):
            sl = xd[:, a : a + span_h : stride, b : b + span_w : stride]
            out_flat += tap_product(w[:, :, a, b], sl.reshape(c_in, -1))

    def backprop(g):
        g2 = g.reshape(c_out, -1)
        gw = np.empty_like(w)
        gx = np.zeros_like(xd)
        for a in range(kh):
            for b in range(kw):
                sl = xd[:, a : a + span_h : stride, b : b + span_w : stride]
                gw[:, :, a, b] = g2 @ sl.reshape(c_in, -1).T
                gx[:, a : a + span_h : stride, b : b + span_w : stride] += (
                    w[:, :, a, b].T @ g2
                ).reshape(c_in, nh, nw)
        _accumulate(kernels, gw)
        _accumulate(x, gx)

    return _node(out_flat.reshape(c_out, nh, nw), (x, kernels), backprop)


# --- pooling ---------------------------------------------------------------


_NEG_ZERO_BITS = np.float64(-0.0).view(np.int64)


def _window_max(x: np.ndarray, taps: dict) -> np.ndarray:
    """Running maximum over equally shaped tap views of `x`, in tap order.

    The rule is `argmax`'s: ties go to the first tap, and a NaN beats any
    number, the first NaN winning with its payload. `np.maximum(best, v)`
    follows it except on a 0.0, -0.0 tie, where it may return either zero;
    so if `x` holds a -0.0, each window whose maximum is zero takes its
    first zero tap. Which tap won is left to `_winner`.
    """
    taps = list(taps.values())
    best = taps[0].copy()
    for v in taps[1:]:
        np.maximum(best, v, out=best)
    if x.view(np.int64).min() == _NEG_ZERO_BITS:
        zero = best == 0
        for v in reversed(taps):
            np.copyto(best, v, where=zero & (v == 0))
    return best


def _winner(taps: dict, best: np.ndarray) -> np.ndarray:
    """For each maximum from `_window_max`, the index of the first tap whose bits equal it."""
    bits = best.view(np.uint64)
    views = list(taps.values())
    missed = views[0].view(np.uint64) != bits
    first = missed.astype(np.int64)  # counts the leading taps that missed
    for v in views[1:-1]:
        missed &= v.view(np.uint64) != bits
        first += missed
    return first


def _scatter_add(flat: np.ndarray, values: np.ndarray, shape: tuple) -> np.ndarray:
    """Zeros of `shape` plus each value at its flat position, added in index order."""
    return np.bincount(flat.ravel(), values.ravel(), math.prod(shape)).reshape(shape)


def _pool_source(x: Tensor) -> np.ndarray:
    """What a pool of `x` reads, now and when its backward finds the winners.

    A leaf's values may be written in place before then (an optimizer
    step, a finite-difference probe), so a leaf is pooled from a copy.
    """
    return x.data if x._parents else x.data.copy()


def maxpool1d(x: Tensor, window: int, stride: int) -> tuple:
    """Windowed maximum along the length axis; ties go to the lowest index.

    Returns the pooled tensor and the argmax positions needed to undo the
    pooling with `unpool1d`. The positions are found on first read, by the
    backward pass or by `PoolIndices.indices`.
    """
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"maxpool1d: input must be (channels, length), got {x.data.shape}")
    c, length = x.data.shape
    if length < window:
        raise ShapeError(
            f"maxpool1d: input length (axis 1) = {length} < window {window}"
        )
    span = (length - window) // stride * stride + 1
    xd = _pool_source(x)
    taps = {k: xd[:, k : k + span : stride] for k in range(window)}
    out_data = _window_max(xd, taps)
    indices = PoolIndices(lambda: _winner(taps, out_data) + np.arange(0, span, stride), length)

    def backprop(g):
        flat = indices.indices + length * np.arange(c)[:, None]
        _accumulate(x, _scatter_add(flat, g, x.data.shape))

    return _node(out_data, (x,), backprop), indices


def maxpool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """2D windowed maximum over (H, W); no unpooling counterpart.

    Ties go to the first position of the window in row-major order. The
    positions are found only by the backward pass.
    """
    x = as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool2d: input must be (channels, H, W), got {x.data.shape}")
    c, h, w = x.data.shape
    if h < window or w < window:
        raise ShapeError(f"maxpool2d: input {h}x{w} smaller than window {window}")
    span_h = (h - window) // stride * stride + 1
    span_w = (w - window) // stride * stride + 1
    xd = _pool_source(x)
    taps = {
        a * w + b: xd[:, a : a + span_h : stride, b : b + span_w : stride]
        for a in range(window)
        for b in range(window)
    }
    out_data = _window_max(xd, taps)

    def backprop(g):
        # The winning tap's offset, plus the flat index of its window's first element.
        flat = np.take(list(taps), _winner(taps, out_data))
        flat += np.arange(c * h * w).reshape(c, h, w)[:, :span_h:stride, :span_w:stride]
        _accumulate(x, _scatter_add(flat, g, x.data.shape))

    return _node(out_data, (x,), backprop)


def unpool1d(x: Tensor, indices: PoolIndices, target_len: int) -> Tensor:
    """Scatter pooled values back to their recorded argmax positions.

    Positions not covered by any index stay zero. Duplicate indices (only
    possible with overlapping windows) accumulate, so the scatter always
    conserves the input sum.
    """
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"unpool1d: input must be (channels, length), got {x.data.shape}")
    if indices.indices.shape != x.data.shape:
        raise GraphError(
            f"unpool1d: stale indices, shape {indices.indices.shape} does not "
            f"match input {x.data.shape}"
        )
    src = indices.indices
    if src.size and (src.min() < 0 or src.max() >= target_len):
        raise CorruptionError(
            f"unpool1d: recorded indices span [{int(src.min())}, {int(src.max())}], "
            f"outside target length {target_len}"
        )
    rows = np.arange(x.data.shape[0])[:, None]
    out_data = _scatter_add(src + target_len * rows, x.data, (x.data.shape[0], target_len))

    def backprop(g):
        _accumulate(x, g[rows, src])

    return _node(out_data, (x,), backprop)


# --- dense / pointwise -----------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: (N,) x (M, N) + (M,) -> (M,)."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.data.ndim != 1 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError(
            f"linear: expected vector/matrix/vector, got {x.data.shape}, "
            f"{weight.data.shape}, {bias.data.shape}"
        )
    if weight.data.shape[1] != x.data.shape[0]:
        raise ShapeError(
            f"linear: weight columns (axis 1) = {weight.data.shape[1]} "
            f"!= input length = {x.data.shape[0]}"
        )
    if weight.data.shape[0] != bias.data.shape[0]:
        raise ShapeError(
            f"linear: weight rows (axis 0) = {weight.data.shape[0]} "
            f"!= bias length = {bias.data.shape[0]}"
        )

    def backprop(g):
        _accumulate(x, weight.data.T @ g)
        _accumulate_outer(weight, g, x.data)
        _accumulate(bias, g)

    return _node(weight.data @ x.data + bias.data, (x, weight, bias), backprop)


def add_channel_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add one bias per leading-axis channel, broadcast over trailing axes."""
    x, bias = as_tensor(x), as_tensor(bias)
    if bias.data.ndim != 1 or bias.data.shape[0] != x.data.shape[0]:
        raise ShapeError(
            f"add_channel_bias: bias length {bias.data.shape} != channels "
            f"(axis 0) = {x.data.shape[0]}"
        )
    shaped = bias.data.reshape((-1,) + (1,) * (x.data.ndim - 1))

    def backprop(g):
        _accumulate(x, g)
        trailing = tuple(range(1, x.data.ndim))
        _accumulate(bias, g.sum(axis=trailing) if trailing else g)

    return _node(x.data + shaped, (x, bias), backprop)


def relu(x: Tensor) -> Tensor:
    """Clamp negatives to zero; subgradient at exactly 0 is 0."""
    x = as_tensor(x)
    # fmax(x, 0) is x for x > 0 and a zero otherwise (0.0 for a NaN, either
    # zero for -0.0); `+= 0.0` turns -0.0 into 0.0. These are the bits of
    # np.where(x > 0, x, 0.0), without a branch on the data.
    out_data = np.fmax(x.data, 0.0)
    out_data += 0.0

    def backprop(g):
        _accumulate(x, g * (out_data > 0))

    return _node(out_data, (x,), backprop)


def concat(tensors, axis: int = 0) -> Tensor:
    """Join tensors along an existing axis."""
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat: need at least one tensor")
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backprop(g):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            _accumulate(p, g[tuple(sl)])

    out_data = np.concatenate([p.data for p in parts], axis=axis)
    return _node(out_data, tuple(parts), backprop)


def flatten(x: Tensor) -> Tensor:
    """Row-major flatten to a vector."""
    x = as_tensor(x)

    def backprop(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(x.data.reshape(-1).copy(), (x,), backprop)


def reshape(x: Tensor, shape) -> Tensor:
    """Row-major reshape; element count must be preserved."""
    x = as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.data.shape} as {shape}")

    def backprop(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(x.data.reshape(shape).copy(), (x,), backprop)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean of elementwise squared differences; scalar output."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise ShapeError(
            f"mse_loss: shapes {pred.data.shape} and {target.data.shape} differ"
        )
    diff = pred.data - target.data
    scale = 2.0 / diff.size

    def backprop(g):
        g_pred = g * scale * diff
        _accumulate(pred, g_pred)
        _accumulate(target, -g_pred)

    return _node(np.array(np.mean(diff * diff)), (pred, target), backprop)
