"""Independent brute-force references the fast implementations are checked
against. Everything here is written as plain loops over the defining sums,
deliberately sharing no code with the package."""

import numpy as np


def conv1d_direct(x, k, stride=1):
    c_out, c_in, width = k.shape
    n_out = (x.shape[1] - width) // stride + 1
    out = np.zeros((c_out, n_out))
    for o in range(c_out):
        for i in range(n_out):
            acc = 0.0
            for c in range(c_in):
                for j in range(width):
                    acc += x[c, i * stride + j] * k[o, c, j]
            out[o, i] = acc
    return out


def conv1d_full_direct(x, k):
    c_out, c_in, width = k.shape
    length = x.shape[1]
    n_out = length + width - 1
    out = np.zeros((c_out, n_out))
    for o in range(c_out):
        for t in range(n_out):
            acc = 0.0
            for c in range(c_in):
                for j in range(width):
                    src = t - j
                    if 0 <= src < length:
                        acc += x[c, src] * k[o, c, j]
            out[o, t] = acc
    return out


def conv2d_direct(x, k, stride=1):
    c_out, c_in, kh, kw = k.shape
    h_out = (x.shape[1] - kh) // stride + 1
    w_out = (x.shape[2] - kw) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for c in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            acc += x[c, i * stride + a, j * stride + b] * k[o, c, a, b]
                out[o, i, j] = acc
    return out


def maxpool1d_direct(x, window, stride):
    c, length = x.shape
    n_out = (length - window) // stride + 1
    out = np.zeros((c, n_out))
    idx = np.zeros((c, n_out), dtype=np.int64)
    for ch in range(c):
        for i in range(n_out):
            best = -np.inf
            best_j = 0
            for j in range(window):
                v = x[ch, i * stride + j]
                if v > best:
                    best = v
                    best_j = i * stride + j
            out[ch, i] = best
            idx[ch, i] = best_j
    return out, idx


def maxpool2d_direct(x, window, stride):
    """Windowed maxima and, per output, the (row, column) of the first maximum."""
    c, h, w = x.shape
    h_out = (h - window) // stride + 1
    w_out = (w - window) // stride + 1
    out = np.zeros((c, h_out, w_out))
    rows = np.zeros((c, h_out, w_out), dtype=np.int64)
    cols = np.zeros((c, h_out, w_out), dtype=np.int64)
    for ch in range(c):
        for i in range(h_out):
            for j in range(w_out):
                best = -np.inf
                best_at = (i * stride, j * stride)
                for a in range(window):
                    for b in range(window):
                        v = x[ch, i * stride + a, j * stride + b]
                        if v > best:
                            best = v
                            best_at = (i * stride + a, j * stride + b)
                out[ch, i, j] = best
                rows[ch, i, j], cols[ch, i, j] = best_at
    return out, rows, cols


def confusion_precision_direct(pred_flags, true_flags):
    """Percent precision of the positive class, or None when undefined."""
    tp = sum(1 for p, t in zip(pred_flags, true_flags) if p and t)
    fp = sum(1 for p, t in zip(pred_flags, true_flags) if p and not t)
    if tp + fp == 0:
        return None
    return 100.0 * tp / (tp + fp)


def count_peaks(signal, threshold):
    """Local maxima above a threshold, plateau-safe."""
    n = 0
    for i in range(1, len(signal) - 1):
        if signal[i] >= threshold and signal[i] > signal[i - 1] and signal[i] >= signal[i + 1]:
            if signal[i] > signal[i + 1] or signal[i] > signal[i - 1]:
                n += 1
    return n


def least_squares_r2(features, targets):
    """R-squared of an ordinary least squares fit with intercept."""
    X = np.column_stack([np.ones(len(targets)), features])
    coef, *_ = np.linalg.lstsq(X, targets, rcond=None)
    pred = X @ coef
    ss_res = float(np.sum((targets - pred) ** 2))
    ss_tot = float(np.sum((targets - np.mean(targets)) ** 2))
    return 1.0 - ss_res / ss_tot


def bilinear_sample_four_gather(image, ys, xs):
    """Bilinear sampling of `image` at the grid `ys` x `xs`, clamped to the
    image, as four broadcast 2-D gathers. This is the form the package's
    row-then-column sampler replaced; the two must agree bit for bit."""
    h, w = image.shape
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = ys - y0
    wx = xs - x0
    top = image[y0[:, None], x0[None, :]] * (1 - wx)[None, :] + image[
        y0[:, None], x1[None, :]
    ] * wx[None, :]
    bottom = image[y1[:, None], x0[None, :]] * (1 - wx)[None, :] + image[
        y1[:, None], x1[None, :]
    ] * wx[None, :]
    return top * (1 - wy)[:, None] + bottom * wy[:, None]
