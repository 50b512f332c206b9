"""Numeric inner loops: smoothing, the PoI scan, and the CNN layers.

Each kernel exists once, written in numpy; ``signal_core`` and
``classifier`` are their only callers in the package.

Conventions:
  - acceleration matrices are float64 ``(n, 3)`` arrays, channel order x/y/z
  - variance is the population variance, summed over the three channels
  - the CNN layers index ``x[..., h, w, c]``: any leading axes (a batch of
    windows) pass through, and ``conv2d_backward`` returns weight and bias
    gradients summed over them
  - a convolution with one input channel (conv1) is four broadcast
    multiply-adds instead of a K = 1 matrix product; both forms add
    ``b + t00 + t01 + t10 + t11`` in that order, so outputs are unchanged
  - max-pooling halves the time axis (pairs, stride 2, floor); the later
    row of a pair wins only when strictly greater, so ties keep the earlier
    row, matching ``np.argmax`` on NaN-free input
"""
from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# centered moving average, window truncated at the series edges


def moving_average(x: np.ndarray, half: int) -> np.ndarray:
    n = x.shape[0]
    if half <= 0 or n == 0:
        return x.copy()
    csum = np.zeros((n + 1, x.shape[1]))
    np.cumsum(x, axis=0, out=csum[1:])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)[:, None]


# ---------------------------------------------------------------------------
# PoI scan over one contiguous segment
#
# Predicate order is fixed: strict negative peaks on the x channel,
# closer-than-min_gap suppression (more negative wins, ties keep the earlier
# peak), the acceleration threshold, then the summed-variance filter over a
# window of `left` samples before and `right` after the peak. Peaks whose
# window is not fully inside the segment are discarded.


def poi_scan(t, xyz, x_th, v_th, min_gap, left, right):
    xs = xyz[:, 0]
    n = xs.shape[0]
    if n < 3:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    mid = xs[1:-1]
    peaks = np.flatnonzero((mid < xs[:-2]) & (mid < xs[2:])) + 1

    kept: list[int] = []
    for i in peaks:
        if kept and t[i] - t[kept[-1]] < min_gap:
            if xs[i] < xs[kept[-1]]:
                kept[-1] = i
        else:
            kept.append(i)

    idx_out: list[int] = []
    var_out: list[float] = []
    for i in kept:
        if xs[i] > x_th:
            continue
        lo, hi = i - left, i + right
        if lo < 0 or hi >= n:
            continue
        win = xyz[lo : hi + 1]
        mu = win.sum(axis=0) / win.shape[0]
        vsum = float(((win * win).sum(axis=0) / win.shape[0] - mu * mu).sum())
        if vsum > v_th:
            idx_out.append(int(i))
            var_out.append(vsum)
    return np.asarray(idx_out, np.int64), np.asarray(var_out, np.float64)


# ---------------------------------------------------------------------------
# valid 2x2 convolution: (..., H, W, C) -> (..., H-1, W-1, F)


def conv2d(x, w, b):
    h, wd, c = x.shape[-3:]
    out = np.tile(b, x.shape[:-3] + (h - 1, wd - 1, 1))
    for di in range(2):
        for dj in range(2):
            xs = x[..., di : h - 1 + di, dj : wd - 1 + dj, :]
            out += xs * w[di, dj, 0] if c == 1 else np.tensordot(xs, w[di, dj], axes=([-1], [0]))
    return out


def conv2d_backward(x, w, dout):
    h, wd, c = x.shape[-3:]
    rows = dout.reshape(-1, dout.shape[-1])  # one row per output position
    db = rows.sum(axis=0)
    dw = np.empty_like(w)
    dx = np.zeros_like(x)
    for di in range(2):
        for dj in range(2):
            xs = x[..., di : h - 1 + di, dj : wd - 1 + dj, :]
            dw[di, dj] = xs.reshape(-1, c).T @ rows
            dx[..., di : h - 1 + di, dj : wd - 1 + dj, :] += (rows @ w[di, dj].T).reshape(xs.shape)
    return dx, dw, db


# ---------------------------------------------------------------------------
# 2x1 max pool along the time axis (..., H, W, C), stride 2, floor on odd lengths


def maxpool2(x):
    h2 = x.shape[-3] // 2
    top, bottom = x[..., 0 : 2 * h2 : 2, :, :], x[..., 1 : 2 * h2 : 2, :, :]
    arg = bottom > top
    return np.where(arg, bottom, top), arg.astype(np.int64)


def maxpool2_backward(dout, arg, h):
    dx = np.zeros(dout.shape[:-3] + (h,) + dout.shape[-2:])
    h2 = h // 2
    won = arg == 1
    dx[..., 0 : 2 * h2 : 2, :, :] = np.where(won, 0.0, dout)
    dx[..., 1 : 2 * h2 : 2, :, :] = np.where(won, dout, 0.0)
    return dx
