"""Numeric inner loops: smoothing, the PoI scan, and the CNN layers.

Each kernel exists once, written in numpy; ``signal_core`` and
``classifier`` are their only callers in the package.

Conventions:
  - acceleration matrices are float64 ``(n, 3)`` arrays, channel order x/y/z
  - variance is the population variance, summed over the three channels
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
# valid 2x2 convolution: (H, W, C) -> (H-1, W-1, F)


def conv2d(x, w, b):
    h, wd, _ = x.shape
    out = np.tile(b, (h - 1, wd - 1, 1))
    for di in range(2):
        for dj in range(2):
            out += np.tensordot(x[di : h - 1 + di, dj : wd - 1 + dj, :], w[di, dj], axes=([2], [0]))
    return out


def conv2d_backward(x, w, dout):
    h, wd, _ = x.shape
    db = dout.sum(axis=(0, 1))
    dw = np.zeros_like(w)
    dx = np.zeros_like(x)
    for di in range(2):
        for dj in range(2):
            xs = x[di : h - 1 + di, dj : wd - 1 + dj, :]
            dw[di, dj] = np.tensordot(xs, dout, axes=([0, 1], [0, 1]))
            dx[di : h - 1 + di, dj : wd - 1 + dj, :] += dout @ w[di, dj].T
    return dx, dw, db


# ---------------------------------------------------------------------------
# 2x1 max pool along the time axis, stride 2, floor on odd lengths


def maxpool2(x):
    h2 = x.shape[0] // 2
    top, bottom = x[0 : 2 * h2 : 2], x[1 : 2 * h2 : 2]
    arg = bottom > top
    return np.where(arg, bottom, top), arg.astype(np.int64)


def maxpool2_backward(dout, arg, h):
    dx = np.zeros((h,) + dout.shape[1:])
    h2 = h // 2
    won = arg == 1
    dx[0 : 2 * h2 : 2] = np.where(won, 0.0, dout)
    dx[1 : 2 * h2 : 2] = np.where(won, dout, 0.0)
    return dx
