"""Numeric inner loops: smoothing, the PoI scan, and the CNN layers.

Each kernel exists once, written in numpy; ``signal_core`` and
``classifier`` are their only callers in the package.

Conventions:
  - acceleration matrices are float64 ``(n, 3)`` arrays, channel order x/y/z
  - variance is the population variance, summed over the three channels
  - smoothing and the PoI scan are bit-stable: their outputs equal, byte for
    byte, the plain per-row gather and suppress-then-threshold loop that the
    tests keep as references; the CNN layers are not (below)
  - the PoI scan takes the window variances of k kept peaks from one
    C-ordered ``(L, k, 3)`` gather (window row, peak, channel), not from
    four reductions per peak: its sums over axis 0 add the L rows one after
    another, as ``win.sum(axis=0)`` does on one ``(L, 3)`` window, so the
    bytes are the same; a sum along a contiguous L axis (a ``(k, 3, L)``
    copy) adds pairwise and changes the last bits, and one along a strided
    L axis keeps them but took 7 ns an element (x86-64, numpy 2.4); a
    gather holds at most ``_GATHER_ROWS`` rows, so its memory stays small
  - the CNN layers index ``x[..., h, w, c]``: any leading axes (a batch of
    windows) pass through, and ``conv2d_backward`` returns weight and bias
    gradients summed over them
  - a convolution is one matrix product on im2col columns: the four shifted
    views side by side on the channel axis, ``(rows, 4C) @ (4C, F)``, then
    the bias; how the product sums its terms is up to the BLAS build, so CNN
    activations and probabilities are stable only to the last bits
  - the columns are one copy of a strided view with two tap axes, for any
    C; a concatenate of the four tap views gives the same bytes, in about
    13 against 7 us for one conv2 input, and for conv1 (C = 1) it was as
    fast at batches of 1 to 4 and faster at 16 (x86-64, numpy 2.4)
  - max-pooling halves the time axis (pairs, stride 2, floor); the later
    row of a pair wins only when strictly greater, so ties keep the earlier
    row, matching ``np.argmax`` on NaN-free input
  - ``maxpool2`` returns the pooled values only, which is all inference
    needs; training takes the winners from ``maxpool2_winners`` (int64 1
    where the later row won) and hands them to ``maxpool2_backward``
  - the pools select without ``np.where``: on a batch of 4 conv1 outputs
    (19k pooled elements, past numpy's 8192-element buffer) it took about
    7 ns an element, four times ``np.maximum`` on the same strided views
    (x86-64, numpy 2.4); the value is ``np.maximum(later, earlier)`` and
    the backward pass a bit-select on int64 views, and both equal the
    ``np.argmax`` form byte for byte, signed zeros included
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError

# ---------------------------------------------------------------------------
# centered moving average, window truncated at the series edges


def moving_average(x: np.ndarray, half: int, out: np.ndarray) -> np.ndarray:
    """The moving average of ``x``, written into ``out`` (same shape) and returned."""
    n = x.shape[0]
    if half <= 0:
        out[...] = x
        return out
    csum = np.zeros((n + 1, x.shape[1]))
    np.cumsum(x, axis=0, out=csum[1:])
    w = 2 * half + 1
    if n > 2 * half:  # full windows: a difference of two cumsum slices
        mid = out[half : n - half]
        np.subtract(csum[w:], csum[: n + 1 - w], out=mid)
        mid /= w
        edges = np.concatenate((np.arange(half), np.arange(n - half, n)))
    else:
        edges = np.arange(n)
    lo = np.maximum(edges - half, 0)
    hi = np.minimum(edges + half, n - 1)
    out[edges] = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)[:, None]
    return out


# ---------------------------------------------------------------------------
# PoI scan over one contiguous segment
#
# The result is that of a fixed predicate order: strict negative peaks on
# the x channel, closer-than-min_gap suppression (more negative wins, ties
# keep the earlier peak), the acceleration threshold, then the summed-
# variance filter over a window of `left` samples before and `right` after
# the peak. Peaks whose window is not fully inside the segment are discarded.
#
# The threshold is applied before suppression, which is exact: a peak
# replaces the kept one only when strictly lower, so a peak above x_th never
# replaces or suppresses one at or below it, and it only ever moves the
# suppression anchor later in time, where every peak it could suppress is
# above x_th too.

_GATHER_ROWS = 8192  # at most this many window rows per variance gather (192 KiB)


def poi_scan(t, xyz, x_th, v_th, min_gap, left, right):
    xs = xyz[:, 0]
    n = xs.shape[0]
    mid = xs[1:-1]
    peaks = np.flatnonzero((mid < xs[:-2]) & (mid < xs[2:]) & (mid <= x_th)) + 1

    kept: list[int] = []
    t_kept = x_kept = 0.0
    for i, ti, xi in zip(peaks.tolist(), t[peaks].tolist(), xs[peaks].tolist()):
        if kept and ti - t_kept < min_gap:
            if xi < x_kept:
                kept[-1], t_kept, x_kept = i, ti, xi
        else:
            kept.append(i)
            t_kept, x_kept = ti, xi

    idx = np.asarray(kept, np.int64)
    idx = idx[(idx >= left) & (idx + right < n)]
    var = np.empty(idx.shape[0])
    if idx.size:  # none when the window is longer than the segment
        size = left + right + 1
        view = sliding_window_view(xyz, size, axis=0).transpose(2, 0, 1)  # (size, n - size + 1, 3)
        step = max(1, _GATHER_ROWS // size)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            for a in range(0, idx.shape[0], step):
                # (size, k, 3), C-ordered: the sums over axis 0 add row after row
                g = view[:, idx[a : a + step] - left].copy()
                mu = g.sum(axis=0) / size
                np.multiply(g, g, out=g)
                var[a : a + step] = (g.sum(axis=0) / size - mu * mu).sum(axis=1)
        if not np.all(np.isfinite(var)):
            raise ConfigError("PoI window variance overflowed: a window's summed variance is not finite")
    keep = var > v_th
    return idx[keep], var[keep]


# ---------------------------------------------------------------------------
# valid 2x2 convolution: (..., H, W, C) -> (..., H-1, W-1, F)


_TAPS = ((0, 0), (0, 1), (1, 0), (1, 1))  # the row order of w.reshape(4C, F)


def _im2col(x):
    """``(..., H-1, W-1, 4C)``: the input under each kernel tap, side by side."""
    *lead, h, wd, c = x.shape
    # one copy of a (..., H-1, W-1, 2, 2, C) view whose two tap axes step
    # like the row and column axes; np.ndarray builds it without the Python
    # cost of as_strided
    x = np.ascontiguousarray(x)
    *lead_st, sh, sw, sc = x.strides
    view = np.ndarray((*lead, h - 1, wd - 1, 2, 2, c), x.dtype, x, 0, (*lead_st, sh, sw, sh, sw, sc))
    return view.copy().reshape(*lead, h - 1, wd - 1, 4 * c)


def conv2d(x, w, b):
    cols = _im2col(x)
    # a 2-D product: a stacked (4-D) matmul would loop over (1, 4C) rows
    out = cols.reshape(-1, cols.shape[-1]) @ w.reshape(-1, w.shape[-1])
    out += b
    return out.reshape(cols.shape[:-1] + (w.shape[-1],))


def conv2d_backward(x, w, dout, *, input_grad):
    """``(dx, dw, db)``; ``dx`` is None unless ``input_grad``."""
    cols = _im2col(x)
    rows = dout.reshape(-1, dout.shape[-1])  # one row per output position
    db = rows.sum(axis=0)
    dw = (cols.reshape(-1, cols.shape[-1]).T @ rows).reshape(w.shape)
    if not input_grad:
        return None, dw, db
    # one product per tap: as fast as one (rows, 4C) product, without its buffer
    h, wd, c = x.shape[-3:]
    dx = np.zeros_like(x)
    for di, dj in _TAPS:
        dx[..., di : h - 1 + di, dj : wd - 1 + dj, :] += (rows @ w[di, dj].T).reshape(cols.shape[:-1] + (c,))
    return dx, dw, db


# ---------------------------------------------------------------------------
# 2x1 max pool along the time axis (..., H, W, C), stride 2, floor on odd lengths


def _row_pairs(x):
    """The earlier and the later row of each pooled pair, as strided views."""
    h2 = x.shape[-3] // 2
    return x[..., 0 : 2 * h2 : 2, :, :], x[..., 1 : 2 * h2 : 2, :, :]


def maxpool2(x):
    top, bottom = _row_pairs(x)
    # np.maximum returns its second operand when +0.0 ties -0.0, so the
    # earlier row keeps a tie; the tests pin this, since numpy does not
    return np.maximum(bottom, top)


def maxpool2_winners(x):
    """int64 1 where the later row of a pair won ``maxpool2``, else 0."""
    top, bottom = _row_pairs(x)
    return (bottom > top).astype(np.int64)


def maxpool2_backward(dout, arg, h):
    dx = np.zeros(dout.shape[:-3] + (h,) + dout.shape[-2:])
    h2 = h // 2
    # a bit-select on the int64 views: arg - 1 is all ones where the earlier
    # row won and -arg where the later one did, so a winner gets dout's exact
    # bits (-0.0 too) and a loser +0.0
    bits, dx_bits = dout.view(np.int64), dx.view(np.int64)
    np.bitwise_and(bits, arg - 1, out=dx_bits[..., 0 : 2 * h2 : 2, :, :])
    np.bitwise_and(bits, -arg, out=dx_bits[..., 1 : 2 * h2 : 2, :, :])
    return dx
