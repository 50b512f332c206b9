"""The signal-stage kernels and the convolution columns against their plain
forms, bit for bit.

``_moving_average_gather``, ``_poi_scan_loop`` and ``_im2col_concat`` are
the earlier kernels, kept as references: the first gathers every row's
window ends from the cumsum, the second suppresses all strict peaks and only
then applies the threshold, the third concatenates the four tap views. The
kernels must return the same bytes.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mfed import kernels


def _moving_average_gather(x, half):
    n = x.shape[0]
    if half <= 0 or n == 0:
        return x.copy()
    csum = np.zeros((n + 1, x.shape[1]))
    np.cumsum(x, axis=0, out=csum[1:])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)[:, None]


def _poi_scan_loop(t, xyz, x_th, v_th, min_gap, left, right):
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


# few distinct values, so that peaks tie and thresholds land on peak values
VALUES = st.sampled_from([-3.0, -2.0, -1.5, -1.0, 0.0, 1.0, 2.5]) | st.floats(-20, 20)


def _matrix(n):
    return hnp.arrays(np.float64, (n, 3), elements=VALUES)


def _long_matrix(n, seed):
    """n rows from a seed, for lengths too long to draw element by element:
    uniform floats, with VALUES' levels and signed zeros sprinkled in."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-20, 20, (n, 3))
    levels = np.array([-3.0, -2.0, -1.5, -1.0, 0.0, -0.0, 1.0, 2.5])
    at = rng.random((n, 3)) < 0.2
    x[at] = rng.choice(levels, at.sum())
    return x


@st.composite
def scans(draw):
    """Arguments of one ``poi_scan`` call."""
    n = draw(st.one_of(st.integers(0, 3), st.integers(0, 60)), label="n")
    xyz = draw(_matrix(n), label="xyz")
    if draw(st.booleans(), label="grid"):  # an x channel of three levels: many tied peaks
        xyz[:, 0] = np.floor(xyz[:, 0]) % 3 - 2
    # steps of quarter seconds are exact, so peaks can sit exactly min_gap apart
    steps = draw(hnp.arrays(np.float64, (n,), elements=st.sampled_from([0.04, 0.25, 0.5, 1.0])), label="steps")
    t = np.cumsum(steps)
    x_th = draw(st.sampled_from(xyz[:, 0].tolist() or [0.0]) | st.floats(-25, 25), label="x_th")
    min_gap = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]) | st.floats(0, 5), label="min_gap")
    left, right = draw(st.integers(0, 4), label="left"), draw(st.integers(0, 4), label="right")
    # v_th equal to a surviving variance checks the strict comparison
    _, var_all = _poi_scan_loop(t, xyz, x_th, -np.inf, min_gap, left, right)
    v_th = draw(st.sampled_from([-np.inf, 0.0, *var_all.tolist()]) | st.floats(0, 50), label="v_th")
    return t, xyz, x_th, v_th, min_gap, left, right


class TestMovingAverage:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_gather_form_bit_for_bit(self, data):
        half = data.draw(st.integers(0, 12), label="half")
        # n <= 2 * half takes the edge rows only; n = 2 * half + 1 has one full window
        n = data.draw(st.sampled_from([0, 1, 2, 2 * half, 2 * half + 1]) | st.integers(0, 80), label="n")
        x = data.draw(_matrix(n), label="x")
        out = kernels.moving_average(x, half, np.empty_like(x))
        ref = _moving_average_gather(x, half)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 6, 40])
    def test_leading_negative_zeros_keep_their_sign(self, n):
        # a cumsum started from +0.0 would turn the leading -0.0 sums positive
        x = np.full((n, 3), -0.0)
        x[n // 2 :, 1] = 1.0
        out = kernels.moving_average(x, 2, np.empty_like(x))
        assert out.tobytes() == _moving_average_gather(x, 2).tobytes()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_blocks_shorter_than_the_window(self, data):
        # the carried rows then span several blocks
        half = data.draw(st.integers(0, 12), label="half")
        n = data.draw(st.integers(0, 80), label="n")
        x = data.draw(_matrix(n), label="x")
        with mock.patch.object(kernels, "_GATHER_ROWS", data.draw(st.integers(1, 30), label="block")):
            out = kernels.moving_average(x, half, np.empty_like(x))
        assert out.tobytes() == _moving_average_gather(x, half).tobytes()

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_lengths_around_the_block_size(self, data):
        half = data.draw(st.integers(0, 12), label="half")
        b = kernels._GATHER_ROWS
        n = data.draw(st.sampled_from([b - 1, b, b + 1, 2 * b + half, 3 * b + 2 * half + 1]), label="n")
        x = _long_matrix(n, data.draw(st.integers(0, 2**32 - 1), label="seed"))
        out = kernels.moving_average(x, half, np.empty_like(x))
        assert out.tobytes() == _moving_average_gather(x, half).tobytes()

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_in_place_equals_out_of_place(self, data):
        # smoothing a series into its own samples relies on this: a block's
        # rows are read into the cumsum before any row is written
        if data.draw(st.booleans(), label="short blocks"):
            block = data.draw(st.integers(1, 30), label="block")
            n = data.draw(st.integers(0, 80), label="n")
        else:
            block, b = kernels._GATHER_ROWS, kernels._GATHER_ROWS
            n = data.draw(st.sampled_from([b - 1, b, b + 1, 2 * b + 7, 3 * b + 25]) | st.integers(0, 80), label="n")
        half = data.draw(st.integers(0, 12) | st.integers(0, n + 2), label="half")
        x = _long_matrix(n, data.draw(st.integers(0, 2**32 - 1), label="seed"))
        with mock.patch.object(kernels, "_GATHER_ROWS", block):
            expected = kernels.moving_average(x, half, np.empty_like(x))
            out = kernels.moving_average(x, half, x)
        assert out is x
        assert x.tobytes() == expected.tobytes()


class TestPoiScan:
    @given(scans())
    @example(  # tied peaks exactly min_gap apart, x_th on their value
        (np.array([0.0, 0.5, 1.0, 1.5, 2.0]), np.array([[0, 1, 2], [-2, 0, 0], [0, 3, 1], [-2, 1, 0], [0, 0, 0.0]]),
         -2.0, -np.inf, 1.0, 1, 1),
    )
    @example(  # tied peaks closer than min_gap: the earlier one stays
        (np.array([0.0, 0.5, 1.0, 1.5, 2.0]), np.array([[0, 1, 2], [-2, 0, 0], [0, 3, 1], [-2, 1, 0], [0, 0, 0.0]]),
         -2.0, -np.inf, 2.0, 1, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_suppress_then_threshold_loop(self, args):
        idx, var = kernels.poi_scan(*args)
        idx_ref, var_ref = _poi_scan_loop(*args)
        assert idx.dtype == idx_ref.dtype and var.dtype == var_ref.dtype
        assert idx.tobytes() == idx_ref.tobytes()
        assert var.tobytes() == var_ref.tobytes()

    def test_above_threshold_anchor_replaced_by_lower_peak(self):
        # the loop keeps -1 (t=2.5, above x_th) as the anchor, 2 s after -3
        # (t=0.5), and the later -3 (t=3.0) replaces it; the early cut
        # compares that -3 with the first one, 2.5 s apart, and keeps it too
        t = np.array([0.0, 0.5, 1.0, 2.5, 2.75, 3.0, 3.5, 4.0])
        x = np.array([5, -3, 5, -1, 5, -3, 5, 5.0])
        xyz = np.stack([x, np.arange(8.0), np.zeros(8)], axis=1)
        args = (-2.0, -np.inf, 2.0, 0, 0)
        idx, _ = kernels.poi_scan(t, xyz, *args)
        idx_ref, _ = _poi_scan_loop(t, xyz, *args)
        assert idx.tolist() == idx_ref.tolist() == [1, 5]


# signal_core.window_extent(6.0, 25.0): the shipped 150-row window
SHIPPED_LEFT, SHIPPED_RIGHT = 74, 75


def _dips(n):
    """``(t, xyz)`` of n rows at 25 Hz with a strict -4 dip on x every 10 rows."""
    xyz = np.stack([np.zeros(n), np.arange(n) % 7.0, np.full(n, 9.81)], axis=1)
    xyz[5::10, 0] = -4.0
    return np.arange(n) / 25.0, xyz


@st.composite
def shipped_scans(draw):
    """Arguments of one ``poi_scan`` call at the shipped window geometry, on
    up to 2,000 rows of floats: windows long enough for the order in which
    the variance sums add their rows to show in the last bits."""
    n = draw(st.sampled_from([149, 150, 151]) | st.integers(0, 2000), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = draw(st.sampled_from([1e-3, 1.0, 3.0, 1e3]), label="scale")
    raw = rng.normal(size=(n, 3)) * scale + [-2.5, 0.3, 10.7]
    xyz = _moving_average_gather(raw, draw(st.sampled_from([0, 1, 12]), label="half"))
    t = np.arange(n) / 25.0
    x_th = draw(st.floats(-5.0, 0.0), label="x_th")
    min_gap = draw(st.sampled_from([0.04, 0.5, 2.0]), label="min_gap")
    _, var_all = _poi_scan_loop(t, xyz, x_th, -np.inf, min_gap, SHIPPED_LEFT, SHIPPED_RIGHT)
    v_th = draw(st.sampled_from([-np.inf, 0.0, *var_all.tolist()]), label="v_th")
    return t, xyz, x_th, v_th, min_gap, SHIPPED_LEFT, SHIPPED_RIGHT


class TestPoiScanShippedWindow:
    @given(shipped_scans())
    @example((*_dips(149), -3.0, -np.inf, 0.04, SHIPPED_LEFT, SHIPPED_RIGHT))  # segment shorter than the window
    @example((*_dips(400), -5.0, -np.inf, 0.04, SHIPPED_LEFT, SHIPPED_RIGHT))  # no peak at or below x_th
    @example((*_dips(400), -3.0, -np.inf, 0.04, SHIPPED_LEFT, SHIPPED_RIGHT))  # 25 of the dips have whole windows
    @settings(max_examples=60, deadline=None)
    def test_equals_suppress_then_threshold_loop(self, args):
        idx, var = kernels.poi_scan(*args)
        idx_ref, var_ref = _poi_scan_loop(*args)
        assert idx.dtype == idx_ref.dtype and var.dtype == var_ref.dtype
        assert idx.tobytes() == idx_ref.tobytes()
        assert var.tobytes() == var_ref.tobytes()


def _im2col_concat(x):
    h, wd = x.shape[-3:-1]
    return np.concatenate([x[..., di : h - 1 + di, dj : wd - 1 + dj, :] for di, dj in kernels._TAPS], axis=-1)


@st.composite
def conv_inputs(draw):
    """A ``(..., H, W, C)`` input with 0-2 leading axes, C-ordered or not."""
    shape = (*draw(st.lists(st.integers(1, 3), max_size=2), label="lead"),
             draw(st.integers(2, 9), label="h"), draw(st.integers(2, 4), label="w"),
             draw(st.sampled_from([1, 2, 32]), label="c"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    layout = draw(st.sampled_from(["c", "strided", "transposed"]), label="layout")
    if layout == "strided":  # every other row and channel of a larger array
        return rng.normal(size=(*shape[:-3], 2 * shape[-3], shape[-2], 2 * shape[-1]))[..., ::2, :, ::2]
    if layout == "transposed":
        return rng.normal(size=shape[::-1]).T
    return rng.normal(size=shape)


class TestIm2col:
    @given(conv_inputs())
    @settings(max_examples=200, deadline=None)
    def test_equals_four_view_concatenate_byte_for_byte(self, x):
        before = x.copy()
        cols = kernels._im2col(x)
        ref = _im2col_concat(x)
        assert cols.shape == ref.shape and cols.dtype == ref.dtype
        assert cols.tobytes() == ref.tobytes()
        # a copy, never a view of x, whose rows would overlap at W = 2
        assert not np.shares_memory(cols, x)
        assert np.array_equal(x, before)
