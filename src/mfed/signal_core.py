"""Signal stage: smoothing, PoI detection, and gesture-window extraction.

A PoI (point of interest) is a candidate eating gesture: a strict negative
peak in the smoothed x-axis acceleration that survives close-peak
suppression, sits at or below the acceleration threshold, and shows enough
summed variance across the three axes in the surrounding window. All
operations here are pure functions over immutable inputs.

Sample spacing is nominally 1/rate. Gaps larger than 1.5x the nominal
spacing split a series into segments that are smoothed and scanned
independently; candidate windows never straddle a dropout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Annotated

import numpy as np

from . import kernels
from .errors import ConfigError, WindowOutOfBounds, check_fields, real

MAX_JITTER_FACTOR = 1.5
_DIFF_ROWS = 8192  # at most this many timestamp differences compared at a time


class Label(Enum):
    POSITIVE = "positive"
    AMBIGUOUS = "ambiguous"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class AccelSeries:
    """Timestamped tri-axial accelerometer samples at a nominal rate.

    ``t`` is a strictly increasing float64 vector of seconds; ``xyz`` is the
    matching ``(n, 3)`` float64 matrix in m/s^2, x channel first.
    """

    rate: float
    t: np.ndarray
    xyz: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.t, dtype=np.float64))
        xyz = np.ascontiguousarray(np.asarray(self.xyz, dtype=np.float64))
        if not 0 < real(self.rate) < math.inf:
            raise ConfigError(f"rate must be positive and finite, got {self.rate!r}")
        if xyz.ndim != 2 or xyz.shape[1] != 3 or xyz.shape[0] != t.shape[0]:
            raise ConfigError(f"xyz shape {xyz.shape} does not match {t.shape[0]} timestamps")
        if t.size and (t[0] < 0 or np.any(np.diff(t) <= 0)):
            raise ConfigError("timestamps must be non-negative and strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(xyz))):
            raise ConfigError("samples must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "xyz", xyz)

    def __len__(self) -> int:
        return self.t.shape[0]

    def rows(self, lo: int, hi: int) -> "AccelSeries":
        """Rows ``lo:hi`` as a series sharing this one's arrays. A row slice
        of a valid series is valid, so it is not checked again."""
        return _unchecked(self.rate, self.t[lo:hi], self.xyz[lo:hi])

    @property
    def duration(self) -> float:
        """Nominal duration in seconds (sample count over rate)."""
        return len(self) / self.rate


def _unchecked(rate: float, t: np.ndarray, xyz: np.ndarray) -> AccelSeries:
    """A series of arrays known to be valid, built without checking them."""
    series = object.__new__(AccelSeries)
    for name, value in (("rate", rate), ("t", t), ("xyz", xyz)):
        object.__setattr__(series, name, value)
    return series


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds and window geometry for the PoI detector."""

    x_th: Annotated[float, "[-inf, 0)"] = -3.0  # m/s^2, peaks at or below pass
    v_th: Annotated[float, "[0, inf]"] = 1.0  # (m/s^2)^2, summed variance must exceed
    peak_min_gap: Annotated[float, "(0, inf)"] = 2.0  # s, peaks closer than this are suppressed
    window_len: Annotated[float, "(0, inf)"] = 6.0  # s, variance/extraction window
    smooth_len: Annotated[float, "[0, inf)"] = 1.0  # s, moving-average width (0 disables)
    __post_init__ = check_fields


@dataclass(frozen=True)
class Poi:
    """A surviving candidate peak in the smoothed series."""

    index: int
    t: float
    ax_value: float
    variance_sum: float


@dataclass(frozen=True)
class GestureWindow:
    """The fixed-length sample window around one PoI."""

    poi: Poi
    samples: np.ndarray  # (n, 3), read-only


def window_extent(window_len: float, rate: float) -> tuple[int, int, int]:
    """(rows, rows before the center, rows after) for a window at this rate.

    Even row counts put the extra row after the center.
    """
    n = int(round(window_len * rate))
    left = (n - 1) // 2
    return n, left, n - 1 - left


def smooth_width(smooth_len: float, rate: float) -> int:
    """Moving-average width in samples, rounded to the nearest odd count.
    A width of 1 means no smoothing."""
    w = int(round(smooth_len * rate))
    return w if w % 2 == 1 else w + 1


def split_segments(series: AccelSeries) -> list[tuple[int, int]]:
    """Half-open index ranges of contiguous samples.

    A gap above MAX_JITTER_FACTOR / rate starts a new segment.
    """
    t, n = series.t, len(series)
    if n == 0:
        return []
    bounds = [0]
    for a in range(0, n - 1, _DIFF_ROWS):  # t[a + 1 : b + 1] - t[a : b] is np.diff(t)[a:b]
        b = min(a + _DIFF_ROWS, n - 1)
        gaps = t[a + 1 : b + 1] - t[a:b] > MAX_JITTER_FACTOR / series.rate
        bounds += (np.flatnonzero(gaps) + a + 1).tolist()
    bounds.append(n)
    return list(zip(bounds[:-1], bounds[1:]))


def smooth(series: AccelSeries, smooth_len: float) -> AccelSeries:
    """Centered moving average per channel, truncated at edges.

    Length and timestamps are preserved; smoothing never crosses a dropout
    gap. ``smooth_len=0`` returns the input unchanged. The result shares
    ``t`` with the input, which is valid already, so only the smoothed
    values are checked: they are finite unless a cumsum overflowed, and
    then this raises ConfigError without a numpy warning. The check reads
    only their minimum and maximum, which a NaN or an infinity reaches, so
    it allocates no array the size of the series. Each segment's moving
    average is written into its rows of one output array.
    """
    width = smooth_width(smooth_len, series.rate)
    if width <= 1:
        return series
    out = np.empty_like(series.xyz)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        for lo, hi in split_segments(series):
            kernels.moving_average(series.xyz[lo:hi], width // 2, out[lo:hi])
    if out.size and not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise ConfigError("smoothing overflowed: the smoothed samples are not finite")
    return _unchecked(series.rate, series.t, out)


def detect_pois(series: AccelSeries, cfg: DetectorConfig) -> list[Poi]:
    """Scan a smoothed series for PoIs.

    The caller smooths first; this function only filters. Returned PoIs are
    ordered by time, pairwise at least ``peak_min_gap`` apart, at or below
    ``x_th``, above ``v_th`` in summed window variance, and their windows
    lie fully inside one contiguous segment.
    """
    _, left, right = window_extent(cfg.window_len, series.rate)
    pois: list[Poi] = []
    for lo, hi in split_segments(series):
        idx, var = kernels.poi_scan(
            series.t[lo:hi],
            series.xyz[lo:hi],
            cfg.x_th,
            cfg.v_th,
            cfg.peak_min_gap,
            left,
            right,
        )
        for i, v in zip(idx.tolist(), var.tolist()):
            g = lo + i
            pois.append(Poi(g, float(series.t[g]), float(series.xyz[g, 0]), v))
    return pois


def decision_times(series: AccelSeries, pois, cfg: DetectorConfig) -> list[float]:
    """Each PoI's decision time: the time of the last raw sample that its
    detection and window read.

    That is the later of the window's last row and the row after the last
    row closer than ``peak_min_gap`` to the peak (a lower peak there would
    suppress the PoI, and a peak shows once its next row is in), plus the
    smoothing half-width, kept inside the PoI's segment. Smoothing the
    samples up to it gives the PoI's window bit for bit, since the moving
    average is a sequential cumsum per segment.
    """
    _, _, right = window_extent(cfg.window_len, series.rate)
    half = smooth_width(cfg.smooth_len, series.rate) // 2
    t, n = series.t, len(series)
    i = np.array([poi.index for poi in pois], dtype=np.int64)
    # the scan's own comparison t[j] - t[i] < peak_min_gap picks the close
    # rows; it rises with j, and no row past the rounded t[i] + peak_min_gap
    # passes it, so step back from the last row at or below that sum
    close = np.searchsorted(t, t[i] + cfg.peak_min_gap, side="right") - 1
    while (far := t[close] - t[i] >= cfg.peak_min_gap).any():
        close -= far
    last = np.minimum(np.maximum(i + right, close + 1) + half, n - 1)
    ends = np.array([hi - 1 for _, hi in split_segments(series)], dtype=np.int64)  # each segment's last row
    return t[np.minimum(last, ends[np.searchsorted(ends, i)])].tolist()


def extract_window(series: AccelSeries, poi: Poi, cfg: DetectorConfig) -> GestureWindow:
    """Cut the ``window_len`` x rate sample block centered on a PoI, as a
    read-only view of the series' rows.

    Raises WindowOutOfBounds when the block would extend past either end of
    the series.
    """
    n, left, right = window_extent(cfg.window_len, series.rate)
    lo = poi.index - left
    hi = poi.index + right
    if lo < 0 or hi >= len(series):
        raise WindowOutOfBounds(
            f"window of {n} rows around index {poi.index} exceeds series of {len(series)}"
        )
    samples = series.xyz[lo : hi + 1]
    samples.flags.writeable = False
    return GestureWindow(poi, samples)
