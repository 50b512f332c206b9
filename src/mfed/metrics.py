"""Evaluation harness: gesture matching, PoI rates, and threshold sweeps."""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import classifier as _classifier
from .errors import ConfigError, InsufficientData, real
from .signal_core import AccelSeries, DetectorConfig, detect_pois, smooth


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def match_gestures(detected, annotations, tolerance: float = 4.0) -> Metrics:
    """Greedy earliest-first one-to-one matching within +-tolerance.

    Both inputs must be sorted. Every detection matches at most one
    annotation and vice versa, so tp+fp = len(detected) and
    tp+fn = len(annotations).
    """
    if not 0 <= real(tolerance) < math.inf:
        raise ConfigError(f"tolerance must be non-negative and finite, got {tolerance!r}")
    i = j = tp = 0
    while i < len(detected) and j < len(annotations):
        if abs(detected[i] - annotations[j]) <= tolerance:
            tp += 1
            i += 1
            j += 1
        elif detected[i] < annotations[j]:
            i += 1
        else:
            j += 1
    return Metrics(tp, len(detected) - tp, len(annotations) - tp)


def _require_samples(series: AccelSeries):
    if len(series) == 0:
        raise InsufficientData("the trace holds no samples")


@dataclass(frozen=True)
class PoiRateReport:
    pois_per_minute: float

    @property
    def ratio_vs_sliding_3s(self) -> float:
        """Against a 6 s window / 3 s step segmentation (20 segments/min)."""
        return self.pois_per_minute / 20.0

    @property
    def ratio_vs_sliding_100ms(self) -> float:
        """Against a 100 ms step segmentation (600 segments/min)."""
        return self.pois_per_minute / 600.0


def poi_rate(series: AccelSeries, cfg: DetectorConfig) -> PoiRateReport:
    """PoIs per minute on the raw series (smoothing applied here)."""
    _require_samples(series)
    pois = detect_pois(smooth(series, cfg.smooth_len), cfg)
    return PoiRateReport(len(pois) / (series.duration / 60.0))


@dataclass(frozen=True)
class SweepRow:
    x_th: float
    v_th: float
    pois_per_min: float
    precision: float
    recall: float
    f1: float


def _gesture_times(series: AccelSeries, cfgs: list[DetectorConfig], weights) -> list[tuple[list[float], int]]:
    """``detect_gesture_times`` for each of ``cfgs``, which differ only in
    their thresholds: a PoI's window depends on its index alone, so the
    series is smoothed once and each distinct PoI classified once."""
    smoothed = smooth(series, cfgs[0].smooth_len)
    found = [detect_pois(smoothed, c) for c in cfgs]
    distinct = sorted({poi.index: poi for pois in found for poi in pois}.values(), key=lambda poi: poi.index)
    accepted = {poi.index for poi, _ in _classifier.gestures(weights, smoothed, distinct, cfgs[0])}
    return [([poi.t for poi in pois if poi.index in accepted], len(pois)) for pois in found]


def detect_gesture_times(series: AccelSeries, cfg: DetectorConfig, weights=None) -> tuple[list[float], int]:
    """(classified gesture times, PoI count) for one raw series.

    Without weights every PoI counts as a gesture (threshold-only mode).
    """
    return _gesture_times(series, [cfg], weights)[0]


def threshold_sweep(
    series: AccelSeries,
    annotations,
    x_th_list,
    v_th_list,
    weights=None,
    tolerance: float = 4.0,
) -> list[SweepRow]:
    """Full cross product of thresholds over the default detector; one row
    per (x_th, v_th). The trace is smoothed once, and each distinct PoI
    window is classified once."""
    if not x_th_list or not v_th_list:
        raise ValueError("threshold lists must be non-empty")
    _require_samples(series)
    minutes = series.duration / 60.0
    cfgs = [DetectorConfig(x_th=x_th, v_th=v_th) for x_th in x_th_list for v_th in v_th_list]
    rows = []
    for c, (times, n_pois) in zip(cfgs, _gesture_times(series, cfgs, weights)):
        m = match_gestures(times, annotations, tolerance)
        rows.append(SweepRow(c.x_th, c.v_th, n_pois / minutes, m.precision, m.recall, m.f1))
    return rows
