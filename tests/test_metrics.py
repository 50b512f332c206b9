import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import synth
from mfed import classifier
from mfed.metrics import (
    Metrics,
    PoiRateReport,
    SweepRow,
    detect_gesture_times,
    match_gestures,
    poi_rate,
    threshold_sweep,
)
from mfed.signal_core import DetectorConfig, detect_pois, extract_window, smooth


class TestMatchGestures:
    def test_mixed_instance(self):
        m = match_gestures([100.0, 200.0], [101.0, 500.0], tolerance=4.0)
        assert (m.tp, m.fp, m.fn) == (1, 1, 1)
        assert m.f1 == pytest.approx(0.5)

    def test_perfect_detection(self):
        m = match_gestures([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m.precision == m.recall == m.f1 == 1.0

    def test_empty_detected(self):
        m = match_gestures([], [10.0])
        assert (m.tp, m.fp, m.fn) == (0, 0, 1)
        assert m.precision == 0.0
        assert m.f1 == 0.0

    def test_count_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = sorted(rng.uniform(0, 300, size=rng.integers(0, 15)))
            a = sorted(rng.uniform(0, 300, size=rng.integers(0, 15)))
            m = match_gestures(d, a)
            assert m.tp + m.fp == len(d)
            assert m.tp + m.fn == len(a)

    def test_greedy_against_optimal_matching(self):
        # greedy earliest-first should not beat the optimum; divergences are
        # reported rather than hidden
        rng = np.random.default_rng(1)
        divergences = []
        for i in range(300):
            d = sorted(rng.uniform(0, 100, size=rng.integers(0, 10)))
            a = sorted(rng.uniform(0, 100, size=rng.integers(0, 10)))
            tol = float(rng.uniform(0.5, 8.0))
            greedy = match_gestures(d, a, tol).tp
            opt = oracles.optimal_match_count(d, a, tol)
            assert greedy <= opt
            if greedy != opt:
                divergences.append((i, greedy, opt))
        if divergences:
            print(f"greedy/optimal divergences: {divergences}")
        assert len(divergences) == 0


class TestPoiRate:
    def test_ratio_arithmetic(self):
        r = PoiRateReport(3.76)
        assert r.ratio_vs_sliding_3s == pytest.approx(0.188, abs=1e-9)
        assert r.ratio_vs_sliding_100ms == pytest.approx(0.00627, abs=1e-5)

    def test_zero_pois(self):
        rng = np.random.default_rng(2)
        series = synth.noise_trace(rng, duration=60.0)
        r = poi_rate(series, DetectorConfig())
        assert r.pois_per_minute == 0.0
        assert r.ratio_vs_sliding_3s == 0.0
        assert r.ratio_vs_sliding_100ms == 0.0

    def test_four_pois_in_a_minute(self):
        rng = np.random.default_rng(3)
        series = synth.gesture_trace(rng, [10.0, 20.0, 30.0, 40.0], duration=60.0)
        r = poi_rate(series, DetectorConfig())
        assert r.pois_per_minute == pytest.approx(4.0)
        assert r.ratio_vs_sliding_3s == pytest.approx(0.20)
        assert r.ratio_vs_sliding_100ms == pytest.approx(0.00667, abs=1e-5)


class TestThresholdSweep:
    def test_single_cell_matches_direct_path(self):
        rng = np.random.default_rng(4)
        series = synth.gesture_trace(rng, [10.0, 30.0, 50.0], duration=70.0)
        annotations = [10.0, 30.0, 50.0]
        rows = threshold_sweep(series, annotations, [-3.0], [1.0])
        assert len(rows) == 1
        times, n_pois = detect_gesture_times(series, DetectorConfig())
        m = match_gestures(times, annotations)
        assert rows[0].pois_per_min == pytest.approx(n_pois / (series.duration / 60))
        assert rows[0].f1 == pytest.approx(m.f1)

    def test_poi_count_monotone_in_x_th(self):
        rng = np.random.default_rng(5)
        series = synth.random_rough_trace(rng, rate=25.0, min_len=2000, max_len=2001)
        rows = threshold_sweep(series, [], [-1.0, -2.0, -3.0, -4.0, -5.0], [1.0])
        counts = [r.pois_per_min for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_zero_variance_threshold_dominates(self):
        rng = np.random.default_rng(6)
        series = synth.random_rough_trace(rng, rate=25.0, min_len=2000, max_len=2001)
        rows = threshold_sweep(series, [], [-3.0], [0.0, 1.0])
        assert rows[0].pois_per_min >= rows[1].pois_per_min

    def test_full_cross_product(self):
        rng = np.random.default_rng(7)
        series = synth.gesture_trace(rng, [10.0], duration=30.0)
        rows = threshold_sweep(series, [10.0], [-1.0, -3.0], [0.0, 1.0, 2.0])
        assert [(r.x_th, r.v_th) for r in rows] == [
            (-1.0, 0.0), (-1.0, 1.0), (-1.0, 2.0), (-3.0, 0.0), (-3.0, 1.0), (-3.0, 2.0),
        ]

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_equal_per_pair_detection(self, data):
        series, annotations = _sweep_trace(data)
        x_th_list = data.draw(st.lists(st.sampled_from([-1.0, -2.0, -3.0, -4.0, -6.0]), min_size=1, max_size=4))
        v_th_list = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]), min_size=1, max_size=3))
        weights = None
        if data.draw(st.booleans(), label="weights"):
            weights = _split_weights(series, data.draw(st.integers(0, 2**16), label="weights seed"))
        tolerance = data.draw(st.sampled_from([1.0, 4.0]), label="tolerance")
        rows = threshold_sweep(series, annotations, x_th_list, v_th_list, weights, tolerance)
        assert rows == _sweep_per_pair(series, annotations, x_th_list, v_th_list, weights, tolerance)

    def test_each_distinct_window_classified_once(self, monkeypatch):
        rng = np.random.default_rng(10)
        series = synth.random_rough_trace(rng, rate=25.0, min_len=2000, max_len=2001)
        weights = _split_weights(series, 0)
        x_th_list, v_th_list = [-1.0, -2.0, -3.0], [0.0, 1.0]
        smoothed = smooth(series, DetectorConfig().smooth_len)
        per_pair = [[p.index for p in detect_pois(smoothed, DetectorConfig(x_th=x, v_th=v))]
                    for x in x_th_list for v in v_th_list]
        calls = []
        probabilities = classifier.probabilities

        def counting_probabilities(w, windows):
            calls.append([window.poi.index for window in windows])
            return probabilities(w, windows)

        monkeypatch.setattr(classifier, "probabilities", counting_probabilities)
        threshold_sweep(series, [], x_th_list, v_th_list, weights)
        assert len(calls) == 1
        seen = calls[0]
        assert seen == sorted({i for pois in per_pair for i in pois})
        assert len(seen) < sum(map(len, per_pair))

    def test_empty_lists_rejected(self):
        rng = np.random.default_rng(8)
        series = synth.noise_trace(rng, duration=10.0)
        with pytest.raises(ValueError):
            threshold_sweep(series, [], [], [1.0])


def _sweep_trace(data):
    """A drawn trace and sorted annotation times: planted gestures on noise,
    or a jagged trace whose peaks fall on both sides of every threshold."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="trace seed"))
    if data.draw(st.booleans(), label="rough"):
        series = synth.random_rough_trace(rng, rate=25.0, min_len=750, max_len=2250)
        times = data.draw(st.lists(st.floats(0.0, series.duration), max_size=10), label="annotations")
        return series, sorted(times)
    gestures = data.draw(st.lists(st.floats(8.0, 72.0), max_size=6), label="gestures")
    depth = data.draw(st.floats(1.5, 8.0), label="depth")
    return synth.gesture_trace(rng, gestures, duration=80.0, depth=depth), sorted(gestures)


def _split_weights(series, seed):
    """``init_weights`` with the output bias set so that about half the PoI
    windows of the loosest swept cell (x_th -1, v_th 0) are accepted."""
    weights = classifier.init_weights(150, 25.0, np.random.default_rng(seed))
    smoothed = smooth(series, DetectorConfig().smooth_len)
    cfg = DetectorConfig(x_th=-1.0, v_th=0.0)
    probs = [classifier.forward(weights, extract_window(smoothed, p, cfg)) for p in detect_pois(smoothed, cfg)]
    if probs:
        weights.out_b[...] = -float(np.median([math.log(p / (1.0 - p)) for p in probs]))
    return weights


def _sweep_per_pair(series, annotations, x_th_list, v_th_list, weights, tolerance):
    """The sweep as one detection per (x_th, v_th) pair."""
    minutes = series.duration / 60.0
    rows = []
    for x_th in x_th_list:
        for v_th in v_th_list:
            times, n_pois = detect_gesture_times(series, DetectorConfig(x_th=x_th, v_th=v_th), weights)
            m = match_gestures(times, annotations, tolerance)
            rows.append(SweepRow(x_th, v_th, n_pois / minutes, m.precision, m.recall, m.f1))
    return rows


def test_ratios_are_pure_arithmetic():
    rng = np.random.default_rng(9)
    for ppm in rng.uniform(0.0, 50.0, size=200):
        r = PoiRateReport(float(ppm))
        assert r.ratio_vs_sliding_3s == ppm / 20.0
        assert r.ratio_vs_sliding_100ms == ppm / 600.0


def test_metrics_conventions():
    assert Metrics(0, 0, 0).precision == 0.0
    assert Metrics(0, 0, 0).recall == 0.0
    assert Metrics(0, 0, 0).f1 == 0.0
    m = Metrics(3, 1, 2)
    assert m.precision == pytest.approx(0.75)
    assert m.recall == pytest.approx(0.6)
    assert m.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
