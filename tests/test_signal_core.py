import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import synth
from mfed import kernels, signal_core
from mfed.errors import ConfigError, WindowOutOfBounds
from mfed.signal_core import (
    MAX_JITTER_FACTOR,
    AccelSeries,
    DetectorConfig,
    Poi,
    decision_times,
    detect_pois,
    extract_window,
    smooth,
    smooth_width,
    split_segments,
    window_extent,
)


def constant_series(value=-9.81, n=1500, rate=25.0):
    t = np.arange(n) / rate
    xyz = np.full((n, 3), value)
    return AccelSeries(rate, t, xyz)


class TestSmooth:
    def test_constant_series_unchanged(self):
        s = constant_series()
        out = smooth(s, 1.0)
        assert np.allclose(out.xyz, s.xyz, atol=1e-12)
        assert np.array_equal(out.t, s.t)

    def test_zero_length_is_identity(self):
        s = constant_series()
        assert smooth(s, 0.0) is s

    def test_impulse_spreads_over_window(self):
        n, rate, k = 100, 25.0, 50
        xyz = np.zeros((n, 3))
        xyz[k, 0] = 1.0
        s = AccelSeries(rate, np.arange(n) / rate, xyz)
        out = smooth(s, 1.0)  # 25-sample window
        expected = np.zeros(n)
        expected[k - 12 : k + 13] = 1.0 / 25.0
        assert np.allclose(out.xyz[:, 0], expected, atol=1e-12)

    def test_empty_series(self):
        s = AccelSeries(25.0, np.empty(0), np.empty((0, 3)))
        assert len(smooth(s, 1.0)) == 0

    def test_preserves_length_and_timestamps(self):
        rng = np.random.default_rng(5)
        s = synth.random_rough_trace(rng)
        out = smooth(s, 1.0)
        assert len(out) == len(s)
        assert np.array_equal(out.t, s.t)

    def test_shares_timestamps_with_its_input(self):
        s = constant_series()
        assert np.shares_memory(smooth(s, 1.0).t, s.t)

    def test_segments_equal_their_own_moving_averages(self):
        # segments of 40, 5 (shorter than the 25-row window) and 60 rows
        rng = np.random.default_rng(7)
        t = np.concatenate([np.arange(40), 50 + np.arange(5), 60 + np.arange(60)]) / 25.0
        s = AccelSeries(25.0, t, rng.normal(size=(t.shape[0], 3)))
        segments = split_segments(s)
        assert segments == [(0, 40), (40, 45), (45, 105)]
        expected = np.concatenate(
            [kernels.moving_average(s.xyz[lo:hi], 12, np.empty((hi - lo, 3))) for lo, hi in segments]
        )
        assert smooth(s, 1.0).xyz.tobytes() == expected.tobytes()

    @given(
        lengths=st.lists(st.integers(1, 60), min_size=1, max_size=4),
        smooth_len=st.sampled_from([0.0, 0.2, 1.0, 5.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_in_place_equals_a_new_array(self, lengths, smooth_len, seed):
        # segments of the drawn lengths between dropouts, some shorter than
        # the window
        t = np.concatenate([10.0 * k + np.arange(n) / 25.0 for k, n in enumerate(lengths)])
        xyz = np.random.default_rng(seed).normal(size=(t.shape[0], 3))
        xyz[xyz < -1.5] = -0.0
        s = AccelSeries(25.0, t, xyz)
        expected = smooth(s, smooth_len).xyz.copy()
        out = smooth(s, smooth_len, out=s.xyz)
        assert out.xyz is s.xyz and out.t is s.t
        assert out.xyz.tobytes() == expected.tobytes()

    def test_allocates_little_beyond_its_result(self):
        # a whole-trace cumsum or timestamp diff would add 24 or 8 bytes a row
        n = 120_000
        s = AccelSeries(25.0, np.arange(n) / 25.0, np.random.default_rng(3).normal(size=(n, 3)))
        tracemalloc.start()
        try:
            out = smooth(s, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert split_segments(s) == [(0, n)]
        assert peak - out.xyz.nbytes <= 1 << 20

    @pytest.mark.parametrize("gap", [False, True], ids=["one-segment", "two-segments"])
    def test_overflowing_cumsum_raises(self, gap):
        t = np.arange(100) / 25.0 + np.where(np.arange(100) >= 50, 10.0 * gap, 0.0)
        s = AccelSeries(25.0, t, np.full((100, 3), 1e308))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConfigError, match="finite"):
            smooth(s, 1.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_beside_finite_samples_raises(self, sign):
        # a 5-row segment whose sums overflow to one infinity, then finite rows:
        # the smoothed values hold that infinity and no NaN
        t = np.concatenate([np.arange(5), 10 + np.arange(50)]) / 25.0
        xyz = np.concatenate([np.full((5, 3), sign * 1e308), np.ones((50, 3))])
        with np.errstate(over="ignore"), pytest.raises(ConfigError, match="finite"):
            smooth(AccelSeries(25.0, t, xyz), 1.0)


def _split_segments_diff(series):
    """The rule of ``split_segments`` on one whole ``np.diff`` of the timestamps."""
    n = len(series)
    if n == 0:
        return []
    cut = np.flatnonzero(np.diff(series.t) > MAX_JITTER_FACTOR / series.rate) + 1
    bounds = [0, *cut.tolist(), n]
    return list(zip(bounds[:-1], bounds[1:]))


DIFF_ROWS = signal_core._DIFF_ROWS


class TestSplitSegments:
    @staticmethod
    def _series(n, gaps, rate=25.0):
        """n rows at ``rate``; row i of ``gaps`` starts ``gaps[i]`` after row
        i - 1: a gap of "above" is the smallest float difference that splits,
        "below" the largest that does not."""
        limit = MAX_JITTER_FACTOR / rate
        t = np.empty(n)
        t[0] = 0.0
        for i in range(1, n):
            t[i] = t[i - 1] + 1.0 / rate
            kind = gaps.get(i)
            if kind is None:
                continue
            t[i] = t[i - 1] + limit
            while t[i] - t[i - 1] <= limit:
                t[i] = np.nextafter(t[i], np.inf)
            if kind == "below":
                while t[i] - t[i - 1] > limit:
                    t[i] = np.nextafter(t[i], -np.inf)
        return AccelSeries(rate, t, np.zeros((n, 3)))

    @pytest.mark.parametrize("kind", ["above", "below"])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_gap_at_the_threshold_around_a_slice_boundary(self, kind, offset):
        row = DIFF_ROWS + offset  # row DIFF_ROWS's difference is the first of the second slice
        s = self._series(3 * DIFF_ROWS, {row: kind, 5: kind, 2 * DIFF_ROWS: kind})
        limit = MAX_JITTER_FACTOR / s.rate
        assert (s.t[row] - s.t[row - 1] > limit) == (kind == "above")
        segments = split_segments(s)
        assert segments == _split_segments_diff(s)
        assert len(segments) == (4 if kind == "above" else 1)

    @given(
        n=st.integers(0, 3 * DIFF_ROWS),
        gaps=st.dictionaries(st.integers(1, 3 * DIFF_ROWS), st.sampled_from(["above", "below"]), max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_equals_one_whole_diff(self, n, gaps):
        s = self._series(n, gaps) if n else AccelSeries(25.0, np.empty(0), np.empty((0, 3)))
        assert split_segments(s) == _split_segments_diff(s)


class TestDetectPois:
    def test_constant_series_has_no_peaks(self):
        assert detect_pois(constant_series(), DetectorConfig()) == []

    def test_single_planted_dip(self):
        rng = np.random.default_rng(0)
        s = synth.gesture_trace(rng, [30.0], duration=60.0)
        cfg = DetectorConfig()
        smoothed = smooth(s, cfg.smooth_len)
        pois = detect_pois(smoothed, cfg)
        assert len(pois) == 1
        assert pois[0].t == pytest.approx(30.0, abs=0.5)
        assert pois[0].ax_value <= cfg.x_th
        assert pois[0].variance_sum > cfg.v_th
        assert pois[0].index == int(np.argmin(smoothed.xyz[:, 0]))

    def test_close_dips_keep_more_negative(self):
        rng = np.random.default_rng(1)
        s = synth.noise_trace(rng, duration=60.0, sigma=0.01, base=(0, 0, 0))
        synth.plant_gesture(s, 10.0, depth=4.0, width_s=0.3)
        synth.plant_gesture(s, 11.0, depth=5.0, width_s=0.3)
        cfg = DetectorConfig()
        pois = detect_pois(smooth(s, cfg.smooth_len), cfg)
        assert len(pois) == 1
        assert pois[0].t == pytest.approx(11.0, abs=0.5)

    def test_variance_overflow_raises_without_warnings(self):
        # signs flip every row: strict negative peaks 2 s apart after suppression,
        # and a summed window variance of 3 * scale**2, which overflows at 1e200
        def series(scale):
            xyz = np.where(np.arange(500)[:, None] % 2 == 0, -scale, scale) * np.ones(3)
            return AccelSeries(25.0, np.arange(500) / 25.0, xyz)

        cfg = DetectorConfig(smooth_len=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(detect_pois(series(1e100), cfg)) > 0
            with pytest.raises(ConfigError, match="PoI window variance overflowed"):
                detect_pois(series(1e200), cfg)

    def test_shipped_defaults(self):
        cfg = DetectorConfig()
        assert cfg.x_th == -3.0
        assert cfg.v_th == 1.0
        assert cfg.peak_min_gap == 2.0
        assert cfg.window_len == 6.0

    @pytest.mark.parametrize(
        "bad", [{"x_th": 1.0}, {"v_th": -0.5}, {"peak_min_gap": 0.0}, {"window_len": -1.0}]
    )
    def test_config_validation(self, bad):
        with pytest.raises(ConfigError):
            DetectorConfig(**bad)

    def test_matches_oracle_on_random_traces(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = synth.random_rough_trace(rng)
            cfg = DetectorConfig(
                x_th=float(rng.uniform(-4.0, -1.0)), v_th=float(rng.uniform(0.0, 2.0))
            )
            got = [p.index for p in detect_pois(s, cfg)]
            assert got == oracles.poi_oracle(s, cfg)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_scan_matches_oracle_with_peaks_beside_a_gather_block_edge(self, data):
        # the scan may look for peaks a block of _GATHER_ROWS rows at a time
        b = kernels._GATHER_ROWS
        edge = b * data.draw(st.integers(1, 2), label="edge")
        n = edge + data.draw(st.integers(5, 60), label="rows past the edge")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        xyz = rng.normal(0.0, 0.5, (n, 3))
        # dips on every other row from 4 before the edge to 4 after it, each a
        # strict peak, or on every row, where only deeper dips than both
        # neighbours are
        first, step = data.draw(st.sampled_from([(-4, 2), (-3, 2), (-4, 1)]), label="rows")
        for d in range(first, 5, step):
            xyz[edge + d, 0] = data.draw(st.sampled_from([-5.0, -4.0, -3.0, -2.5]), label="dip")
        series = AccelSeries(25.0, np.arange(n) / 25.0, xyz)
        cfg = DetectorConfig(
            x_th=data.draw(st.sampled_from([-4.0, -3.0, -1.0]), label="x_th"),
            v_th=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="v_th"),
            peak_min_gap=data.draw(st.sampled_from([0.01, 0.1, 2.0]), label="min_gap"),
            window_len=data.draw(st.sampled_from([0.2, 1.0]), label="window_len"),
        )
        _, left, right = window_extent(cfg.window_len, series.rate)
        idx, _ = kernels.poi_scan(series.t, series.xyz, cfg.x_th, cfg.v_th, cfg.peak_min_gap, left, right)
        assert idx.tolist() == oracles.poi_oracle(series, cfg)

    def test_poi_invariants_hold(self):
        rng = np.random.default_rng(7)
        cfg = DetectorConfig()
        for _ in range(50):
            s = synth.random_rough_trace(rng)
            pois = detect_pois(s, cfg)
            for a, b in zip(pois, pois[1:]):
                assert b.t - a.t >= cfg.peak_min_gap
            for p in pois:
                assert p.ax_value <= cfg.x_th
                assert p.variance_sum > cfg.v_th

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = synth.random_rough_trace(rng)
            counts = [
                len(detect_pois(s, DetectorConfig(x_th=x))) for x in (-1, -2, -3, -4, -5)
            ]
            assert counts == sorted(counts, reverse=True)
            counts_v = [len(detect_pois(s, DetectorConfig(v_th=v))) for v in (0, 1, 2, 3)]
            assert counts_v == sorted(counts_v, reverse=True)

    def test_dropout_splits_processing(self):
        # gesture windows may not straddle a 3 s dropout
        rng = np.random.default_rng(3)
        s = synth.gesture_trace(rng, [30.0], duration=60.0)
        keep = (s.t < 31.0) | (s.t > 34.0)
        gappy = AccelSeries(s.rate, s.t[keep], s.xyz[keep])
        cfg = DetectorConfig()
        pois = detect_pois(smooth(gappy, cfg.smooth_len), cfg)
        # the dip sits 1 s before the gap: its 6 s window no longer fits
        assert pois == []
        segs = split_segments(gappy)
        assert len(segs) == 2


@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(-10, 0)), min_size=0, max_size=30
    ).map(lambda pts: sorted(set(pts)))
)
@settings(max_examples=200, deadline=None)
def test_suppression_idempotent(points):
    # suppression over an already-suppressed list changes nothing
    times = [p[0] for p in points]
    xs = [p[1] for p in points]
    idx = list(range(len(points)))
    once = oracles.suppress(times, xs, idx, 2.0)
    again = oracles.suppress(times, xs, once, 2.0)
    assert once == again


class TestExtractWindow:
    def test_row_count_at_25hz(self):
        rng = np.random.default_rng(0)
        s = synth.gesture_trace(rng, [30.0], duration=60.0)
        cfg = DetectorConfig()
        smoothed = smooth(s, cfg.smooth_len)
        poi = detect_pois(smoothed, cfg)[0]
        win = extract_window(smoothed, poi, cfg)
        assert win.samples.shape == (150, 3)

    def test_out_of_bounds_near_start(self):
        s = constant_series(n=1500)
        poi = Poi(index=25, t=1.0, ax_value=-5.0, variance_sum=2.0)
        with pytest.raises(WindowOutOfBounds):
            extract_window(s, poi, DetectorConfig())

    def test_constant_rows_for_zero_motion(self):
        s = constant_series(value=-4.0, n=1500)
        poi = Poi(index=750, t=30.0, ax_value=-4.0, variance_sum=0.0)
        win = extract_window(s, poi, DetectorConfig())
        assert np.all(win.samples == -4.0)

    def test_read_only_view_of_the_series(self):
        s = constant_series(value=-4.0, n=1500)
        poi = Poi(index=750, t=30.0, ax_value=-4.0, variance_sum=0.0)
        win = extract_window(s, poi, DetectorConfig())
        assert np.shares_memory(win.samples, s.xyz)
        with pytest.raises(ValueError):
            win.samples[0, 0] = 0.0
        assert s.xyz.flags.writeable

    def test_window_extent_split(self):
        n, left, right = window_extent(6.0, 25.0)
        assert (n, left, right) == (150, 74, 75)
        n, left, right = window_extent(6.0, 24.5)  # odd count splits evenly
        assert (n, left, right) == (147, 73, 73)


class TestAccelSeries:
    def test_rejects_nonmonotonic_t(self):
        with pytest.raises(ConfigError):
            AccelSeries(25.0, np.array([0.0, 0.0]), np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigError):
            AccelSeries(25.0, np.array([0.0, 0.04]), np.array([[0, 0, np.inf], [0, 0, 0]]))

    @pytest.mark.parametrize(
        "rate, t, xyz",
        [
            (0.0, [0.0, 0.04], np.zeros((2, 3))),
            (np.inf, [0.0, 0.04], np.zeros((2, 3))),
            ("25", [0.0, 0.04], np.zeros((2, 3))),
            (25.0, [-0.04, 0.0], np.zeros((2, 3))),
            (25.0, [0.0, np.nan], np.zeros((2, 3))),
            (25.0, [0.04, 0.0], np.zeros((2, 3))),
            (25.0, [0.0, 0.04], np.zeros((2, 2))),
            (25.0, [0.0, 0.04], np.zeros((3, 3))),
            (25.0, [0.0, 0.04], [[0.0, 0.0, np.nan], [0.0, 0.0, 0.0]]),
        ],
    )
    def test_rejects_bad_input(self, rate, t, xyz):
        with pytest.raises(ConfigError):
            AccelSeries(rate, t, xyz)

    def test_stores_contiguous_float64_arrays(self):
        s = AccelSeries(25, [0, 1, 2], np.arange(18.0).reshape(3, 6)[:, ::2])
        for a in (s.t, s.xyz):
            assert a.dtype == np.float64 and a.flags.c_contiguous

    def test_rows_are_a_slice_sharing_the_arrays(self):
        s = synth.random_rough_trace(np.random.default_rng(2))
        part = s.rows(3, 40)
        assert type(part) is AccelSeries and part.rate == s.rate
        assert part.t.tobytes() == s.t[3:40].tobytes() and part.xyz.tobytes() == s.xyz[3:40].tobytes()
        assert np.shares_memory(part.t, s.t) and np.shares_memory(part.xyz, s.xyz)
        assert part.t.flags.c_contiguous and part.xyz.flags.c_contiguous


def _decision_time(series, poi, cfg):
    """The per-PoI rule that ``decision_times`` computes in bulk."""
    _, _, right = window_extent(cfg.window_len, series.rate)
    half = smooth_width(cfg.smooth_len, series.rate) // 2
    t, i = series.t, poi.index
    stop = int(np.searchsorted(t, t[i] + cfg.peak_min_gap, side="right")) + 1
    close = i + int(np.flatnonzero(t[i:stop] - t[i] < cfg.peak_min_gap)[-1])
    last = min(max(i + right, close + 1) + half, len(t) - 1)
    gaps = np.flatnonzero(np.diff(t[i : last + 1]) > MAX_JITTER_FACTOR / series.rate)
    return float(t[i + int(gaps[0]) if gaps.size else last])


@st.composite
def decision_cases(draw):
    """A gappy 25 Hz series, a detector config and PoIs at any of its rows."""
    n = draw(st.integers(1, 120), label="n")
    # 0.04 s spacing, jitter below the 0.06 s gap cut, and dropouts above it
    steps = draw(hnp.arrays(np.float64, (n,), elements=st.sampled_from([0.04, 0.04, 0.04, 0.05, 0.08, 0.5, 3.0])),
                 label="steps")
    offset = draw(st.sampled_from([0.0, 0.1, 1000.1]) | st.floats(0.0, 1e5), label="offset")
    t = offset + np.cumsum(steps) - steps[0]
    cfg = DetectorConfig(
        peak_min_gap=draw(st.sampled_from([0.04, 0.12, 2.0]) | st.floats(0.01, 5.0), label="gap"),
        window_len=draw(st.sampled_from([0.2, 1.0, 6.0]), label="window_len"),
        smooth_len=draw(st.sampled_from([0.0, 0.2, 1.0]), label="smooth_len"),
    )
    rows = draw(st.lists(st.integers(0, n - 1), max_size=20), label="rows")
    series = AccelSeries(25.0, t, np.zeros((n, 3)))
    return series, cfg, [Poi(i, float(t[i]), 0.0, 0.0) for i in rows]


class TestDecisionTimes:
    @given(decision_cases())
    @settings(max_examples=300, deadline=None)
    # rows exactly peak_min_gap apart, which t[j] - t[i] may round either way
    @example((AccelSeries(25.0, 0.1 + np.arange(80) * 0.04, np.zeros((80, 3))), DetectorConfig(peak_min_gap=0.12),
              [Poi(i, 0.1 + i * 0.04, 0.0, 0.0) for i in range(80)]))
    def test_equals_the_per_poi_rule(self, case):
        series, cfg, pois = case
        assert decision_times(series, pois, cfg) == [_decision_time(series, p, cfg) for p in pois]

    def test_on_a_detected_trace(self):
        s = synth.gesture_trace(np.random.default_rng(0), [20.0, 40.0, 60.0], duration=90.0)
        cfg = DetectorConfig()
        pois = detect_pois(smooth(s, cfg.smooth_len), cfg)
        assert pois and decision_times(s, pois, cfg) == [_decision_time(s, p, cfg) for p in pois]
