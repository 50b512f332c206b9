import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfed.errors import ClockRegression, ConfigError
from mfed.signal_core import AccelSeries
from mfed.watch import (
    DutyCycleConfig,
    Upload,
    UploadPolicy,
    WatchState,
    flush,
    on_poi,
    on_tick,
)

POLICY = UploadPolicy()


def series(duration=600.0, rate=25.0):
    n = int(duration * rate)
    return AccelSeries(rate, np.arange(n) / rate, np.zeros((n, 3)))


class TestOnPoi:
    def test_quorum_uploads(self):
        state = WatchState(series())
        results = [on_poi(state, t, POLICY, t) for t in (0.0, 30.0, 60.0, 90.0)]
        assert results[:3] == [None, None, None]
        assert isinstance(results[3], Upload)
        assert results[3].payload.span == (0.0, 90.0)
        assert state.last_upload_t == 90.0
        assert state.unsent_pois == []

    def test_below_quorum_no_action(self):
        state = WatchState(series())
        assert all(on_poi(state, t, POLICY, t) is None for t in (0.0, 30.0, 60.0))

    def test_quorum_window_evicts_old_pois(self):
        state = WatchState(series())
        for t in (0.0, 30.0, 60.0):
            on_poi(state, t, POLICY, t)
        # 4th PoI at 130: the t=0 entry has left the 120 s window
        assert on_poi(state, 130.0, POLICY, 130.0) is None
        assert isinstance(on_poi(state, 140.0, POLICY, 140.0), Upload)

    def test_cooldown_defers_upload_to_tick(self):
        state = WatchState(series())
        for t in (0.0, 30.0, 60.0, 90.0):
            on_poi(state, t, POLICY, t)
        for t in (100.0, 105.0, 110.0, 115.0):
            assert on_poi(state, t, POLICY, t) is None
        assert state.upload_due == 150.0
        assert on_tick(state, 149.9) is None
        upload = on_tick(state, 150.0)
        assert isinstance(upload, Upload)
        assert upload.payload.span == (90.0, 150.0)

    def test_tick_at_scheduled_time_ends_cooldown(self):
        # the simulator ticks at last_upload_t + min_upload_gap; here
        # (44.04 + 43.0) - 44.04 < 43.0 in floating point
        policy = UploadPolicy(quorum=1, quorum_window=10.0, min_upload_gap=43.0)
        state = WatchState(series())
        assert on_poi(state, 44.04, policy, 44.04) is not None
        assert on_poi(state, 50.0, policy, 50.0) is None and state.upload_due == 44.04 + 43.0
        assert isinstance(on_tick(state, 44.04 + 43.0), Upload)

    def test_clock_regression(self):
        state = WatchState(series())
        on_poi(state, 10.0, POLICY, 10.0)
        with pytest.raises(ClockRegression):
            on_poi(state, 5.0, POLICY, 5.0)

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            on_poi(WatchState(series()), 0.0, UploadPolicy(quorum=0), 0.0)


class TestOnTick:
    def test_duty_cycle_schedule(self):
        # a battery sample ships with the first upload at or after its time
        state = WatchState(series(), duty=DutyCycleConfig())
        policy = UploadPolicy(quorum=1, min_upload_gap=0.0)
        shipped = [on_poi(state, t, policy, t).payload.battery_samples for t in (0.0, 100.0, 250.0)]
        shipped.append(flush(state, 300.0).payload.battery_samples)
        # 1.5 percentage points an hour from a full battery
        assert shipped == [
            ((0.0, 100.0),), (), ((120.0, pytest.approx(99.95)), (240.0, pytest.approx(99.9))), ()
        ]

    def test_duty_validation(self):
        with pytest.raises(ConfigError):
            WatchState(series(), duty=DutyCycleConfig(battery_interval=0.0))

    def test_disabled_duty_is_silent(self):
        state = WatchState(series(duration=0.0))
        assert on_tick(state, 100.0) is None
        assert flush(state, 100.0) is None


class TestPayloadConservation:
    def test_spans_partition_series(self):
        rng = np.random.default_rng(0)
        src = series(duration=1200.0)
        state = WatchState(src)
        payloads = []
        t = 0.0
        for _ in range(200):
            t += float(rng.uniform(1.0, 40.0))
            if t > 1100.0:
                break
            result = on_poi(state, t, POLICY, t)
            if result is not None:
                payloads.append(result.payload)
            result = on_tick(state, t)
            if result is not None:
                payloads.append(result.payload)
        final = flush(state, 1200.0)
        if final is not None:
            payloads.append(final.payload)
        total = sum(len(p.accel) for p in payloads)
        assert total == len(src)
        joined = np.concatenate([p.accel.t for p in payloads if len(p.accel)])
        assert np.array_equal(joined, src.t)

    def test_uploads_hold_exactly_the_series_rows(self):
        rng = np.random.default_rng(3)
        n = 20000
        t = np.cumsum(rng.choice([0.04, 0.04, 0.05, 3.0], size=n))
        src = AccelSeries(25.0, t, rng.normal(size=(n, 3)))
        state = WatchState(src)
        payloads = []
        now = 0.0
        while now < t[-1] - 50.0:
            now += float(rng.uniform(1.0, 40.0))
            for result in (on_poi(state, now, POLICY, now), on_tick(state, now)):
                if result is not None:
                    payloads.append(result.payload)
        payloads.append(flush(state, float(t[-1])).payload)
        assert len(payloads) > 5
        for i, p in enumerate(payloads):
            rows = (t <= p.span[1]) & ((t > p.span[0]) if i else True)
            assert type(p.accel) is AccelSeries and p.accel.rate == src.rate
            assert p.accel.t.tobytes() == t[rows].tobytes()
            assert p.accel.xyz.tobytes() == src.xyz[rows].tobytes()
            assert p.accel.t.flags.c_contiguous and p.accel.xyz.flags.c_contiguous

    def test_min_gap_between_uploads(self):
        rng = np.random.default_rng(1)
        state = WatchState(series(duration=3000.0))
        upload_times = []
        t = 0.0
        for _ in range(400):
            t += float(rng.uniform(0.5, 30.0))
            result = on_poi(state, t, POLICY, t)
            if result is not None:
                upload_times.append(t)
            if on_tick(state, t) is not None:
                upload_times.append(t)
        gaps = np.diff(upload_times)
        assert np.all(gaps >= POLICY.min_upload_gap)

    def test_quorum_streams_eventually_upload(self):
        state = WatchState(series())
        uploads = []
        for t in (0.0, 10.0, 20.0, 30.0):
            r = on_poi(state, t, POLICY, t)
            if r:
                uploads.append(r)
        assert len(uploads) == 1

    def test_quorum_liveness_under_cooldown(self):
        # any stream with a quorum-dense burst uploads within one cooldown
        rng = np.random.default_rng(7)
        for _ in range(30):
            state = WatchState(series(duration=4000.0))
            t = 0.0
            uploads = 0
            burst_at = None
            for _ in range(60):
                t += float(rng.uniform(5.0, 200.0))
                if on_poi(state, t, POLICY, t) is not None:
                    uploads += 1
                if state.upload_due == state.last_upload_t + POLICY.min_upload_gap and burst_at is None:
                    burst_at = t
            if burst_at is not None:
                uploads += isinstance(on_tick(state, burst_at + POLICY.min_upload_gap), Upload)
                assert uploads >= 1

    def test_beacon_records_ride_next_upload(self):
        state = WatchState(series())
        state.pending_beacons.append((2.0, "kitchen", -61.5))
        for t in (10.0, 20.0, 30.0, 40.0):
            result = on_poi(state, t, POLICY, t)
        assert result.payload.beacon_readings == ((2.0, "kitchen", -61.5),)
        assert state.pending_beacons == []

    def test_flush_ships_due_battery_samples(self):
        state = WatchState(series(duration=0.0), duty=DutyCycleConfig(battery_interval=30.0))
        assert [t for t, _ in flush(state, 75.0).payload.battery_samples] == [0.0, 30.0, 60.0]
        assert flush(state, 89.0) is None

    def test_flush_covers_tail(self):
        state = WatchState(series(duration=10.0))
        final = flush(state, 10.0)
        assert final is not None
        assert len(final.payload.accel) == 250
        assert final.payload.span[1] == 10.0


def _reference_schedule(peaks, decided, policy, end):
    """The upload rule by brute force: (span, pois) of each upload. The first
    unsent PoI whose quorum window holds ``quorum`` unsent PoIs fixes the
    upload time, its decision time or the end of the cooldown if later; the
    upload takes every unsent PoI decided by then. The flush takes the rest."""
    uploads, last, i = [], -math.inf, 0
    while True:
        met = [
            j for j in range(i, len(peaks))
            if sum(peaks[k] >= peaks[j] - policy.quorum_window for k in range(i, j + 1)) >= policy.quorum
        ]
        if not met:
            break
        at = max(decided[met[0]], last + policy.min_upload_gap)
        taken = [k for k in range(i, len(peaks)) if decided[k] <= at]
        uploads.append(((max(last, 0.0), at), tuple(peaks[k] for k in taken)))
        last, i = at, taken[-1] + 1
    uploads.append(((max(last, 0.0), end), tuple(peaks[i:])))
    return uploads


@st.composite
def _poi_stream(draw):
    steps = draw(st.lists(st.floats(0.01, 100.0), max_size=30))
    peaks, decided = [], []
    for step in steps:
        peaks.append((peaks[-1] if peaks else 0.0) + step)
        lag = draw(st.floats(0.0, 10.0))
        decided.append(max(peaks[-1] + lag, decided[-1] + 0.01 if decided else 0.0))
    policy = UploadPolicy(
        quorum=draw(st.integers(1, 5)),
        quorum_window=draw(st.floats(10.0, 200.0)),
        min_upload_gap=draw(st.floats(0.0, 120.0)),
    )
    return peaks, decided, policy


@given(_poi_stream())
@settings(max_examples=200, deadline=None)
def test_upload_schedule_matches_reference(stream):
    # driven the way the simulator drives the watch: each PoI at its decision
    # time, a tick at the last upload + min_upload_gap (a no-op unless a quorum
    # was held back, and handled after PoIs decided at the same instant), then
    # the flush once every tick is due
    peaks, decided, policy = stream
    end = (decided[-1] if decided else 0.0) + 200.0
    state = WatchState(series(duration=end))
    uploads = []
    tick = math.inf

    def ship(upload):
        # after a tick that ships nothing, nothing is held back until the next upload
        nonlocal tick
        tick = math.inf
        if upload is not None:
            uploads.append((upload.payload.span, upload.payload.pois))
            tick = upload.payload.span[1] + policy.min_upload_gap

    for peak, now in zip(peaks, decided):
        while tick < now:
            ship(on_tick(state, tick))
        upload = on_poi(state, peak, policy, now)
        if upload is not None:
            ship(upload)
    if tick < end:
        ship(on_tick(state, tick))
    ship(flush(state, end))
    assert uploads == _reference_schedule(peaks, decided, policy, end)
