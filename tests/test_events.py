import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mfed.errors import ClockRegression
from mfed.events import EventDetected, EventFinalized, StreamDetector, detect_events

MIN = 60.0


def as_tuples(events):
    return [tuple(c.times for c in ev.clusters) for ev in events]


class TestClusterGestures:
    def test_empty(self):
        assert detect_events([]) == []

    def test_minute_gap_splits(self):
        # 60.5 s between the third and fourth gesture splits the clusters;
        # the merge gap then joins both into one event
        times = [0.0, 30.0, 72.0, 132.5, 150.0, 168.0]
        assert as_tuples(detect_events(times)) == [(tuple(times[:3]), tuple(times[3:]))]

    def test_exact_gap_is_inclusive(self):
        # were the 60 s gap exclusive, three singleton clusters would be dropped
        events = detect_events([0.0, 60.0, 120.0])
        assert as_tuples(events) == [((0.0, 60.0, 120.0),)]
        assert events[0].start == 0.0 and events[0].end == 120.0


class TestDetectEvents:
    def test_two_far_clusters_stay_separate(self):
        times = [m * MIN for m in (0, 0.5, 1.2, 5.5, 5.8, 6.1)]
        events = detect_events(times)
        assert len(events) == 2
        assert all(ev.gesture_count == 3 for ev in events)

    def test_nearby_clusters_merge(self):
        times = [m * MIN for m in (0, 0.4, 0.8, 3.5, 3.9, 4.3)]
        events = detect_events(times)
        assert len(events) == 1
        assert len(events[0].clusters) == 2
        assert events[0].gesture_count == 6

    def test_small_cluster_dropped(self):
        assert detect_events([0.0, 30.0]) == []

    def test_merge_gap_boundary(self):
        # surviving clusters exactly 240 s apart merge; slightly more do not
        a = [0.0, 10.0, 20.0]
        assert len(detect_events(a + [260.0, 270.0, 280.0])) == 1
        assert len(detect_events(a + [260.1, 270.1, 280.1])) == 2

    def test_dropped_cluster_between_survivors(self):
        # the size-2 middle cluster cannot join, but the distance between
        # survivors spans it
        times = [0.0, 10.0, 20.0, 90.0, 100.0, 170.0, 180.0, 190.0]
        events = detect_events(times)
        assert len(events) == 1
        assert events[0].gesture_count == 6
        assert 90.0 not in events[0].gesture_times

    def test_matches_interval_graph_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            k = int(rng.integers(0, 9))
            times = sorted(rng.choice(np.arange(0, 1210, 10.0), size=k, replace=False))
            assert as_tuples(detect_events(times)) == oracles.events_oracle(times)


# Offsets are multiples of 1/64 s below 1e5 s: every shifted time and gap is
# then exact in float64, so a shift cannot move a gap across CLUSTER_GAP.
@given(
    st.lists(st.integers(0, 120), min_size=0, max_size=8),
    st.integers(0, 100_000 * 64).map(lambda k: k / 64),
)
@settings(max_examples=300, deadline=None)
def test_translation_invariance(grid, offset):
    times = sorted(10.0 * g for g in set(grid))
    base = as_tuples(detect_events(times))
    shifted = as_tuples(detect_events([t + offset for t in times]))
    rebased = [tuple(tuple(t - offset for t in c) for c in ev) for ev in shifted]
    assert base == rebased


def test_inexact_shift_can_cross_the_gap():
    # gaps of exactly CLUSTER_GAP join; shifted by 0.1 s, 260.1 - 200.1 rounds
    # to 60.00000000000003 and splits the three gestures into no event, while
    # a shift of 0.125 s is exact and keeps the event
    times = [140.0, 200.0, 260.0]
    assert len(detect_events(times)) == 1
    assert detect_events([t + 0.1 for t in times]) == []
    assert as_tuples(detect_events([t + 0.125 for t in times])) == [((140.125, 200.125, 260.125),)]


def drive_stream(times, participant=None, tail=400.0):
    det = StreamDetector(participant)
    out = []
    for t in times:
        out.extend(det.observe(t, t))
        out.extend(det.advance(t))
    if times:
        for t in np.arange(times[-1], times[-1] + tail, 10.0):
            out.extend(det.advance(float(t)))
        out.extend(det.advance(times[-1] + tail))
    return out


class TestStreamDetector:
    def test_detects_on_third_gesture(self):
        det = StreamDetector()
        assert det.observe(0.0, 0.0) == []
        assert det.observe(20.0, 20.0) == []
        out = det.observe(40.0, 40.0)
        assert len(out) == 1 and isinstance(out[0], EventDetected)
        assert out[0].t == 40.0

    def test_finalizes_after_quiescence(self):
        det = StreamDetector()
        for t in (0.0, 20.0, 40.0):
            det.observe(t, t)
        assert det.advance(279.9) == []
        out = det.advance(280.0)
        assert len(out) == 1 and isinstance(out[0], EventFinalized)
        assert out[0].t == 280.0
        assert out[0].event.gesture_times == (0.0, 20.0, 40.0)

    def test_single_gesture_never_fires(self):
        det = StreamDetector()
        assert det.observe(5.0, 5.0) == []
        for t in (100.0, 1000.0, 10000.0):
            assert det.advance(t) == []

    def test_clock_regression(self):
        det = StreamDetector()
        det.observe(10.0, 10.0)
        with pytest.raises(ClockRegression):
            det.observe(5.0, 11.0)
        with pytest.raises(ClockRegression):
            det.advance(9.0)

    def test_gesture_ahead_of_now(self):
        with pytest.raises(ClockRegression, match=r"^gesture at 10.0 delivered before now=9.5$"):
            StreamDetector().observe(10.0, 9.5)

    def test_agrees_with_batch_on_random_streams(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            k = int(rng.integers(0, 12))
            times = sorted(float(v) for v in rng.choice(np.arange(0, 2000, 5.0), size=k, replace=False))
            finalized = [e.event for e in drive_stream(times) if isinstance(e, EventFinalized)]
            batch = detect_events(times)
            assert [tuple(c.times for c in ev.clusters) for ev in finalized] == as_tuples(batch)

    def test_merge_gap_boundary_on_millisecond_times(self):
        # 244.116 - 4.116 == 240.0, but 4.116 + 240.0 < 244.116 in floating
        # point: the stream must round the merge gap as the batch rule does
        times = [0.0, 2.0, 4.116, 244.116, 246.0, 248.0]
        out = drive_stream(times)
        assert sum(isinstance(e, EventDetected) for e in out) == 1
        finalized = [e.event for e in out if isinstance(e, EventFinalized)]
        assert finalized == detect_events(times)
        assert len(finalized) == 1 and len(finalized[0].clusters) == 2

    def test_advance_waits_while_a_later_gesture_can_still_merge(self):
        # 4.116 + 240.0 rounds down to 244.11599999999999, below the next
        # gesture at 244.116, which the batch rule merges (244.116 - 4.116
        # == 240.0): advancing to that sum must not finalize the event
        det = StreamDetector()
        out = [e for t in (0.0, 2.0, 4.116) for e in det.observe(t, t)]
        out += det.advance(4.116 + 240.0)
        for t in (244.116, 246.0, 248.0):
            out += det.observe(t, t)
        out += det.finish(300.0)
        finalized = [e.event for e in out if isinstance(e, EventFinalized)]
        assert finalized == detect_events([0.0, 2.0, 4.116, 244.116, 246.0, 248.0])
        assert len(finalized) == 1 and len(finalized[0].clusters) == 2

    def test_late_gesture_after_finalize_starts_a_new_cluster(self):
        # a gesture delivered after advance finalized its would-be event is
        # not counted toward the closed event's last cluster
        det = StreamDetector()
        for t in (0.0, 10.0, 20.0):
            det.observe(t, t)
        assert [type(e) for e in det.advance(300.0)] == [EventFinalized]
        assert det.observe(30.0, 300.0) == det.observe(40.0, 300.0) == []
        out = det.observe(50.0, 300.0)
        assert [e.event.gesture_times for e in out] == [(30.0, 40.0, 50.0)]
        assert isinstance(out[0], EventDetected)

    def test_finish_flushes_open_event(self):
        det = StreamDetector("p")
        for t in (0.0, 20.0, 40.0):
            det.observe(t, t)
        out = det.finish(50.0)
        assert len(out) == 1
        assert out[0].event.participant_id == "p"

    def test_no_undersized_clusters_and_no_overlap(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(0, 10))
            times = sorted(float(v) for v in rng.choice(np.arange(0, 1200, 10.0), size=k, replace=False))
            events = detect_events(times)
            for ev in events:
                assert all(c.size >= 3 for c in ev.clusters)
            for a, b in zip(events, events[1:]):
                assert b.start - a.end > 240.0  # separate events never overlap


@given(st.lists(st.tuples(st.integers(0, 80), st.integers(0, 240)), max_size=16))
@settings(max_examples=300, deadline=None)
def test_late_delivery_agrees_with_batch(steps):
    # each gesture is observed at some non-decreasing now >= its own time,
    # with no advance calls before finish
    det = StreamDetector("p")
    times, out, t, now = [], [], 0.0, 0.0
    for gap, delay in steps:
        t += 5.0 * gap
        now = max(now, t + 5.0 * delay)
        times.append(t)
        out.extend(det.observe(t, now))
    out.extend(det.finish(now))
    detected = [e.event for e in out if isinstance(e, EventDetected)]
    finalized = [e.event for e in out if isinstance(e, EventFinalized)]
    assert finalized == detect_events(times, "p")
    # one announcement per event, made when its first cluster reached 3 gestures
    assert [ev.gesture_times for ev in detected] == [
        ev.clusters[0].times[:3] for ev in finalized
    ]


# gaps in 5 s grid steps: often inside a cluster (at most 12 steps, 60 s),
# often at MERGE_GAP (48 steps) or one step past it or past CLUSTER_GAP
GRID_GAP = st.one_of(st.integers(0, 12), st.sampled_from([13, 48, 49]), st.integers(0, 80))


@given(
    st.lists(
        st.tuples(GRID_GAP, st.integers(0, 60), st.lists(st.integers(0, 300), max_size=3)),
        max_size=16,
    ),
    st.lists(st.integers(0, 400), max_size=4),
)
# two clusters exactly MERGE_GAP apart, advanced to 1 s short of the horizon
@example([(0, 0, []), (1, 0, []), (1, 0, []), (48, 0, [239]), (1, 0, []), (1, 0, [])], [])
@settings(max_examples=400, deadline=None)
def test_stream_with_advances_matches_oracle(steps, tail):
    # gestures on a 5 s grid, each observed at a non-decreasing now at or after
    # its own time; every advance call lies below the next unobserved gesture,
    # the condition under which the finalized events are the batch rule's
    det = StreamDetector("p")
    times, delivered, calls, t, now = [], [], [], 0.0, 0.0

    def record(emissions):
        calls.extend((now, e) for e in emissions)

    for gap, delay, advances in steps:
        t += 5.0 * gap
        for step in advances:
            if now + step >= t:
                break
            now += step
            record(det.advance(now))
        now = max(now, t + 5.0 * delay)
        times.append(t)
        delivered.append(now)
        record(det.observe(t, now))
    for step in tail:
        now += step
        record(det.advance(now))
    record(det.finish(now))

    assert all(e.t == call_now for call_now, e in calls)
    detected = [e for _, e in calls if isinstance(e, EventDetected)]
    finalized = [e.event for _, e in calls if isinstance(e, EventFinalized)]
    assert as_tuples(finalized) == oracles.events_oracle(times)
    assert len(detected) == len(finalized)
    for d, ev in zip(detected, finalized):
        first = ev.clusters[0].times
        assert d.event.gesture_times == first[:3]
        assert d.t == delivered[times.index(first[0]) + 2]
