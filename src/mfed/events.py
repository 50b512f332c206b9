"""Eating-event formation from classified gesture times.

Gestures within 60 s of their predecessor share a cluster; clusters with
fewer than 3 gestures are outliers and never enter an event; surviving
clusters whose start follows the previous surviving cluster's end by at
most 240 s merge into one event. Both gap checks are inclusive.

The rule is written once. `split_at_gaps` makes its 60 s split, and
`ema` splits who-with mentions into collaborative records with it too.
`detect_events` applies the rule to a full sorted gesture list. The
streaming detector keeps only the open event's gestures plus the live
cluster and re-runs the same rule on them after each gesture: it
announces an event the moment a cluster reaches 3 gestures and finalizes
it once a later cluster qualifies beyond the merge gap or 240 s pass with
nothing able to extend it. Finalized streaming events equal the batch
output over the same gestures whenever each gesture is observed before
any `advance` call at or past its own time: for example, each gesture
observed at its own time, or late delivery with no `advance` calls
before `finish`. The simulator relies on the second case:
its gestures arrive with watch uploads, so it never calls `advance`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ClockRegression

CLUSTER_GAP = 60.0
MERGE_GAP = 240.0
MIN_CLUSTER_SIZE = 3


@dataclass(frozen=True)
class GestureCluster:
    times: tuple[float, ...]

    @property
    def start(self) -> float:
        return self.times[0]

    @property
    def end(self) -> float:
        return self.times[-1]

    @property
    def size(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class EatingEvent:
    clusters: tuple[GestureCluster, ...]
    participant_id: str | None = None

    @property
    def start(self) -> float:
        return self.clusters[0].start

    @property
    def end(self) -> float:
        return self.clusters[-1].end

    @property
    def gesture_count(self) -> int:
        return sum(c.size for c in self.clusters)

    @property
    def gesture_times(self) -> tuple[float, ...]:
        return tuple(t for c in self.clusters for t in c.times)


def split_at_gaps(times, gap: float) -> list[tuple[int, int]]:
    """``(start, stop)`` index spans of the runs of sorted ``times`` in which
    each time follows its predecessor by at most ``gap``."""
    spans: list[tuple[int, int]] = []
    start = 0
    for i in range(1, len(times) + 1):
        if i == len(times) or times[i] - times[i - 1] > gap:
            spans.append((start, i))
            start = i
    return spans


def detect_events(times, participant_id: str | None = None) -> list[EatingEvent]:
    """Full clustering rule over a sorted gesture-time list."""
    return _events(times, participant_id)


def _events(times, participant_id: str | None) -> list[EatingEvent]:
    # StreamDetector calls the rule by this private name, so a profiler that
    # wraps detect_events counts only the batch calls
    survivors = [(a, b) for a, b in split_at_gaps(times, CLUSTER_GAP) if b - a >= MIN_CLUSTER_SIZE]
    events: list[EatingEvent] = []
    group: list[tuple[int, int]] = []
    for span in survivors:
        if group and times[span[0]] - times[group[-1][1] - 1] <= MERGE_GAP:
            group.append(span)
        else:
            if group:
                events.append(_build_event(times, group, participant_id))
            group = [span]
    if group:
        events.append(_build_event(times, group, participant_id))
    return events


def _build_event(times, group, participant_id):
    clusters = tuple(GestureCluster(tuple(times[a:b])) for a, b in group)
    return EatingEvent(clusters, participant_id)


@dataclass(frozen=True)
class EventDetected:
    event: EatingEvent
    t: float


@dataclass(frozen=True)
class EventFinalized:
    event: EatingEvent
    t: float


class StreamDetector:
    """Incremental event detection for one participant.

    Call ``observe(gesture_t, now)`` for each classified gesture (gesture
    times and wall times both non-decreasing) and ``advance(now)`` as time
    passes; both return the emissions they triggered. ``finish(now)``
    force-finalizes any open event at end of stream.
    """

    def __init__(self, participant_id: str | None = None):
        self.participant_id = participant_id
        # the open event's gestures, then the live cluster when it is not
        # (yet) part of that event; a closed cluster too small to survive is
        # dropped, so an event is open exactly when this holds at least
        # MIN_CLUSTER_SIZE gestures
        self._times: list[float] = []
        self._last_gesture_t = -float("inf")
        self._last_now = -float("inf")

    def _open_event(self) -> EatingEvent | None:
        events = _events(self._times, self.participant_id)
        return events[0] if events else None

    def _finalize(self, event: EatingEvent, now: float) -> EventFinalized:
        del self._times[: event.gesture_count]
        return EventFinalized(event, now)

    def _check_clock(self, now: float):
        if now < self._last_now:
            raise ClockRegression(f"now went backwards: {now} < {self._last_now}")
        self._last_now = now

    def advance(self, now: float) -> list[EventFinalized]:
        self._check_clock(now)
        event = self._open_event()
        if event is None or now < event.end + MERGE_GAP:
            return []
        # a cluster inside the merge horizon may still reach 3 gestures and
        # extend the event; wait until it dies or qualifies
        live = self._times[event.gesture_count :]
        if live and live[0] - event.end <= MERGE_GAP and now - live[-1] <= CLUSTER_GAP:
            return []
        return [self._finalize(event, now)]

    def observe(self, gesture_t: float, now: float) -> list[EventDetected | EventFinalized]:
        self._check_clock(now)
        if gesture_t < self._last_gesture_t:
            raise ClockRegression(
                f"gesture time went backwards: {gesture_t} < {self._last_gesture_t}"
            )
        if gesture_t > now:
            raise ClockRegression(f"gesture at {gesture_t} delivered before now={now}")
        self._last_gesture_t = gesture_t

        was_open = len(self._times) >= MIN_CLUSTER_SIZE
        if self._times and gesture_t - self._times[-1] > CLUSTER_GAP:
            # the live cluster closes: keep it only if it belongs to the event
            event = self._open_event()
            del self._times[event.gesture_count if event else 0 :]
        self._times.append(gesture_t)

        events = _events(self._times, self.participant_id)
        if len(events) == 2:  # the live cluster qualified beyond the merge gap
            return [self._finalize(events[0], now), EventDetected(events[1], now)]
        if events and not was_open:
            return [EventDetected(events[0], now)]
        return []

    def finish(self, now: float) -> list[EventFinalized]:
        """Force-finalize at end of stream (end of deployment)."""
        self._check_clock(now)
        event = self._open_event()
        return [self._finalize(event, now)] if event else []
