"""Eating-event formation from classified gesture times.

Gestures within 60 s of their predecessor share a cluster; clusters with
fewer than 3 gestures are outliers and never enter an event; surviving
clusters whose start follows the previous surviving cluster's end by at
most 240 s merge into one event. Both gap checks are inclusive.

`detect_events` applies the rule to a full sorted gesture list. The
streaming detector applies it incrementally: it announces an event the
moment a cluster reaches 3 gestures and finalizes it once 240 s pass with
nothing able to extend it. Finalized streaming events match the batch
output whenever gestures are delivered promptly (gesture time equal to the
wall clock, or at least within the 60 s cluster gap of it) and `advance`
is called as time passes.
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


def detect_events(times, participant_id: str | None = None) -> list[EatingEvent]:
    """Full clustering rule over a sorted gesture-time list."""
    n = len(times)
    survivors: list[tuple[int, int]] = []
    start = 0
    for i in range(1, n + 1):
        if i == n or times[i] - times[i - 1] > CLUSTER_GAP:
            if i - start >= MIN_CLUSTER_SIZE:
                survivors.append((start, i))
            start = i

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
        self._cluster: list[float] = []
        self._attached = False  # live cluster is the open event's last cluster
        self._closed: list[tuple[float, ...]] | None = None  # open event's closed clusters
        self._last_gesture_t = -float("inf")
        self._last_now = -float("inf")

    @property
    def _open(self) -> bool:
        return self._closed is not None

    def _event_end(self) -> float:
        if self._attached:
            return self._cluster[-1]
        return self._closed[-1][-1]

    def _emit_open(self) -> EatingEvent:
        parts = list(self._closed or [])
        if self._attached:
            parts.append(tuple(self._cluster))
        return EatingEvent(tuple(GestureCluster(p) for p in parts), self.participant_id)

    def _retire_cluster(self):
        if self._attached:
            self._closed.append(tuple(self._cluster))
            self._attached = False
        self._cluster = []

    def _finalize(self, now: float) -> EventFinalized:
        event = self._emit_open()
        self._closed = None
        if self._attached:
            self._cluster = []
            self._attached = False
        return EventFinalized(event, now)

    def _due(self, now: float) -> bool:
        if not self._open:
            return False
        end = self._event_end()
        if now < end + MERGE_GAP:
            return False
        # an unattached cluster inside the merge horizon may still reach 3
        # gestures and extend the event; wait until it dies or qualifies
        if (
            self._cluster
            and not self._attached
            and self._cluster[0] <= end + MERGE_GAP
            and now - self._cluster[-1] <= CLUSTER_GAP
        ):
            return False
        return True

    def _check_clock(self, now: float):
        if now < self._last_now:
            raise ClockRegression(f"now went backwards: {now} < {self._last_now}")
        self._last_now = now

    def advance(self, now: float) -> list[EventFinalized]:
        self._check_clock(now)
        if self._due(now):
            return [self._finalize(now)]
        return []

    def observe(self, gesture_t: float, now: float) -> list[EventDetected | EventFinalized]:
        self._check_clock(now)
        if gesture_t < self._last_gesture_t:
            raise ClockRegression(
                f"gesture time went backwards: {gesture_t} < {self._last_gesture_t}"
            )
        if gesture_t > now:
            raise ClockRegression(f"gesture at {gesture_t} delivered before now={now}")
        self._last_gesture_t = gesture_t

        emissions: list[EventDetected | EventFinalized] = []

        if self._cluster and gesture_t - self._cluster[-1] <= CLUSTER_GAP:
            self._cluster.append(gesture_t)
        else:
            self._retire_cluster()
            self._cluster = [gesture_t]

        if len(self._cluster) == MIN_CLUSTER_SIZE and not self._attached:
            if self._open and self._cluster[0] <= self._event_end() + MERGE_GAP:
                self._attached = True
            else:
                if self._open:
                    emissions.append(self._finalize(now))
                self._closed = []
                self._attached = True
                emissions.append(EventDetected(self._emit_open(), now))
        return emissions

    def finish(self, now: float) -> list[EventFinalized]:
        """Force-finalize at end of stream (end of deployment)."""
        self._check_clock(now)
        if self._open:
            return [self._finalize(now)]
        return []
