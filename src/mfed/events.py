"""Eating-event formation from classified gesture times.

Gestures within 60 s of their predecessor share a cluster; clusters with
fewer than 3 gestures are outliers and never enter an event; surviving
clusters whose start follows the previous surviving cluster's end by at
most 240 s merge into one event. Both gap checks are inclusive.

The rule is written once, in ``StreamDetector``. It holds only the open
event's clusters and the live cluster, the one the last gesture joined, so
each gesture costs constant work. It announces an event the moment a
cluster reaches 3 gestures and finalizes it once a later cluster qualifies
beyond the merge gap, or once 240 s pass with nothing able to extend it.
``detect_events`` is the same detector fed a sorted gesture list in one
chunk. Finalized streaming events equal the batch output over the same
gestures whenever each gesture is observed before any ``advance`` call at
or past its own time: for example, each gesture observed at its own time,
or late delivery with no ``advance`` calls before ``finish``. The
simulator relies on the second case: its gestures arrive with watch
uploads, so it never calls ``advance``.
"""
from __future__ import annotations

import math
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
    """The events of a sorted gesture-time list: the stream rule fed every
    gesture at once."""
    det = StreamDetector(participant_id)
    emitted = [e for t in times for e in det._add(t, t)] + det._close(math.inf)
    return [e.event for e in emitted if isinstance(e, EventFinalized)]


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
        # the open event's clusters, and the cluster the last gesture joined;
        # once that cluster joins the event it is the event's last cluster,
        # so later gestures extend both
        self._event: list[list[float]] = []
        self._live: list[float] = []
        self._last_gesture_t = -math.inf
        self._last_now = -math.inf

    def _snapshot(self) -> EatingEvent:
        return EatingEvent(tuple(GestureCluster(tuple(c)) for c in self._event), self.participant_id)

    def _add(self, t: float, now: float) -> list[EventDetected | EventFinalized]:
        """``observe`` without its clock checks."""
        if self._live and t - self._live[-1] > CLUSTER_GAP:
            self._live = []
        self._live.append(t)
        if len(self._live) != MIN_CLUSTER_SIZE:
            return []
        if self._event and self._live[0] - self._event[-1][-1] <= MERGE_GAP:
            self._event.append(self._live)
            return []
        emitted = self._close(now)
        self._event = [self._live]
        return emitted + [EventDetected(self._snapshot(), now)]

    def _close(self, now: float) -> list[EventFinalized]:
        if not self._event:
            return []
        event = self._snapshot()
        if self._event[-1] is self._live:
            self._live = []
        self._event = []
        return [EventFinalized(event, now)]

    def _check_clock(self, now: float):
        if now < self._last_now:
            raise ClockRegression(f"now went backwards: {now} < {self._last_now}")
        self._last_now = now

    def advance(self, now: float) -> list[EventFinalized]:
        self._check_clock(now)
        if not self._event:
            return []
        end = self._event[-1][-1]
        # wait while a gesture after now could start a cluster that merges:
        # the earliest such time is the next float, and a sum such as
        # end + MERGE_GAP may round below it
        if math.nextafter(now, math.inf) - end <= MERGE_GAP:
            return []
        # a cluster inside the merge horizon may still reach 3 gestures and
        # extend the event; wait until it dies or qualifies (the event's own
        # last cluster ended over MERGE_GAP ago, so it fails the second test)
        live = self._live
        if live and live[0] - end <= MERGE_GAP and now - live[-1] <= CLUSTER_GAP:
            return []
        return self._close(now)

    def observe(self, gesture_t: float, now: float) -> list[EventDetected | EventFinalized]:
        self._check_clock(now)
        if gesture_t < self._last_gesture_t:
            raise ClockRegression(
                f"gesture time went backwards: {gesture_t} < {self._last_gesture_t}"
            )
        if gesture_t > now:
            raise ClockRegression(f"gesture at {gesture_t} delivered before now={now}")
        self._last_gesture_t = gesture_t
        return self._add(gesture_t, now)

    def finish(self, now: float) -> list[EventFinalized]:
        """Force-finalize at end of stream (end of deployment)."""
        self._check_clock(now)
        return self._close(now)
