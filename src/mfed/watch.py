"""Watch-side node: upload quorum, cooldown, and duty-cycled sensors.

The watch counts a PoI at its decision time (``signal_core.decision_times``).
When ``quorum`` unsent PoIs lie within ``quorum_window`` before the new one,
it uploads at once; within ``min_upload_gap`` of the previous upload, the
upload is held back until ``upload_due``, the end of that gap, when
``on_tick`` ships it. Each upload, like the final ``flush``, ships the
samples taken after the previous upload up to and including its own time,
and names every PoI counted since the previous upload.

With a ``DutyCycleConfig``, beacon scans run at each ``k*beacon_interval``:
the simulator schedules them and appends their readings to
``pending_beacons``. The battery percentage is sampled at each
``k*battery_interval``. Both record kinds ride with the first upload at or
after their capture time, or with the final flush.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .errors import ClockRegression, check_fields
from .signal_core import AccelSeries

BATTERY_START_PERCENT = 100.0
BATTERY_DRAIN_PER_HOUR = 1.5  # percentage points


@dataclass(frozen=True)
class UploadPolicy:
    quorum: Annotated[int, "[1, inf)"] = 4
    quorum_window: Annotated[float, "(0, inf)"] = 120.0  # s
    min_upload_gap: Annotated[float, "[0, inf)"] = 60.0  # s
    __post_init__ = check_fields


@dataclass(frozen=True)
class DutyCycleConfig:
    beacon_interval: Annotated[float, "(0, inf)"] = 120.0  # s
    battery_interval: Annotated[float, "(0, inf)"] = 120.0  # s
    __post_init__ = check_fields


@dataclass
class WatchState:
    series: AccelSeries  # trace backing upload payloads
    duty: DutyCycleConfig | None = None  # None: no battery samples
    unsent_pois: list[float] = field(default_factory=list)  # counted since the last upload
    last_upload_t: float = -math.inf
    upload_due: float = math.inf  # when a held-back upload ships; inf while none is held back
    pending_beacons: list[tuple[float, str, float]] = field(default_factory=list)
    last_now: float = -math.inf
    _next_battery: int = 0  # index of the first battery sample not yet shipped


@dataclass(frozen=True)
class UploadPayload:
    span: tuple[float, float]  # (previous upload or 0, this upload] in trace seconds
    pois: tuple[float, ...]  # peak times of the PoIs counted since the previous upload
    accel: AccelSeries
    beacon_readings: tuple[tuple[float, str, float], ...]
    battery_samples: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Upload:
    payload: UploadPayload


def _check_clock(state: WatchState, now: float):
    if now < state.last_now:
        raise ClockRegression(f"now went backwards: {now} < {state.last_now}")
    state.last_now = now


def _unsent_samples(state: WatchState, now: float) -> AccelSeries:
    """Samples taken after the last upload up to ``now``."""
    lo, hi = np.searchsorted(state.series.t, (state.last_upload_t, now), side="right")
    return state.series.rows(lo, hi)


def _battery_due(state: WatchState, now: float) -> bool:
    return state.duty is not None and state._next_battery * state.duty.battery_interval <= now


def _take_battery_samples(state: WatchState, now: float) -> tuple[tuple[float, float], ...]:
    """The battery samples due by ``now`` and not yet shipped: (t, percent)."""
    samples = []
    while _battery_due(state, now):
        t = state._next_battery * state.duty.battery_interval
        samples.append((t, max(0.0, BATTERY_START_PERCENT - BATTERY_DRAIN_PER_HOUR * t / 3600.0)))
        state._next_battery += 1
    return tuple(samples)


def _make_upload(state: WatchState, now: float) -> Upload:
    payload = UploadPayload(
        (max(state.last_upload_t, 0.0), now),
        tuple(state.unsent_pois),
        _unsent_samples(state, now),
        tuple(state.pending_beacons),
        _take_battery_samples(state, now),
    )
    state.last_upload_t = now
    state.upload_due = math.inf
    state.unsent_pois.clear()
    state.pending_beacons.clear()
    return Upload(payload)


def on_poi(state: WatchState, poi_t: float, policy: UploadPolicy, now: float) -> Upload | None:
    """Count the PoI peaking at ``poi_t`` at ``now``, its decision time. Once
    ``quorum`` unsent PoIs, this one included, peak at or after ``poi_t -
    quorum_window``, returns the upload, or holds it back to ``upload_due``
    within ``min_upload_gap`` of the last upload."""
    if now < poi_t:
        raise ClockRegression(f"poi at {poi_t} is ahead of now={now}")
    _check_clock(state, now)

    state.unsent_pois.append(poi_t)
    if sum(t >= poi_t - policy.quorum_window for t in state.unsent_pois) < policy.quorum:
        return None
    state.upload_due = state.last_upload_t + policy.min_upload_gap
    return _make_upload(state, now) if now >= state.upload_due else None


def on_tick(state: WatchState, now: float) -> Upload | None:
    """Advance the clock: returns the held-back upload once ``upload_due``
    has come."""
    _check_clock(state, now)
    return _make_upload(state, now) if now >= state.upload_due else None


def flush(state: WatchState, now: float) -> Upload | None:
    """Ship what the watch holds at the end of a run: the samples up to
    ``now``, the PoIs not yet shipped, the pending beacon readings and the
    battery samples due."""
    _check_clock(state, now)
    pending = state.unsent_pois or state.pending_beacons or _battery_due(state, now)
    if len(_unsent_samples(state, now)) or pending:
        return _make_upload(state, now)
    return None
