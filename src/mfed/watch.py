"""Watch-side node: upload quorum, cooldown, and duty-cycled sensors.

The watch counts a PoI at its decision time (``signal_core.decision_times``).
When ``quorum`` PoIs land inside a sliding ``quorum_window`` it uploads
immediately, unless the previous upload was under ``min_upload_gap`` ago,
in which case the upload is marked pending and fires from ``on_tick`` at
cooldown expiry. Each upload, like the final ``flush``, ships the samples
taken after the previous upload up to and including its own time, and
names every PoI counted since the previous upload.

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
    poi_times: list[float] = field(default_factory=list)  # inside the quorum window
    unsent_pois: list[float] = field(default_factory=list)  # counted since the last upload
    last_upload_t: float = -math.inf
    pending_quorum: bool = False
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
    state.pending_quorum = False
    state.poi_times.clear()
    state.unsent_pois.clear()
    state.pending_beacons.clear()
    return Upload(payload)


def _cooldown_over(state: WatchState, policy: UploadPolicy, now: float) -> bool:
    # the sum, not now - last_upload_t: a tick at last_upload_t + min_upload_gap must find it over
    return now >= state.last_upload_t + policy.min_upload_gap


def on_poi(state: WatchState, poi_t: float, policy: UploadPolicy, now: float) -> Upload | None:
    """Count one PoI at ``now``, its decision time; returns an Upload when
    the quorum rule fires."""
    if now < poi_t:
        raise ClockRegression(f"poi at {poi_t} is ahead of now={now}")
    _check_clock(state, now)

    state.poi_times.append(poi_t)
    state.unsent_pois.append(poi_t)
    cutoff = poi_t - policy.quorum_window
    while state.poi_times and state.poi_times[0] < cutoff:
        state.poi_times.pop(0)

    if len(state.poi_times) < policy.quorum:
        return None
    if not _cooldown_over(state, policy, now):
        state.pending_quorum = True
        return None
    return _make_upload(state, now)


def on_tick(state: WatchState, now: float, policy: UploadPolicy) -> Upload | None:
    """Advance the clock: returns the pending upload once its cooldown has
    expired."""
    _check_clock(state, now)
    if state.pending_quorum and _cooldown_over(state, policy, now):
        return _make_upload(state, now)
    return None


def flush(state: WatchState, now: float) -> Upload | None:
    """Ship what the watch holds at the end of a run: the samples up to
    ``now``, the PoIs not yet shipped, the pending beacon readings and the
    battery samples due."""
    _check_clock(state, now)
    pending = state.unsent_pois or state.pending_beacons or _battery_due(state, now)
    if len(_unsent_samples(state, now)) or pending:
        return _make_upload(state, now)
    return None
