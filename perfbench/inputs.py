"""Seeded synthetic inputs for the benchmark workloads.

Every input is built from the workload seed alone, so the same seed gives
the same bytes. Two kinds of wrist movement are planted on a 25 Hz noise
trace, each touching only a local slice of samples:

- an eating gesture: a hand-to-mouth dip on x with a lift on y;
- a distractor: a slower arm lowering on x with a rise on z.

Both pass the default PoI thresholds (x_th = -3, v_th = 1), so both reach
the classifier; only the gestures should be accepted by the fixed weights.
Dips are kept at least 8 s apart, so every window holds one movement.

The program under test never sees this module: it receives the CSV files
or the in-memory series written from the arrays built here.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

RATE = 25.0
GRAVITY = (0.0, 0.0, 9.81)
NOISE_SIGMA = 0.05
SLOT_S = 12.0  # distractor slots; one dip per slot at an offset in [4, 8) s
MEAL_GAP_S = (12.0, 40.0)  # spacing of gestures inside one meal
MEAL_GUARD_S = 90.0  # no distractor this close to a meal
EDGE_GUARD_S = 10.0  # no dip this close to either end of a trace
GESTURE_TOLERANCE_S = 2.0  # a PoI or detection this close to a planted gesture is that gesture


@dataclass
class Trace:
    """A planted trace: samples plus what was planted where."""

    t_ms: np.ndarray  # (n,) int64
    xyz: np.ndarray  # (n, 3) float64
    gestures: list[float]  # planted gesture centres, seconds
    distractors: list[float]
    meals: list[tuple[float, float]]  # (first, last) gesture time per meal, missed ones too

    @property
    def rows(self) -> int:
        return self.t_ms.shape[0]

    @property
    def hours(self) -> float:
        return self.rows / RATE / 3600.0


def _noise(rng, duration_s: float):
    """Timestamps in ms and a resting wrist: gravity on z plus sensor noise."""
    n = int(round(duration_s * RATE))
    t_ms = np.arange(n, dtype=np.int64) * round(1000 / RATE)
    return t_ms, rng.normal(0.0, NOISE_SIGMA, (n, 3)) + np.asarray(GRAVITY)


def _plant(xyz, t_c, x_gain, y_gain, z_gain, width_s):
    """Add one gaussian-profile movement on the samples within 4 widths of t_c."""
    c = t_c * RATE
    w = width_s * RATE
    lo = max(0, int(c - 4 * w))
    hi = min(xyz.shape[0], int(c + 4 * w) + 1)
    prof = np.exp(-0.5 * ((np.arange(lo, hi) - c) / w) ** 2)
    xyz[lo:hi, 0] += x_gain * prof
    xyz[lo:hi, 1] += y_gain * prof
    xyz[lo:hi, 2] += z_gain * prof


def plant_gesture(rng, xyz, t_c):
    _plant(xyz, t_c, -rng.uniform(5.0, 7.0), rng.uniform(1.5, 2.5), 0.0, 0.8)


def plant_distractor(rng, xyz, t_c):
    _plant(xyz, t_c, -rng.uniform(4.5, 7.0), 0.0, rng.uniform(3.0, 4.0), 1.3)


def near_planted(planted, times) -> np.ndarray:
    """Which of ``times`` lie within the tolerance of a planted gesture;
    ``planted`` is sorted."""
    planted = np.asarray(planted, dtype=float)
    times = np.asarray(times, dtype=float)
    if not planted.size or not times.size:
        return np.zeros(times.shape, dtype=bool)
    i = np.searchsorted(planted, times)
    left = np.abs(times - planted[np.clip(i - 1, 0, planted.size - 1)])
    right = np.abs(planted[np.clip(i, 0, planted.size - 1)] - times)
    return np.minimum(left, right) <= GESTURE_TOLERANCE_S


def meal_times(rng, start: float, count: int) -> list[float]:
    """Gesture times of one meal: ``count`` bites starting at ``start``."""
    gaps = rng.uniform(*MEAL_GAP_S, size=count - 1)
    return [start, *(start + np.cumsum(gaps)).tolist()]


def build_trace(rng, duration_s: float, meals: list[list[float]], distractors: int,
                missed=(), guard_meals=()) -> Trace:
    """Noise trace with planted meals and a fixed number of distractors.

    Meals whose index is in ``missed`` are returned but not planted: the
    watch did not see them. Distractors keep clear of these meals and of
    ``guard_meals`` (other people's meals in the same home).
    """
    t_ms, xyz = _noise(rng, duration_s)
    gestures = []
    for k, times in enumerate(meals):
        if k not in missed:
            gestures.extend(times)
            for t in times:
                plant_gesture(rng, xyz, t)
    spans = [(m[0], m[-1]) for m in [*meals, *guard_meals]]
    slots = [
        s for s in range(int(duration_s // SLOT_S))
        if s * SLOT_S >= EDGE_GUARD_S and (s + 1) * SLOT_S <= duration_s - EDGE_GUARD_S
        and all(s * SLOT_S > hi + MEAL_GUARD_S or (s + 1) * SLOT_S < lo - MEAL_GUARD_S
                for lo, hi in spans)
    ]
    if distractors > len(slots):
        raise ValueError(f"{distractors} distractors do not fit in {len(slots)} free slots")
    chosen = np.sort(rng.choice(slots, size=distractors, replace=False))
    times = (chosen * SLOT_S + rng.uniform(4.0, 8.0, size=distractors)).tolist()
    for t in times:
        plant_distractor(rng, xyz, t)
    return Trace(t_ms, xyz, gestures, times, [(m[0], m[-1]) for m in meals])


def spread_meals(rng, duration_s: float, count: int, span_s: float) -> list[float]:
    """Meal start times, one per equal share of the trace, jittered inside it;
    ``span_s`` bounds the length of a meal."""
    share = duration_s / count
    lo = MEAL_GUARD_S + EDGE_GUARD_S
    return [k * share + rng.uniform(lo, share - span_s - lo) for k in range(count)]


def build_lab(rng, dips: int) -> Trace:
    """A lab session: gestures and distractors in equal number, shuffled,
    one every 8 to 11 s."""
    kinds = np.arange(dips) % 2 == 0
    rng.shuffle(kinds)
    times = EDGE_GUARD_S + np.concatenate([[0.0], np.cumsum(rng.uniform(8.0, 11.0, dips - 1))])
    t_ms, xyz = _noise(rng, float(times[-1]) + EDGE_GUARD_S)
    for t, gesture in zip(times.tolist(), kinds.tolist()):
        (plant_gesture if gesture else plant_distractor)(rng, xyz, t)
    gestures = times[kinds].tolist()
    return Trace(t_ms, xyz, gestures, times[~kinds].tolist(), [])


# ---------------------------------------------------------------------------
# files


def write_trace_csv(path: str, trace: Trace):
    """The program's trace format: header t_ms,ax,ay,az; decimals to 6 places."""
    rows = zip(trace.t_ms.tolist(), *(trace.xyz[:, c].tolist() for c in range(3)))
    with open(path, "w") as fh:
        fh.write("t_ms,ax,ay,az\n")
        fh.writelines("%d,%.6f,%.6f,%.6f\n" % r for r in rows)


def write_annotations_csv(path: str, times):
    with open(path, "w") as fh:
        fh.write("t_ms\n")
        fh.writelines(f"{round(t * 1000)}\n" for t in times)


def cached(directory: str, build):
    """Run ``build(directory)`` once; later calls reuse what it wrote.

    ``build`` writes its files and returns a JSON-able description, which is
    stored last, so an interrupted build is redone rather than reused.
    """
    info_path = os.path.join(directory, "info.json")
    if os.path.exists(info_path):
        with open(info_path) as fh:
            return json.load(fh)
    os.makedirs(directory, exist_ok=True)
    info = build(directory)
    tmp = info_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(info, fh)
    os.replace(tmp, info_path)
    return info
