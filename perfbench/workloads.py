"""The three workloads, each driving one of the program's own commands.

A workload builds its inputs from the seed (cached on disk, outside any
timed region), runs its command once per ``run()`` call and checks the
output. ``run(small=True)`` runs the same command on a one-minute input:
its wall time is the fixed cost every invocation pays.

- detect_day: ``mfed detect --weights`` through ``mfed.cli.main`` on a 4 h
  25 Hz trace CSV with planted meals and distractor arm movements (3 PoIs
  per minute). Trace ingest dominates; CNN inference is most of the rest.
- train_lab: ``mfed train`` through ``mfed.cli.main`` on a 16-minute lab
  session CSV with balanced gestures and distractors, 25 epochs in
  mini-batches of 4, enough for training to converge on every seed (one
  epoch on the one-minute input). CNN forward and backward passes dominate.
- sim_home: ``mfed.sim.run_home_simulation`` on a 4-person, 3 h home whose
  traces are passed in memory, so there is no ingest. Fixed weights, two
  beacons, duty cycling, responders at 0.8, two shared family meals; the
  who-with answers to the lunch EMAs produce collaborative ground truth and
  the son's watch misses the second meal. One-window-at-a-time CNN
  inference dominates.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import time
from collections import Counter

import numpy as np

import inputs
from layers import DECISION_THRESHOLD

DETECT_HOURS = 4.0
DETECT_MEALS = 4
DETECT_BITES = 20  # gestures per meal
DETECT_DISTRACTORS = 640  # with 80 gestures: 720 PoIs in 240 min

LAB_DIPS = 100
# Plain SGD sits at chance for a number of epochs that varies with the
# data, then converges: in batches of 4, after 5 to 18 epochs on 30 seeds.
TRAIN_EPOCHS = 25
TRAIN_BATCH = 4

HOME_HOURS = 3.0
HOME_BITES = 15
HOME_DISTRACTORS = 330  # per person: about 2 PoIs per minute
# The home starts at 11:30. Lunch starts within 5 min, so its eating EMAs
# go out before the first hourly mood EMA; a second meal comes after 13:30,
# when the mood EMAs' one-hour spacing suppresses eating EMAs.
HOME_START_HOUR = 11.5
LUNCH_START_S = (60.0, 300.0)
SECOND_MEAL_START_S = 7200.0
MISSED = ("son", 1)  # this participant's watch misses this meal
# role, who-with answer, the housemates that answer names; the mother's
# "children" is ambiguous (son and daughter) and names nobody
FAMILY = (
    ("mother", ("children",), ()),
    ("father", ("spouse_partner",), ("mother",)),
    ("son", ("mother", "sisters"), ("mother", "daughter")),
    ("daughter", ("father", "brothers"), ("father", "son")),
)

SMALL_DIPS = 5  # the one-minute inputs: a short lab session
SMALL_EPOCHS = 1  # training on it: the fixed cost, not the CNN, dominates
MEAL_MARGIN_S = 30.0  # an event covers a meal when it overlaps it within this
# Output checks on the classifier. With the fixed weights: the share of
# planted gestures detected, and the share of detections that are planted
# gestures. With the weights train_lab writes: the shares of the lab's
# gesture windows accepted and of its distractor windows rejected.
GESTURE_RECALL_FLOOR = 0.9
GESTURE_PRECISION_FLOOR = 0.9
TRAINED_ACCEPT_FLOOR = 0.9
TRAINED_REJECT_FLOOR = 0.8


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _series(t_ms, xyz):
    from mfed.signal_core import AccelSeries

    return AccelSeries(inputs.RATE, np.asarray(t_ms) / 1000.0, xyz)


def _load_trace(path):
    from mfed import traceio

    return traceio.load_trace(path, inputs.RATE)


def _pois(series):
    from mfed.signal_core import DetectorConfig, detect_pois, smooth

    cfg = DetectorConfig()
    return detect_pois(smooth(series, cfg.smooth_len), cfg)


def _describe(trace: inputs.Trace, pois) -> dict:
    """Input properties: size, what was planted, and the PoIs it yields."""
    meal_pois = int(inputs.near_planted(sorted(trace.gestures), [p.t for p in pois]).sum())
    return {
        "rows": trace.rows,
        "hours": trace.hours,
        "planted_gestures": len(trace.gestures),
        "distractors": len(trace.distractors),
        "pois": len(pois),
        "pois_per_min": len(pois) / (trace.hours * 60.0),
        "meal_poi_share": meal_pois / len(pois) if pois else 0.0,
    }


def _covers(events, meal) -> bool:
    """Whether one of the events (JSONL records) overlaps the meal."""
    lo, hi = meal
    return any(ev["start_ms"] <= (hi + MEAL_MARGIN_S) * 1000 and ev["end_ms"] >= (lo - MEAL_MARGIN_S) * 1000
               for ev in events)


def _check_gestures(name: str, pairs) -> list[str]:
    """Detected gestures against planted ones.

    ``pairs`` holds (planted, detected) gesture times in seconds, one pair
    per participant; a time matches when it is within the tolerance.
    """
    planted = found = detected = genuine = 0
    for p, d in pairs:
        p, d = sorted(p), sorted(d)
        planted += len(p)
        found += int(inputs.near_planted(d, p).sum())
        detected += len(d)
        genuine += int(inputs.near_planted(p, d).sum())
    problems = []
    if found < GESTURE_RECALL_FLOOR * planted:
        problems.append(f"{name}: {found} of {planted} planted gestures detected")
    if genuine < GESTURE_PRECISION_FLOOR * detected:
        problems.append(f"{name}: {genuine} of {detected} detected gestures were planted")
    return problems


def _merge(parts: list[dict]) -> dict:
    """Input properties of several traces taken together."""
    out = {k: sum(p[k] for p in parts) for k in ("rows", "hours", "planted_gestures", "distractors", "pois")}
    out["pois_per_min"] = out["pois"] / (out["hours"] * 60.0)
    out["meal_poi_share"] = sum(p["meal_poi_share"] * p["pois"] for p in parts) / max(1, out["pois"])
    return out


class Workload:
    """One seeded input set and the command that consumes it."""

    name = ""
    home_hours = 0.0  # simulated home-hours per invocation
    samples = 0  # trace samples a simulated watch can ship

    def __init__(self, cache_dir: str, seed: int, weights_path: str):
        self.seed = seed
        self.weights_path = weights_path
        self.dir = os.path.join(cache_dir, f"{self.name}-{seed}")
        self.digest_path = os.path.join(cache_dir, "digests", f"{self.name}-{seed}.sha256")
        self.info = inputs.cached(self.dir, self.build)
        self.reference: str | None = None  # digest of the first output in this run
        self.planted = np.sort(np.asarray(self.info["gestures"]))

    # subclasses fill these in
    def build(self, directory: str) -> dict:
        raise NotImplementedError

    def invoke(self, small: bool) -> bytes:
        """Run the command once; returns the output that must repeat exactly."""
        raise NotImplementedError

    def check_first(self, output: bytes) -> list[str]:
        """Checks made on the first full-size output of a run."""
        return []

    @property
    def trace_hours(self) -> float:
        return self.info["input"]["hours"]

    @property
    def windows(self) -> int:
        """CNN windows one invocation processes."""
        return self.info["input"]["pois"]

    def run(self, small: bool = False, around=contextlib.nullcontext()) -> tuple[float, list[str], bytes]:
        """Run the command once: (wall seconds, problems found, output).

        Only the command is timed, inside the context manager ``around``;
        the checks run after the clock stops.
        """
        gc.collect()
        stderr = io.StringIO()
        output = b""
        t0 = time.perf_counter()
        try:
            with around, contextlib.redirect_stderr(stderr):
                output = self.invoke(small)
        except Exception as e:  # a raising command is a failed run, not a crash
            wall = time.perf_counter() - t0
            said = stderr.getvalue().strip()[-500:]
            return wall, [f"{self.name}: raised {type(e).__name__}: {e}; stderr: {said}"], output
        wall = time.perf_counter() - t0
        if small:
            return wall, [], output
        d = digest(output)
        if self.reference is None:
            problems = self.check_first(output) + self._check_across_runs(d)
            self.reference = d
        elif d != self.reference:
            problems = [f"{self.name}: output differs from the first invocation of this run"]
        else:
            problems = []
        return wall, problems, output

    def _check_across_runs(self, d: str) -> list[str]:
        """Outputs of one seed on one source tree must be byte-identical."""
        if os.path.exists(self.digest_path):
            with open(self.digest_path) as fh:
                if fh.read().strip() != d:
                    return [f"{self.name}: output differs from an earlier run of seed {self.seed}"]
            return []
        os.makedirs(os.path.dirname(self.digest_path), exist_ok=True)
        with open(self.digest_path, "w") as fh:
            fh.write(d + "\n")
        return []

    def _cli(self, argv) -> None:
        from mfed import cli

        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mfed {argv[0]} exited with {code}")


class DetectDay(Workload):
    name = "detect_day"

    def build(self, directory):
        rng = np.random.default_rng([self.seed, 1])
        duration = DETECT_HOURS * 3600.0
        span = (DETECT_BITES - 1) * inputs.MEAL_GAP_S[1]
        meals = [inputs.meal_times(rng, s, DETECT_BITES)
                 for s in inputs.spread_meals(rng, duration, DETECT_MEALS, span)]
        trace = inputs.build_trace(rng, duration, meals, DETECT_DISTRACTORS)
        path = os.path.join(directory, "trace.csv")
        inputs.write_trace_csv(path, trace)
        inputs.write_trace_csv(os.path.join(directory, "small.csv"), inputs.build_lab(rng, SMALL_DIPS))
        return {
            "input": _describe(trace, _pois(_load_trace(path))),
            "gestures": trace.gestures,
            "meals": trace.meals,
        }

    def invoke(self, small):
        trace = "small.csv" if small else "trace.csv"
        out = os.path.join(self.dir, "small.jsonl" if small else "events.jsonl")
        self._cli(["detect", "--trace", os.path.join(self.dir, trace),
                   "--weights", self.weights_path, "--out", out])
        with open(out, "rb") as fh:
            return fh.read()

    def check_first(self, output):
        events = [json.loads(line) for line in output.splitlines()]
        problems = []
        missed = [meal for meal in self.info["meals"] if not _covers(events, meal)]
        if missed:
            problems.append(f"detect_day: no event covers planted meals {missed}")
        detected = [g / 1000.0 for ev in events for g in ev["gestures"]]
        return problems + _check_gestures(self.name, [(self.info["gestures"], detected)])


class TrainLab(Workload):
    name = "train_lab"

    def build(self, directory):
        from mfed.classifier import label_poi
        from mfed.signal_core import Label

        rng = np.random.default_rng([self.seed, 2])
        lab = inputs.build_lab(rng, LAB_DIPS)
        for stem, trace in (("lab", lab), ("small", inputs.build_lab(rng, SMALL_DIPS))):
            inputs.write_trace_csv(os.path.join(directory, f"{stem}.csv"), trace)
            inputs.write_annotations_csv(os.path.join(directory, f"{stem}_ann.csv"), trace.gestures)
        pois = _pois(_load_trace(os.path.join(directory, "lab.csv")))
        ann = [round(t * 1000) / 1000.0 for t in lab.gestures]  # as the program reads them
        used = sum(label_poi(p.t, ann) is not Label.AMBIGUOUS for p in pois)  # training drops the rest
        return {"input": _describe(lab, pois), "gestures": lab.gestures,
                "window_epochs": used * TRAIN_EPOCHS}

    @property
    def windows(self):
        return self.info["window_epochs"]

    def invoke(self, small):
        stem = "small" if small else "lab"
        epochs = SMALL_EPOCHS if small else TRAIN_EPOCHS
        out = os.path.join(self.dir, f"{stem}_weights.json")
        self._cli(["train", "--trace", os.path.join(self.dir, f"{stem}.csv"),
                   "--annotations", os.path.join(self.dir, f"{stem}_ann.csv"),
                   "--epochs", str(epochs), "--batch", str(TRAIN_BATCH), "--out", out])
        with open(out, "rb") as fh:
            return fh.read()

    def check_first(self, output):
        """The written weights must tell the lab's gestures from its distractors."""
        from mfed import classifier
        from mfed.signal_core import DetectorConfig, detect_pois, extract_window, smooth

        weights = classifier.load_weights(os.path.join(self.dir, "lab_weights.json"))
        cfg = DetectorConfig()
        smoothed = smooth(_load_trace(os.path.join(self.dir, "lab.csv")), cfg.smooth_len)
        pois = detect_pois(smoothed, cfg)
        gesture = inputs.near_planted(self.planted, [p.t for p in pois])
        accepted = np.array([classifier.forward(weights, extract_window(smoothed, p, cfg)) >= DECISION_THRESHOLD
                             for p in pois])
        problems = []
        if accepted[gesture].sum() < TRAINED_ACCEPT_FLOOR * gesture.sum():
            problems.append(f"train_lab: trained weights accept {accepted[gesture].sum()} "
                            f"of {gesture.sum()} gesture windows")
        if (~accepted[~gesture]).sum() < TRAINED_REJECT_FLOOR * (~gesture).sum():
            problems.append(f"train_lab: trained weights reject {(~accepted[~gesture]).sum()} "
                            f"of {(~gesture).sum()} distractor windows")
        return problems


class SimHome(Workload):
    name = "sim_home"
    home_hours = HOME_HOURS

    def __init__(self, *args):
        super().__init__(*args)
        with np.load(os.path.join(self.dir, "traces.npz")) as z:
            arrays = {k: z[k] for k in z.files}
        # built here, outside the timed region; keyed by ``small``
        self.configs = {small: self._config(arrays, "_small" if small else "") for small in (False, True)}

    def build(self, directory):
        rng = np.random.default_rng([self.seed, 3])
        duration = HOME_HOURS * 3600.0
        span = (HOME_BITES - 1) * inputs.MEAL_GAP_S[1] + 60.0
        last = duration - span - inputs.MEAL_GUARD_S - inputs.EDGE_GUARD_S
        starts = [rng.uniform(*LUNCH_START_S), rng.uniform(SECOND_MEAL_START_S, last)]
        # everyone starts within a minute of the others
        meals = {role: [inputs.meal_times(rng, s + rng.uniform(0.0, 60.0), HOME_BITES) for s in starts]
                 for role, _, _ in FAMILY}
        arrays, described = {}, []
        info = {"gestures": [], "annotations": {}, "planted": {}, "meals": {}}
        for role, _, _ in FAMILY:
            others = [m for r, ms in meals.items() if r != role for m in ms]
            missed = (MISSED[1],) if role == MISSED[0] else ()
            trace = inputs.build_trace(rng, duration, meals[role], HOME_DISTRACTORS,
                                       missed=missed, guard_meals=others)
            small = inputs.build_lab(rng, SMALL_DIPS)
            arrays.update({f"{role}_t": trace.t_ms, f"{role}_xyz": trace.xyz,
                           f"{role}_small_t": small.t_ms, f"{role}_small_xyz": small.xyz})
            described.append(_describe(trace, _pois(_series(trace.t_ms, trace.xyz))))
            info["gestures"] += trace.gestures
            info["planted"][role] = trace.gestures
            info["meals"][role] = trace.meals
            info["annotations"][role] = [t for m in meals[role] for t in m]  # what was eaten
        np.savez(os.path.join(directory, "traces.npz"), **arrays)
        info["input"] = _merge(described)
        return info

    def _config(self, arrays, suffix):
        from mfed import ema, sim, watch

        specs = []
        for role, who_with, _ in FAMILY:
            specs.append(sim.ParticipantSpec(
                participant=ema.Participant(role, "bench", ema.Role(role), (0.0, 24.0)),
                responder=sim.ResponderProfile(response_prob=0.8, who_with=who_with),
                series=_series(arrays[f"{role}{suffix}_t"], arrays[f"{role}{suffix}_xyz"]),
                annotation_times=tuple(self.info["annotations"][role]) if not suffix else (),
            ))
        return sim.HomeConfig(
            home_id="bench",
            participants=tuple(specs),
            beacons=(sim.BeaconSpec("kitchen", 2.0), sim.BeaconSpec("living_room", 5.0)),
            duty=watch.DutyCycleConfig(),
            weights=self.weights_path,
            seed=self.seed,
            start_hour=HOME_START_HOUR,
        )

    def invoke(self, small):
        from mfed import sim

        log = io.StringIO()
        self.summary = sim.run_home_simulation(self.configs[small], log)
        return log.getvalue().encode()

    @property
    def samples(self) -> int:
        return self.info["input"]["rows"]

    def check_first(self, output):
        records = [json.loads(line) for line in output.splitlines()]
        kinds = Counter(r["kind"] for r in records)
        problems = []
        if kinds["eating_event"] != self.summary["events"]:
            problems.append(f"sim_home: {kinds['eating_event']} eating_event records, "
                            f"summary says {self.summary['events']}")
        if kinds["ground_truth"] != len(self.summary["ground_truth"]):
            problems.append("sim_home: ground_truth records differ from the summary")
        if sum(kinds.values()) != self.summary["records"]:
            problems.append("sim_home: log length differs from the summary")
        named = {role: names for role, _, names in FAMILY}
        expected = {n for r in records if r["kind"] == "ema_response" and r.get("eating_confirmed")
                    for n in named[r["participant"]]}
        got = {r["subject"] for r in records
               if r["kind"] == "ground_truth" and "collaborative" in r["provenance"]}
        if got != expected:
            problems.append(f"sim_home: collaborative ground truth for {sorted(got)}, "
                            f"who-with answers name {sorted(expected)}")
        if not got:
            problems.append("sim_home: no collaborative ground truth")
        for role, _, _ in FAMILY:
            events = [r for r in records if r["kind"] == "eating_event" and r["participant"] == role]
            for k, meal in enumerate(self.info["meals"][role]):
                if _covers(events, meal) != ((role, k) != MISSED):
                    problems.append(f"sim_home: {role}'s meal {k} at {meal} is "
                                    + ("missed but has an event" if (role, k) == MISSED else "not covered"))
        detected = {role: [r["t_ms"] / 1000.0 for r in records
                           if r["kind"] == "gesture" and r["participant"] == role] for role, _, _ in FAMILY}
        return problems + _check_gestures(self.name, [(self.info["planted"][role], detected[role])
                                                      for role, _, _ in FAMILY])


WORKLOADS = {w.name: w for w in (DetectDay, TrainLab, SimHome)}
