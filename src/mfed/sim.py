"""Deterministic multi-home simulator on a virtual clock.

One home runs as a single-threaded discrete-event loop: watch nodes replay
their traces, count each PoI at its decision time, and upload on quorum
(see ``watch``); the base station classifies exactly the PoIs each upload
names through ``classifier.gestures``, the accept rule of ``mfed detect``,
clusters gestures into events, and schedules EMAs; seeded responder
agents answer the surveys; ground truth is resolved at the end of the run.
Each participant's event detector only observes the gestures uploads
deliver: an event is finalized when that participant's next event is
detected or when the run ends, so the finalized events always equal
``events.detect_events`` over the participant's logged gestures.
The run ends at ``duration_s`` or, when that is None, one sample period
after the last sample of the trace that ends last. Nothing past the end of
the run is counted or shipped. Identical (config, seed) pairs produce
byte-identical JSONL logs.

Unless ``duty`` is None, each watch scans the beacons at every
``k * beacon_interval`` and samples its battery at every
``k * battery_interval`` up to the end of the run. Both are simulator
events, which hand their readings to the watch: a scan draws each beacon's
RSSI, and the battery drains linearly from full. The readings ride with the
first upload at or after their capture time, or with the final flush.

Everything is logged as one JSONL record per occurrence, ordered by
emission time; beacon and battery records follow the upload that shipped
them and carry their original capture times.

Each config dataclass checks its typed, bounded fields when built, so a
config that exists is valid; ``load_home_config`` builds each JSON section
into one, naming the key path of an unknown key or a bad value.
"""
from __future__ import annotations

import heapq
import itertools
import json
import math
import os
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from typing import Annotated, Any, get_args, get_origin

import numpy as np

from . import classifier, ema, events, traceio, watch
from .errors import ConfigError, InvalidAnswer, ShapeError, check_fields, field_hints
from .signal_core import AccelSeries, DetectorConfig, decision_times, detect_pois, smooth, window_extent
from .traceio import ms

BATTERY_START_PERCENT = 100.0
BATTERY_DRAIN_PER_HOUR = 1.5  # percentage points


@dataclass(frozen=True)
class BeaconSpec:
    id: str
    distance_m: Annotated[float, "[0, inf)"] = 3.0
    tx_power_dbm: Annotated[float, "(-inf, inf)"] = -59.0
    path_loss_exp: Annotated[float, "[0, inf)"] = 2.0
    noise_db: Annotated[float, "[0, inf)"] = 2.0
    __post_init__ = check_fields


@dataclass(frozen=True)
class ResponderProfile:
    response_prob: Annotated[float, "[0, 1]"] = 1.0
    delay_mean_s: Annotated[float, "(0, inf)"] = 120.0
    truthful: bool = True
    who_with: tuple[str, ...] = ()
    eating_type: str = "meal"

    def __post_init__(self):
        check_fields(self)
        try:
            ema.validate_who_with(frozenset(self.who_with))
        except InvalidAnswer as e:
            raise ConfigError(f"who_with: {e}") from e
        if self.eating_type not in ema.EATING_TYPES:
            raise ConfigError(f"eating_type must be one of {ema.EATING_TYPES}, got {self.eating_type!r}")


@dataclass(frozen=True)
class ParticipantSpec:
    participant: ema.Participant
    trace: Annotated[str, "non-empty"] | None = None
    annotations: Annotated[str, "non-empty"] | None = None
    responder: ResponderProfile = ResponderProfile()
    series: AccelSeries | None = None  # programmatic alternative to trace
    annotation_times: tuple[float, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        if self.trace is None and self.series is None:
            raise ConfigError(f"trace must name the trace of participant {self.participant.id}, got None")


@dataclass(frozen=True)
class HomeConfig:
    home_id: str
    participants: Annotated[tuple[ParticipantSpec, ...], "non-empty"]
    beacons: tuple[BeaconSpec, ...] = ()
    detector: DetectorConfig = DetectorConfig()
    policy: watch.UploadPolicy = watch.UploadPolicy()
    duty: watch.DutyCycleConfig | None = watch.DutyCycleConfig()
    weights: Annotated[str, "non-empty"] | None = None
    seed: Any = 0  # checked by with_run_seed, since --seed or MFED_SEED may replace it
    rate: Annotated[float, "(0, inf)"] = 25.0
    start_hour: Annotated[float, "[0, 24)"] = 0.0
    duration_s: Annotated[float, "(0, inf)"] | None = None
    ema_ttl_s: Annotated[float, "(1, inf]"] = 1800.0

    def __post_init__(self):
        check_fields(self)
        ids = [s.participant.id for s in self.participants]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"participants must have unique ids, got {ids}")


def _value(hint, value, path: str):
    """``value`` as a field annotated ``hint`` holds it: lists become tuples,
    roles ``ema.Role``s, and objects the config dataclass the hint names."""
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            return value
        return tuple(_value(get_args(hint)[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if hint is ema.Role:
        return next((role for role in ema.Role if role.value == value), value)
    config = next((h for h in (hint, *get_args(hint)) if is_dataclass(h)), None)
    optional = value is None and type(None) in get_args(hint)
    return value if config is None or optional else _build(config, value, path)


def _build(cls, section, path: str = "", also=(), **given):
    """``cls`` from the JSON object ``section`` at key path ``path``, whose
    keys are the fields of ``cls`` not ``given``, and ``also``: keys another
    class reads. A ConfigError names the key path at fault."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'the config'} must be a JSON object, got {section!r}")
    prefix, hints = f"{path}." if path else "", field_hints(cls)
    known = hints.keys() - given.keys()
    unknown = sorted(section.keys() - known - set(also))
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name in known - section.keys()]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ConfigError(f"{problem} key(s): {', '.join(prefix + k for k in keys)}")
    values = {k: _value(hints[k], v, prefix + k) for k, v in section.items() if k in known}
    try:
        return cls(**values, **given)
    except ConfigError as e:  # a given value is named by the caller's key
        raise ConfigError(str(e) if str(e).split()[0] in given else prefix + str(e)) from e


def load_home_config(path: str) -> HomeConfig:
    """Read the JSON home-config file (schema documented in the README): its
    keys are config dataclass fields, and a left-out key takes the default."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    people = doc.get("participants") if isinstance(doc, dict) else []  # _build names a non-object
    if not isinstance(people, list):
        raise ConfigError(f"participants must be a list of objects, got {people!r}")
    specs = []
    for i, p in enumerate(people):  # fills an ema.Participant, then a ParticipantSpec that names unknown keys
        path, section = f"participants[{i}]", {"role": "other", **p} if isinstance(p, dict) else p
        person = _build(ema.Participant, section, path, also=p, home_id=doc.get("home_id"))
        specs.append(_build(ParticipantSpec, p, path, also=field_hints(ema.Participant).keys() - {"home_id"},
                            participant=person, series=None, annotation_times=None))
    return _build(HomeConfig, doc, also=["participants"], participants=tuple(specs))


class _Node:
    """Per-participant runtime state."""

    def __init__(self, spec: ParticipantSpec, cfg: HomeConfig, rng: np.random.Generator):
        self.spec = spec
        self.pid = spec.participant.id
        self.rng = rng
        self.series = (
            spec.series if spec.series is not None else traceio.load_trace(spec.trace, cfg.rate)
        )
        if spec.annotation_times is not None:
            self.annotations = list(spec.annotation_times)
        elif spec.annotations:
            self.annotations = traceio.load_annotations(spec.annotations)
        else:
            self.annotations = []
        self.smoothed = smooth(self.series, cfg.detector.smooth_len)
        self.pois = detect_pois(self.smoothed, cfg.detector)
        self.poi_at = {poi.t: poi for poi in self.pois}  # upload payloads name PoIs by time
        self.watch = watch.WatchState(self.series)
        self.stream = events.StreamDetector(self.pid)
        self.schedule = ema.ScheduleState()
        self.finalized: list[events.EatingEvent] = []
        self.responses: list[ema.EmaResponse] = []
        self.survey_seq = itertools.count(1)


class HomeSimulation:
    """One home on the virtual clock, seeded with ``config.seed`` as given.

    The constructor loads the traces, the annotations and the weights,
    finds each trace's PoIs and checks that the weights fit each trace's
    window, so a missing, malformed or mismatched input fails before
    ``run`` writes any of the log."""

    def __init__(self, config: HomeConfig):
        self.cfg = config
        self.log_fh = None  # set by run
        self.clock = ema.LocalClock(config.start_hour)
        self.weights = classifier.load_weights(config.weights) if config.weights else None
        self.nodes = [
            _Node(spec, config, np.random.default_rng([config.seed, i]))
            for i, spec in enumerate(config.participants)
        ]
        for node in self.nodes:
            rows = window_extent(config.detector.window_len, node.series.rate)[0]
            if self.weights is not None and rows != self.weights.n:
                raise ShapeError(f"{node.pid}: window has {rows} rows, weights expect {self.weights.n}")
        ends = [float(n.series.t[-1]) + 1.0 / n.series.rate for n in self.nodes if len(n.series)]
        self.duration = config.duration_s or max(ends, default=0.0)
        self.heap: list[tuple[float, int, str, _Node, object]] = []  # seq breaks ties
        self.seq = itertools.count()
        self.records = 0
        self.event_count = 0

    # -- plumbing ----------------------------------------------------------

    def _write(self, record: dict):
        self.log_fh.write(traceio.dump_jsonl_record(record) + "\n")
        self.records += 1

    def _log(self, kind: str, t: float, participant: str, **fields):
        """Write one record of a participant: kind, time and participant, then ``fields``."""
        self._write({"kind": kind, "t_ms": ms(t), "participant": participant, **fields})

    def _push(self, t: float, kind: str, node: _Node, payload=None):
        heapq.heappush(self.heap, (t, next(self.seq), kind, node, payload))

    def _send(self, node: _Node, kind: ema.SurveyKind, at: float, trigger: str, event=None):
        survey = ema.EmaSurvey(f"{node.pid}-{next(node.survey_seq)}", node.pid, kind, trigger, event)
        self._push(at, "ema_send", node, survey)

    # -- event handlers ----------------------------------------------------

    def _handle_poi(self, t: float, node: _Node, poi):
        upload = watch.on_poi(node.watch, poi.t, self.cfg.policy, t)
        if upload is not None:
            self._handle_upload(t, node, upload)
        elif node.watch.upload_due < math.inf:
            self._push(node.watch.upload_due, "tick", node)

    def _handle_tick(self, t: float, node: _Node, _):
        upload = watch.on_tick(node.watch, t)
        if upload is not None:
            self._handle_upload(t, node, upload)

    def _handle_scan(self, t: float, node: _Node, _):
        for beacon in self.cfg.beacons:
            rssi = (
                beacon.tx_power_dbm
                - 10.0 * beacon.path_loss_exp * math.log10(max(beacon.distance_m, 0.1))
                + node.rng.normal(0.0, beacon.noise_db)
            )
            node.watch.pending_beacons.append((t, beacon.id, round(rssi, 2)))

    def _handle_battery(self, t: float, node: _Node, _):
        percent = max(0.0, BATTERY_START_PERCENT - BATTERY_DRAIN_PER_HOUR * t / 3600.0)
        node.watch.pending_battery.append((t, percent))

    def _handle_upload(self, t: float, node: _Node, upload: watch.Upload):
        payload = upload.payload
        self._log(
            "upload", t, node.pid,
            span_start_ms=ms(payload.span[0]), span_end_ms=ms(payload.span[1]), samples=len(payload.accel),
        )
        for bt, beacon_id, rssi in payload.beacon_readings:
            self._log("beacon", bt, node.pid, beacon=beacon_id, rssi_dbm=rssi)
        for bt, pct in payload.battery_samples:
            self._log("battery", bt, node.pid, percent=round(pct, 3))
        # node.smoothed equals the smoothing of the samples shipped so far (decision_times)
        pois = [node.poi_at[poi_t] for poi_t in payload.pois]
        for poi, prob in classifier.gestures(self.weights, node.smoothed, pois, self.cfg.detector):
            self._log("gesture", poi.t, node.pid, **({} if prob is None else {"prob": round(prob, 6)}))
            for emission in node.stream.observe(poi.t, t):
                self._handle_emission(t, node, emission)

    def _handle_emission(self, t: float, node: _Node, emission):
        if isinstance(emission, events.EventDetected):
            self.event_count += 1
            event_id = f"{node.pid}-ev{self.event_count}"
            self._log("event_detected", t, node.pid, event=event_id, start_ms=ms(emission.event.start))
            outcome = ema.on_event_detected(
                node.spec.participant, emission.event, t, node.schedule, self.clock
            )
            if isinstance(outcome, ema.SendEatingEma):
                self._send(node, ema.SurveyKind.EATING, outcome.at, f"event:{event_id}", emission.event)
            else:
                self._log("ema_suppressed", t, node.pid, event=event_id, reason=outcome.reason.value)
        else:  # EventFinalized
            node.finalized.append(emission.event)
            self._write(traceio.eating_event_record(emission.event))

    def _handle_hour(self, t: float, node: _Node, _):
        outcome = ema.hourly_tick(node.spec.participant, t, node.schedule, self.clock)
        if isinstance(outcome, ema.SendMoodEma):
            self._send(node, ema.SurveyKind.MOOD, outcome.at, "hourly")

    def _handle_ema_send(self, t: float, node: _Node, survey: ema.EmaSurvey):
        self._log("ema_sent", t, node.pid, survey=survey.id, ema=survey.kind.value, trigger=survey.trigger)
        profile = node.spec.responder
        if node.rng.random() < profile.response_prob:
            delay = min(self.cfg.ema_ttl_s - 1.0, max(5.0, node.rng.exponential(profile.delay_mean_s)))
            self._push(t + delay, "ema_answer", node, survey)
        else:
            self._push(t + self.cfg.ema_ttl_s, "ema_expire", node, survey)

    def _answers(self, node: _Node, survey: ema.EmaSurvey, t: float):
        """Responder agent answering at ``t``: drive the flow to Terminal,
        truthfully when asked."""
        rng = node.rng
        profile = node.spec.responder
        mood = ema.MoodItems(
            tuple(int(v) for v in rng.integers(1, 5, size=len(ema.MOOD_ITEMS))),
            ate_last_hour=None,
        )
        if survey.kind is ema.SurveyKind.MOOD:
            if profile.truthful:
                ate = any(t - ema.HOURLY_LOOKBACK <= a <= t for a in node.annotations)
            else:
                ate = bool(rng.random() < 0.2)
            return [replace(mood, ate_last_hour=ate)]
        event = survey.event
        if profile.truthful:
            confirmed = any(
                event.start - 120.0 <= a <= event.end + 120.0 for a in node.annotations
            )
        else:
            confirmed = bool(rng.random() < 0.7)
        if not confirmed:
            return [False, ema.NotEatingActivity(frozenset({"using_phone"})), mood]
        battery = ema.EatingBattery(
            hunger=float(rng.integers(0, 101)),
            satiety=float(rng.integers(0, 101)),
            eah=tuple(int(v) for v in rng.integers(1, 5, size=ema.EAH_ITEM_COUNT)),
            who_with=frozenset(profile.who_with) or frozenset({"nobody"}),
            eating_type=profile.eating_type,
        )
        return [True, True, battery, mood]

    def _handle_ema_answer(self, t: float, node: _Node, survey: ema.EmaSurvey):
        state = ema.new_flow(survey)
        for answer in self._answers(node, survey, t):
            state = ema.flow_step(state, answer)
        response = replace(state.collected, t=t)
        node.responses.append(response)
        if survey.kind is ema.SurveyKind.EATING:
            reply = {"eating_confirmed": response.eating_confirmed}
            if response.eating_confirmed:
                reply["who_with"] = sorted(response.who_with)
                reply["eating_type"] = response.eating_type
                reply["hunger"] = response.hunger
                reply["satiety"] = response.satiety
                reply["eah"] = list(response.eah)
            else:
                reply["activities"] = sorted(response.not_eating_activity.options)
        else:
            reply = {"ate_last_hour": response.ate_last_hour}
        self._log(
            "ema_response", t, node.pid, survey=survey.id, ema=survey.kind.value, **reply, mood=list(response.mood)
        )

    def _handle_ema_expire(self, t: float, node: _Node, survey: ema.EmaSurvey):
        self._log("ema_expired", t, node.pid, survey=survey.id)

    # -- main loop ----------------------------------------------------------

    def run(self, log_fh) -> dict:
        """Run the home to completion, writing JSONL to ``log_fh``. Returns
        a summary dict."""
        self.log_fh = log_fh
        end = self.duration
        duty = self.cfg.duty
        captures = [] if duty is None else [("scan", duty.beacon_interval), ("battery", duty.battery_interval)]
        for node in self.nodes:
            # pushed first, so an upload at the instant of a capture ships its readings
            for kind, interval in captures:
                k = 0
                while k * interval <= end:
                    self._push(k * interval, kind, node)
                    k += 1
            for poi, decided in zip(node.pois, decision_times(node.series, node.pois, self.cfg.detector)):
                if decided <= end:
                    self._push(decided, "poi", node, poi)
            first_hour = -(self.cfg.start_hour * 3600.0) % 3600.0
            k = 0
            while first_hour + k * 3600.0 <= end:
                self._push(first_hour + k * 3600.0, "hour", node)
                k += 1

        while self.heap:
            t, _, kind, node, payload = heapq.heappop(self.heap)
            if t > end:
                break
            getattr(self, f"_handle_{kind}")(t, node, payload)

        for node in self.nodes:
            final = watch.flush(node.watch, end)
            if final is not None:
                self._handle_upload(end, node, final)
            for emission in node.stream.finish(end):
                self._handle_emission(end, node, emission)

        ground_truth = self._resolve_ground_truth(end)
        return {
            "records": self.records,
            "events": sum(len(n.finalized) for n in self.nodes),
            "ground_truth": ground_truth,
        }

    def _resolve_ground_truth(self, end: float) -> list[ema.GroundTruthRecord]:
        roster = [n.spec.participant for n in self.nodes]
        responses = [r for n in self.nodes for r in n.responses]
        all_events = [ev for n in self.nodes for ev in n.finalized]
        records = ema.first_person_gt(responses)
        records += ema.resolve_collaborative_gt(responses, roster)
        records += ema.resolve_hourly_gt(responses, all_events)
        for r in records:
            self._write({"kind": "ground_truth", "t_ms": ms(end), **traceio.ground_truth_fields(r)})
        return records


def with_run_seed(config: HomeConfig, flag: int | None) -> HomeConfig:
    """``config`` with the seed of the run: ``flag`` (``mfed simulate
    --seed``) beats ``MFED_SEED``, which beats the config seed. The seed
    must be a non-negative integer; only ``MFED_SEED`` may spell it as a
    decimal string."""
    if flag is not None:
        key, seed = "--seed", flag
    elif "MFED_SEED" in os.environ:
        key, seed = "MFED_SEED", os.environ["MFED_SEED"]
        if seed.strip().isdecimal():
            seed = int(seed)
    else:
        key, seed = "seed", config.seed
    if type(seed) is not int or seed < 0:  # not isinstance: True must not run as seed 1
        raise ConfigError(f"{key} must be a non-negative integer, got {seed!r}")
    return replace(config, seed=seed)


def run_home_simulation(config: HomeConfig, log_fh) -> dict:
    """Run one home to completion, writing JSONL to log_fh. Returns a summary
    dict. ``MFED_SEED`` overrides the config seed."""
    return HomeSimulation(with_run_seed(config, None)).run(log_fh)
