"""Per-layer metrics of a traced run: which functions are wrapped, and how
spans and counts become the reported numbers.

Layers are the ``mfed`` modules. Times are per invocation of the
workload's command, in seconds unless the name says otherwise. Counts
marked in ``COUNTS`` must repeat exactly between invocations on one input.
"""
from __future__ import annotations

import json
import statistics
from collections import Counter

import numpy as np

from inputs import near_planted
from tracer import Target

LAYERS = ("traceio", "signal_core", "kernels", "classifier", "events", "watch", "ema", "sim",
          "metrics", "cli")
DECISION_THRESHOLD = 0.5  # the CLI's and the home config's default
# PoI-count divisors of the paper's two sliding-window baselines: a 6 s
# window stepped by 3 s gives 20 windows a minute, a 100 ms step gives 600
SLIDING_3S_PER_MIN = 20.0
SLIDING_100MS_PER_MIN = 600.0

COUNTS = (
    "traceio.jsonl_records", "signal_core.pois", "classifier.forward_calls",
    "classifier.accept_ratio", "classifier.gesture_accept_ratio", "events.observe_calls",
    "events.events", "watch.calls", "watch.uploads", "watch.samples_shipped", "ema.calls",
    "ema.sent", "ema.suppressed", "ema.answered", "ema.expired", "ema.gt_records", "sim.records",
    "sim.log_bytes", "sim.gesture_to_event_p50_vs", "sim.event_to_ema_p50_vs",
)


def _conv_span(args, kwargs):
    x = args[0] if args else kwargs["x"]
    return "kernels.conv1" if x.shape[-1] == 1 else "kernels.conv2"


class Counts:
    """Counts gathered by the hooks during one invocation."""

    def __init__(self, planted: np.ndarray):
        self.planted = planted
        self.reset()

    def reset(self):
        self.rows_loaded = 0
        self.pois = 0
        self.scan_minutes = 0.0
        self.accepted = 0
        self.gesture_windows = 0
        self.gestures_accepted = 0
        self.events = 0
        self.uploads = 0
        self.samples_shipped = 0

    # hooks: hook(args, kwargs, result)

    def loaded(self, args, kwargs, series):
        self.rows_loaded += len(series)

    def scanned(self, args, kwargs, pois):
        series = args[0]
        self.pois += len(pois)
        self.scan_minutes += len(series) / series.rate / 60.0

    def forwarded(self, args, kwargs, prob):
        accepted = prob >= DECISION_THRESHOLD
        self.accepted += accepted
        poi = getattr(args[1] if len(args) > 1 else kwargs.get("window"), "poi", None)
        if poi is not None and near_planted(self.planted, [poi.t])[0]:
            self.gesture_windows += 1
            self.gestures_accepted += accepted

    def clustered(self, args, kwargs, events):
        self.events += len(events)

    def emitted(self, args, kwargs, emissions):
        self.events += sum(type(e).__name__ == "EventFinalized" for e in emissions)

    def _shipped(self, upload):
        if type(upload).__name__ == "Upload":
            self.uploads += 1
            accel = upload.payload.accel
            self.samples_shipped += len(accel) if accel is not None else 0

    def uploaded(self, args, kwargs, result):
        for item in result if isinstance(result, list) else [result]:
            self._shipped(item)


def targets(counts: Counts) -> list[Target]:
    c = counts
    return [
        Target("mfed.traceio", "load_trace", "traceio.load_trace", c.loaded),
        Target("mfed.traceio", "load_annotations", "traceio.load_annotations"),
        Target("mfed.traceio", "write_jsonl", "traceio.write_jsonl"),
        Target("mfed.traceio", "dump_jsonl_record", "traceio.dump_jsonl_record"),
        Target("mfed.traceio", "write_ground_truth_csv", "traceio.write_ground_truth_csv"),
        Target("mfed.signal_core", "smooth", "signal_core.smooth"),
        Target("mfed.signal_core", "detect_pois", "signal_core.detect_pois", c.scanned),
        Target("mfed.signal_core", "extract_window", "signal_core.extract_window"),
        Target("mfed.kernels", "moving_average", "kernels.moving_average"),
        Target("mfed.kernels", "poi_scan", "kernels.poi_scan"),
        Target("mfed.kernels", "conv2d", _conv_span),
        Target("mfed.kernels", "maxpool2", "kernels.pool"),
        Target("mfed.kernels", "conv2d_backward", "kernels.conv_backward"),
        Target("mfed.kernels", "maxpool2_backward", "kernels.pool_backward"),
        Target("mfed.classifier", "forward", "classifier.forward", c.forwarded),
        Target("mfed.classifier", "loss_and_grads", "classifier.loss_and_grads"),
        Target("mfed.classifier", "train", "classifier.train"),
        Target("mfed.classifier", "training_accuracy", "classifier.training_accuracy"),
        Target("mfed.classifier", "init_weights", "classifier.init_weights"),
        Target("mfed.classifier", "load_weights", "classifier.load_weights"),
        Target("mfed.classifier", "save_weights", "classifier.save_weights"),
        Target("mfed.events", "detect_events", "events.detect_events", c.clustered),
        Target("mfed.events", "StreamDetector.observe", "events.observe", c.emitted),
        Target("mfed.events", "StreamDetector.advance", "events.advance", c.emitted),
        Target("mfed.events", "StreamDetector.finish", "events.finish", c.emitted),
        Target("mfed.watch", "on_poi", "watch.on_poi", c.uploaded),
        Target("mfed.watch", "on_tick", "watch.on_tick", c.uploaded),
        Target("mfed.watch", "flush", "watch.flush", c.uploaded),
        Target("mfed.ema", "on_event_detected", "ema.on_event_detected"),
        Target("mfed.ema", "hourly_tick", "ema.hourly_tick"),
        Target("mfed.ema", "new_flow", "ema.new_flow"),
        Target("mfed.ema", "flow_step", "ema.flow_step"),
        Target("mfed.ema", "first_person_gt", "ema.first_person_gt"),
        Target("mfed.ema", "resolve_collaborative_gt", "ema.resolve_collaborative_gt"),
        Target("mfed.ema", "resolve_hourly_gt", "ema.resolve_hourly_gt"),
        Target("mfed.sim", "run_home_simulation", "sim.run_home_simulation"),
        Target("mfed.metrics", "detect_gesture_times", "metrics.detect_gesture_times"),
        Target("mfed.metrics", "match_gestures", "metrics.match_gestures"),
        Target("mfed.metrics", "poi_rate", "metrics.poi_rate"),
        Target("mfed.metrics", "threshold_sweep", "metrics.threshold_sweep"),
        Target("mfed.cli", "main", "cli.main"),
    ]


def _median_vs(values) -> float:
    return statistics.median(values) if values else 0.0


def log_metrics(log: bytes) -> dict[str, float]:
    """Counts and virtual-clock latencies read from a simulator JSONL log."""
    kinds: Counter = Counter()
    last_gesture: dict[str, int] = {}
    detected: dict[str, int] = {}
    gesture_to_event, event_to_ema = [], []
    for line in log.splitlines():
        r = json.loads(line)
        kind = r["kind"]
        kinds[kind] += 1
        if kind == "gesture":
            last_gesture[r["participant"]] = r["t_ms"]
        elif kind == "event_detected":
            detected[r["event"]] = r["t_ms"]
            gesture_to_event.append((r["t_ms"] - last_gesture[r["participant"]]) / 1000.0)
        elif kind == "ema_sent" and r["trigger"].startswith("event:"):
            event_to_ema.append((r["t_ms"] - detected[r["trigger"][len("event:"):]]) / 1000.0)
    return {
        "ema.sent": kinds["ema_sent"],
        "ema.suppressed": kinds["ema_suppressed"],
        "ema.answered": kinds["ema_response"],
        "ema.expired": kinds["ema_expired"],
        "ema.gt_records": kinds["ground_truth"],
        "sim.records": sum(kinds.values()),
        "sim.log_bytes": len(log),
        "sim.gesture_to_event_p50_vs": _median_vs(gesture_to_event),
        "sim.event_to_ema_p50_vs": _median_vs(event_to_ema),
    }


def invocation_metrics(tr, c: Counts, wall: float, samples: int, log: bytes) -> dict[str, float]:
    """Per-layer numbers of one traced invocation that took ``wall`` seconds.

    ``samples`` counts the trace samples a watch could ship and ``log`` is
    the simulator log; both are 0 and empty except on the simulator workload.
    """
    def total(name):
        return tr.total.get(name, 0.0)

    def calls(name):
        return tr.calls.get(name, 0)

    def prefixed(table, layer):
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    load_s = total("traceio.load_trace")
    ppm = c.pois / c.scan_minutes if c.scan_minutes else 0.0
    forwards = calls("classifier.forward")
    layer_self = tr.layer_self()
    m = {
        "traceio.load_trace_s": load_s,
        "traceio.rows_per_s": c.rows_loaded / load_s if load_s else 0.0,
        "traceio.jsonl_records": calls("traceio.dump_jsonl_record"),
        "traceio.jsonl_s": tr.self_time.get("traceio.write_jsonl", 0.0)
        + tr.self_time.get("traceio.dump_jsonl_record", 0.0),
        "signal_core.smooth_s": total("signal_core.smooth"),
        "signal_core.detect_pois_s": total("signal_core.detect_pois"),
        "signal_core.extract_window_s": total("signal_core.extract_window"),
        "signal_core.pois": c.pois,
        "signal_core.pois_per_min": ppm,
        "signal_core.ratio_vs_sliding_3s": ppm / SLIDING_3S_PER_MIN,
        "signal_core.ratio_vs_sliding_100ms": ppm / SLIDING_100MS_PER_MIN,
        "kernels.moving_average_s": total("kernels.moving_average"),
        "kernels.poi_scan_s": total("kernels.poi_scan"),
        "kernels.conv1_s": total("kernels.conv1"),
        "kernels.conv2_s": total("kernels.conv2"),
        "kernels.pool_s": total("kernels.pool"),
        "kernels.conv_backward_s": total("kernels.conv_backward"),
        "kernels.pool_backward_s": total("kernels.pool_backward"),
        "classifier.forward_calls": forwards,
        "classifier.forward_self_s": tr.self_time.get("classifier.forward", 0.0),
        "classifier.accept_ratio": c.accepted / forwards if forwards else 0.0,
        "classifier.gesture_accept_ratio": c.gestures_accepted / c.gesture_windows if c.gesture_windows else 0.0,
        "classifier.loss_and_grads_s": total("classifier.loss_and_grads"),
        "classifier.load_weights_s": total("classifier.load_weights"),
        "classifier.save_weights_s": total("classifier.save_weights"),
        "events.detect_events_s": total("events.detect_events"),
        "events.observe_calls": calls("events.observe"),
        "events.events": c.events,
        "watch.calls": prefixed(tr.calls, "watch"),
        "watch.s": prefixed(tr.total, "watch"),
        "watch.uploads": c.uploads,
        "watch.samples_shipped": c.samples_shipped,
        "watch.shipped_ratio": c.samples_shipped / samples if samples else 0.0,
        "ema.calls": prefixed(tr.calls, "ema"),
        "ema.s": prefixed(tr.total, "ema"),
        "sim.self_s": tr.self_time.get("sim.run_home_simulation", 0.0),
        "metrics.detect_gesture_times_s": total("metrics.detect_gesture_times"),
        "cli.self_s": tr.self_time.get("cli.main", 0.0),
        "share.classifier_forward": total("classifier.forward") / wall,
    }
    m.update({f"share.{layer}": layer_self.get(layer, 0.0) / wall for layer in LAYERS})
    m.update(log_metrics(log))
    return m
