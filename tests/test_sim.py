import io
import json
import math
import re
import tracemalloc
import types
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import synth
from mfed import classifier, ema, events, metrics, sim, traceio, watch
from mfed.cli import main as cli_main
from mfed.errors import ConfigError
from mfed.signal_core import (
    AccelSeries, DetectorConfig, detect_pois, extract_window, smooth, smooth_width, window_extent,
)


def flat_spec(pid="p1", role=ema.Role.MOTHER, window=(8.0, 20.0), duration=86400.0, **resp):
    rng = np.random.default_rng(0)
    series = synth.noise_trace(rng, duration=duration, rate=5.0, base=(-9.81, 0.0, 0.0), sigma=0.0)
    return sim.ParticipantSpec(
        participant=ema.Participant(pid, "h1", role, window),
        series=series,
        responder=sim.ResponderProfile(**resp),
    )


def run_to_lines(cfg):
    buf = io.StringIO()
    summary = sim.run_home_simulation(cfg, buf)
    return summary, [json.loads(line) for line in buf.getvalue().splitlines()], buf.getvalue()


def records_of(lines, kind):
    return [r for r in lines if r["kind"] == kind]


class TestFlatDay:
    def test_twelve_mood_emas_and_no_eating(self):
        cfg = sim.HomeConfig(
            home_id="h1", participants=(flat_spec(),), duty=None, seed=3, start_hour=0.0
        )
        summary, lines, _ = run_to_lines(cfg)
        sent = records_of(lines, "ema_sent")
        assert len(sent) == 12
        assert all(r["ema"] == "mood" for r in sent)
        hours = [r["t_ms"] / 3600000 for r in sent]
        assert hours == [float(h) for h in range(8, 20)]
        assert summary["events"] == 0

    @pytest.mark.parametrize(
        "start_ms, window, duration, hours",
        [
            # repeated 3600 s steps from 1832.623 s drift below a whole hour apart
            (1_767_377, (0.0, 24.0), 86400.0, range(1, 25)),
            # from 02:42:29.16 the 13:00 tick's local hour computes as 12.999999999999998
            (9_749_160, (13.0, 22.0), 12 * 3600.0, range(13, 15)),
            (9_749_160, (6.0, 13.0), 12 * 3600.0, range(6, 13)),
        ],
    )
    def test_mood_emas_at_fractional_start_hours(self, start_ms, window, duration, hours):
        # gaps and windows are compared in whole milliseconds, so every hour
        # start inside the window sends its mood EMA
        spec = flat_spec(window=window, duration=duration)
        cfg = sim.HomeConfig(
            home_id="h1", participants=(spec,), duty=None, seed=3, start_hour=start_ms / 3.6e6
        )
        sent = records_of(run_to_lines(cfg)[1], "ema_sent")
        assert [(start_ms + r["t_ms"]) / 3_600_000 for r in sent] == [float(h) for h in hours]


class TestDeterminism:
    def _config(self, seed=7):
        rng = np.random.default_rng(1)
        gestures = [600.0 + 20.0 * i for i in range(6)] + [2400.0 + 20.0 * i for i in range(6)]
        series = synth.gesture_trace(rng, gestures, duration=3600.0)
        spec = sim.ParticipantSpec(
            participant=ema.Participant("p1", "h1", ema.Role.MOTHER, (0.0, 24.0)),
            series=series,
            annotation_times=tuple(gestures),
            responder=sim.ResponderProfile(response_prob=0.8),
        )
        return sim.HomeConfig(
            home_id="h1",
            participants=(spec,),
            beacons=(sim.BeaconSpec("kitchen"), sim.BeaconSpec("dining", distance_m=5.0)),
            seed=seed,
            start_hour=9.0,
        )

    def test_same_seed_byte_identical(self):
        _, _, first = run_to_lines(self._config())
        _, _, second = run_to_lines(self._config())
        assert first == second

    def test_different_seed_differs(self):
        _, _, first = run_to_lines(self._config(seed=7))
        _, _, second = run_to_lines(self._config(seed=8))
        assert first != second

    def test_env_seed_override(self, monkeypatch):
        _, _, base = run_to_lines(self._config(seed=7))
        monkeypatch.setenv("MFED_SEED", "8")
        _, _, overridden = run_to_lines(self._config(seed=7))
        assert base != overridden

    def test_seed_flag_beats_env(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1)
        gestures = [60.0 + 20.0 * i for i in range(6)]
        trace = tmp_path / "t.csv"
        synth.write_trace_csv(str(trace), synth.gesture_trace(rng, gestures, duration=600.0))
        ann = tmp_path / "a.csv"
        synth.write_annotations_csv(str(ann), gestures)
        cfg = tmp_path / "home.json"
        cfg.write_text(json.dumps({
            "home_id": "h1", "seed": 1, "start_hour": 11.8, "beacons": [{"id": "kitchen"}],
            "participants": [{"id": "p1", "role": "mother", "trace": str(trace), "annotations": str(ann)}],
        }))

        def log(*flags):
            out = tmp_path / "log.jsonl"
            assert cli_main(["simulate", "--config", str(cfg), "--out", str(out), *flags]) == 0
            return out.read_text()

        monkeypatch.delenv("MFED_SEED", raising=False)
        seed_1, seed_3, seed_9 = log(), log("--seed", "3"), log("--seed", "9")
        assert len({seed_1, seed_3, seed_9}) == 3
        monkeypatch.setenv("MFED_SEED", "9")
        assert log() == seed_9
        assert log("--seed", "3") == seed_3

    def test_conservation_through_pipeline(self):
        _, lines, _ = run_to_lines(self._config())
        uploads = records_of(lines, "upload")
        gesture_ms = {r["t_ms"] for r in records_of(lines, "gesture")}
        for ev in records_of(lines, "eating_event"):
            for g in ev["gestures"]:
                assert g in gesture_ms
                assert any(u["span_start_ms"] <= g < u["span_end_ms"] for u in uploads)
        for r in records_of(lines, "ema_sent"):
            assert r["trigger"] == "hourly" or r["trigger"].startswith("event:")

    def test_beacon_and_battery_records_present(self):
        # the default duty cycle: a scan and a battery sample every 120 s
        _, lines, _ = run_to_lines(self._config())
        beacons = records_of(lines, "beacon")
        batteries = records_of(lines, "battery")
        every_120_s = list(range(0, 3_600_001, 120_000))
        for beacon in ("kitchen", "dining"):
            assert sorted(b["t_ms"] for b in beacons if b["beacon"] == beacon) == every_120_s
        assert len(beacons) == 2 * len(every_120_s)
        assert sorted(b["t_ms"] for b in batteries) == every_120_s
        # 1.5 percentage points an hour from a full battery
        assert all(b["percent"] == round(max(0.0, 100 - 1.5 * b["t_ms"] / 3.6e6), 3) for b in batteries)

    def test_classifier_stage_runs_when_weights_given(self, tmp_path):
        from mfed import classifier as C

        # a zero output layer: every window goes through forward and gets
        # sigmoid(1.0) > DECISION_THRESHOLD, so every uploaded PoI is a gesture
        weights = C.init_weights(150, 25.0, np.random.default_rng(0))
        weights.out_w[...] = 0.0
        weights.out_b[...] = 1.0
        path = tmp_path / "w.npz"
        C.save_weights(weights, str(path))
        cfg = replace(self._config(), beacons=(), duty=None, weights=str(path), seed=7, start_hour=9.0)
        _, lines, _ = run_to_lines(cfg)
        _, threshold_only, _ = run_to_lines(replace(cfg, weights=None))
        gestures = records_of(lines, "gesture")
        assert len(gestures) >= 12
        assert [g["t_ms"] for g in gestures] == [g["t_ms"] for g in records_of(threshold_only, "gesture")]
        assert all(g["prob"] == round(1.0 / (1.0 + math.exp(-1.0)), 6) for g in gestures)
        assert all("prob" not in g for g in records_of(threshold_only, "gesture"))


def _run_recording(cfg, monkeypatch):
    """Run a one-participant ``cfg`` accepting every window. Returns the log,
    the upload payloads, and each classified window with the number of
    uploads that had arrived when it was classified."""
    uploads, classified = [], []

    def recording(fn):
        def wrapper(*args):
            result = fn(*args)
            if isinstance(result, watch.Upload):
                uploads.append(result.payload)
            return result

        return wrapper

    def probabilities(weights, windows):
        classified.extend((window, len(uploads)) for window in windows)
        return [1.0] * len(windows)

    for name in ("on_poi", "on_tick", "flush"):
        monkeypatch.setattr(watch, name, recording(getattr(watch, name)))
    monkeypatch.setattr(classifier, "load_weights", lambda path: types.SimpleNamespace(n=150))
    monkeypatch.setattr(classifier, "probabilities", probabilities)
    _, lines, _ = run_to_lines(cfg)
    return lines, uploads, classified


def _home(gestures, policy, dropout_after=None, **config):
    rng = np.random.default_rng(5)
    series = synth.gesture_trace(rng, gestures, duration=gestures[-1] + 40.0)
    if dropout_after is not None:  # a 5 s dropout right after one gesture's window
        keep = (series.t < dropout_after) | (series.t >= dropout_after + 5.0)
        series = AccelSeries(series.rate, series.t[keep], series.xyz[keep])
    spec = sim.ParticipantSpec(
        participant=ema.Participant("p1", "h1", ema.Role.MOTHER, (0.0, 24.0)), series=series
    )
    return sim.HomeConfig(home_id="h1", participants=(spec,), policy=policy, start_hour=11.8, **config)


def _spaced_home(spacing, policy, count=10, dropout_after=None):
    gestures = [30.0 + spacing * i for i in range(count)]
    return _home(gestures, policy, dropout_after, weights="w.json")


def _events_against_batch(lines):
    """Each participant's logged ``eating_event`` gestures, and what
    ``detect_events`` makes of that participant's logged ``gesture`` times."""
    logged, batch = {}, {}
    for pid in {r["participant"] for r in records_of(lines, "gesture")}:
        logged[pid] = [e["gestures"] for e in records_of(lines, "eating_event") if e["participant"] == pid]
        times = [r["t_ms"] / 1000.0 for r in records_of(lines, "gesture") if r["participant"] == pid]
        batch[pid] = [[round(t * 1000) for t in ev.gesture_times] for ev in events.detect_events(times)]
    return logged, batch


class TestOneDetectionPath:
    def test_simulator_accepts_and_clusters_what_mfed_detect_does(self, monkeypatch):
        gestures = [67.5 + 15.0 * i for i in range(9)] + [967.5 + 15.0 * i for i in range(9)]
        cfg = _home(gestures, watch.UploadPolicy(), weights="w.npz", duty=None)
        # by gesture: rejected, accepted at the threshold, accepted
        probs = (0.25, classifier.DECISION_THRESHOLD, 0.75)
        weights = types.SimpleNamespace(n=150)
        monkeypatch.setattr(classifier, "load_weights", lambda path: weights)
        monkeypatch.setattr(
            classifier, "probabilities", lambda weights, windows: [probs[int(w.poi.t // 15.0) % 3] for w in windows]
        )
        _, lines, _ = run_to_lines(cfg)
        times, n_pois = metrics.detect_gesture_times(cfg.participants[0].series, cfg.detector, weights)
        assert (len(times), n_pois) == (12, 18)
        assert [g["t_ms"] for g in records_of(lines, "gesture")] == [traceio.ms(t) for t in times]
        detected = [traceio.eating_event_record(ev) for ev in events.detect_events(times, "p1")]
        assert len(detected) == 2
        assert records_of(lines, "eating_event") == detected

    def test_logged_probabilities_are_forward_of_each_poi_window(self, tmp_path):
        gestures = [67.5 + 15.0 * i for i in range(9)] + [967.5 + 15.0 * i for i in range(9)]
        cfg = _home(gestures, watch.UploadPolicy(), duty=None)
        series, detector = cfg.participants[0].series, cfg.detector
        smoothed = smooth(series, detector.smooth_len)
        windows = [extract_window(smoothed, poi, detector) for poi in detect_pois(smoothed, detector)]
        weights = classifier.init_weights(150, 25.0, np.random.default_rng(4))
        # the output bias puts the threshold among the windows' logits, so some are rejected
        logits = sorted(math.log(p / (1.0 - p)) for p in classifier.probabilities(weights, windows))
        weights.out_b[0] -= logits[len(logits) // 2]
        path = tmp_path / "w.npz"
        classifier.save_weights(weights, str(path))
        _, lines, _ = run_to_lines(replace(cfg, weights=str(path)))
        logged = records_of(lines, "gesture")
        expected = {traceio.ms(w.poi.t): round(classifier.forward(weights, w), 6) for w in windows}
        assert 0 < len(logged) < len(windows) == 18
        assert [g["prob"] for g in logged] == [expected[g["t_ms"]] for g in logged]
        times, _ = metrics.detect_gesture_times(series, detector, weights)
        assert [g["t_ms"] for g in logged] == [traceio.ms(t) for t in times]

    @pytest.mark.parametrize("shift", [0.0, 1000.0])
    def test_run_covers_a_trace_with_a_dropout_or_a_late_start(self, shift):
        # samples from 0 to 200 s and from 500 to 800 s, six gestures in each part, all moved by shift
        gestures = [60.0 + 15.0 * i for i in range(6)] + [600.0 + 15.0 * i for i in range(6)]
        series = synth.gesture_trace(np.random.default_rng(5), gestures, duration=800.0)
        keep = (series.t < 200.0) | (series.t >= 500.0)
        series = AccelSeries(series.rate, series.t[keep] + shift, series.xyz[keep])
        spec = sim.ParticipantSpec(participant=ema.Participant("p1", "h1", ema.Role.MOTHER, (0.0, 24.0)), series=series)
        _, lines, _ = run_to_lines(sim.HomeConfig(home_id="h1", participants=(spec,), duty=None, start_hour=11.8))
        times, _ = metrics.detect_gesture_times(series, DetectorConfig())
        assert len(times) == 12
        assert [g["t_ms"] for g in records_of(lines, "gesture")] == [traceio.ms(t) for t in times]


class TestBaseStationMemory:
    def test_holds_read_only_poi_windows_and_frees_the_smoothed_trace(self):
        gestures = [600.0 + 20.0 * i for i in range(6)] + [4200.0 + 20.0 * i for i in range(6)]
        series = synth.gesture_trace(np.random.default_rng(1), gestures, duration=7200.0)
        spec = sim.ParticipantSpec(participant=ema.Participant("p1", "h1", ema.Role.MOTHER, (0.0, 24.0)), series=series)
        tracemalloc.start()
        try:
            simulation = sim.HomeSimulation(sim.HomeConfig(home_id="h1", participants=(spec,)))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < series.xyz.nbytes / 2
        windows = list(simulation.nodes[0].windows.values())
        assert [w.poi.t for w in windows] == [poi.t for poi in simulation.nodes[0].pois]
        assert len(windows) == 12
        assert not any(w.samples.flags.writeable for w in windows)


class TestUploadedData:
    """The base station only reads what the watch has uploaded."""

    @given(
        quorum=st.integers(1, 5),
        quorum_window=st.floats(5.0, 200.0),
        min_upload_gap=st.floats(0.0, 90.0),
        spacing=st.floats(2.5, 12.0),
        dropout=st.none() | st.floats(0.0, 1.0),
    )
    @example(quorum=1, quorum_window=120.0, min_upload_gap=0.0, spacing=3.2, dropout=None)
    @example(quorum=1, quorum_window=120.0, min_upload_gap=0.0, spacing=8.0, dropout=0.2)
    @example(quorum=2, quorum_window=10.5625, min_upload_gap=43.0, spacing=10.5625, dropout=None)
    @settings(max_examples=40, deadline=None)
    def test_windows_equal_smoothing_of_uploaded_samples(
        self, quorum, quorum_window, min_upload_gap, spacing, dropout
    ):
        policy = watch.UploadPolicy(quorum, quorum_window, min_upload_gap)
        # the dropout starts up to 1 s after the 4th gesture's window ends
        cut = None if dropout is None else 30.0 + 3 * spacing + 3.0 + dropout
        cfg = _spaced_home(spacing, policy, dropout_after=cut)
        with pytest.MonkeyPatch.context() as mp:
            _, uploads, classified = _run_recording(cfg, mp)
        assert classified
        for window, arrived in classified:
            shipped = [p.accel for p in uploads[:arrived]]
            received = AccelSeries(
                shipped[0].rate,
                np.concatenate([a.t for a in shipped]),
                np.concatenate([a.xyz for a in shipped]),
            )
            expected = extract_window(smooth(received, cfg.detector.smooth_len), window.poi, cfg.detector)
            assert np.array_equal(window.samples, expected.samples)

    def test_no_poi_ships_before_its_samples(self, monkeypatch):
        # one upload per PoI, as early as the quorum rule allows
        cfg = _spaced_home(3.2, watch.UploadPolicy(quorum=1, min_upload_gap=0.0), count=16)
        lines, _, classified = _run_recording(cfg, monkeypatch)
        detector = cfg.detector
        series = cfg.participants[0].series
        _, _, right = window_extent(detector.window_len, series.rate)
        half = smooth_width(detector.smooth_len, series.rate) // 2
        needed = {
            round(p.t * 1000): series.t[p.index + right + half]
            for p in detect_pois(smooth(series, detector.smooth_len), detector)
        }
        upload_t = None
        gestures = 0
        for r in lines:
            if r["kind"] == "upload":
                upload_t = r["t_ms"] / 1000.0
            elif r["kind"] == "gesture":
                gestures += 1
                assert upload_t >= needed[r["t_ms"]]
        assert gestures == len(classified) == 16

    @given(
        quorum=st.integers(1, 6),
        quorum_window=st.floats(5.0, 200.0),
        min_upload_gap=st.floats(0.0, 90.0),
        spacing=st.floats(2.5, 30.0),
        count=st.integers(3, 8),
        gap=st.floats(2.5, 400.0),
        second=st.integers(1, 5),
        dropout=st.none() | st.floats(0.0, 1.0),
    )
    @example(quorum=4, quorum_window=120.0, min_upload_gap=60.0, spacing=20.0, count=6,
             gap=1700.0, second=6, dropout=None)
    @example(quorum=4, quorum_window=120.0, min_upload_gap=60.0, spacing=20.0, count=6,
             gap=200.0, second=3, dropout=0.5)
    @settings(max_examples=60, deadline=None)
    def test_eating_events_equal_batch_clustering_of_logged_gestures(
        self, quorum, quorum_window, min_upload_gap, spacing, count, gap, second, dropout
    ):
        first = [30.0 + spacing * i for i in range(count)]
        gestures = first + [first[-1] + gap + spacing * i for i in range(second)]
        # the dropout starts up to 1 s after the 2nd gesture's window ends
        cut = None if dropout is None else first[1] + 3.0 + dropout
        policy = watch.UploadPolicy(quorum, quorum_window, min_upload_gap)
        _, lines, _ = run_to_lines(_home(gestures, policy, cut))
        logged, batch = _events_against_batch(lines)
        assert logged == batch

    def test_determinism_home_logs_whole_meals(self):
        # the last two gestures of each meal miss the default quorum of 4 and
        # arrive with a later upload, after the meal's merge horizon has passed
        _, lines, _ = run_to_lines(TestDeterminism()._config())
        logged, batch = _events_against_batch(lines)
        assert logged == batch
        meals = [[600_000 + 20_000 * i for i in range(6)], [2_400_000 + 20_000 * i for i in range(6)]]
        assert logged == {"p1": meals}

    def test_duration_shorter_than_trace(self):
        rng = np.random.default_rng(1)
        gestures = [600.0 + 20.0 * i for i in range(6)] + [2400.0 + 20.0 * i for i in range(6)]
        spec = sim.ParticipantSpec(
            participant=ema.Participant("p1", "h1", ema.Role.MOTHER, (0.0, 24.0)),
            series=synth.gesture_trace(rng, gestures, duration=3600.0),
            annotation_times=tuple(gestures),
        )
        cfg = sim.HomeConfig(
            home_id="h1", participants=(spec,), seed=7, start_hour=9.0, duration_s=2000.0
        )
        _, lines, _ = run_to_lines(cfg)
        assert records_of(lines, "gesture")
        for r in lines:
            for key in ("t_ms", "span_end_ms", "end_ms"):
                assert r.get(key, 0) <= 2_000_000, r
        shipped = sum(r["samples"] for r in records_of(lines, "upload"))
        assert shipped == 2000 * 25 + 1  # every sample up to and including t = 2000 s


class TestDutyCycle:
    """Beacon readings and battery samples ride with the watch's uploads."""

    @given(
        battery_interval=st.integers(5, 200),
        beacon_interval=st.integers(10, 300),
        quorum=st.integers(1, 5),
        quorum_window=st.floats(5.0, 200.0),
        min_upload_gap=st.integers(0, 90),
        spacing=st.floats(2.5, 30.0),
        count=st.integers(3, 16),
    )
    @example(battery_interval=30, beacon_interval=120, quorum=4, quorum_window=120.0,
             min_upload_gap=40, spacing=10.0, count=12)
    @settings(max_examples=40, deadline=None)
    def test_records_ship_with_first_upload_at_or_after_capture(
        self, battery_interval, beacon_interval, quorum, quorum_window, min_upload_gap, spacing, count
    ):
        # whole-second intervals and gaps keep every upload and capture time
        # exact in milliseconds
        gestures = [30.0 + spacing * i for i in range(count)]
        policy = watch.UploadPolicy(quorum, quorum_window, float(min_upload_gap))
        duty = watch.DutyCycleConfig(
            beacon_interval=float(beacon_interval), battery_interval=float(battery_interval)
        )
        cfg = _home(gestures, policy, duty=duty, beacons=(sim.BeaconSpec("kitchen"),))
        _, lines, _ = run_to_lines(cfg)
        uploads = []  # t_ms of each upload, the final flush last
        shipped = {"beacon": [], "battery": []}  # (capture t_ms, index of the shipping upload)
        for r in lines:
            if r["kind"] == "upload":
                uploads.append(r["t_ms"])
            elif r["kind"] in shipped:
                shipped[r["kind"]].append((r["t_ms"], len(uploads) - 1))
        for kind, records in shipped.items():
            for t, i in records:
                assert i == next(j for j, u in enumerate(uploads) if u >= t), (kind, t, uploads)
        end = cfg.participants[0].series.duration
        for kind, interval in (("beacon", beacon_interval), ("battery", battery_interval)):
            captures = [1000 * interval * k for k in range(int(end // interval) + 1)]
            assert sorted(t for t, _ in shipped[kind]) == captures, kind

        _, quiet, _ = run_to_lines(replace(cfg, duty=None))
        assert records_of(quiet, "beacon") == records_of(quiet, "battery") == []

    @pytest.mark.parametrize("min_upload_gap, at_ms", [(0.0, (33_480,)), (33.48, (33_480, 66_960))])
    def test_capture_at_an_upload_instant_ships_with_that_upload(self, min_upload_gap, at_ms):
        # the first PoI is decided at 33.48 s; with a 33.48 s gap the second
        # one's upload is held back to 66.96 s, when a tick ships it
        duty = watch.DutyCycleConfig(beacon_interval=33.48, battery_interval=33.48)
        policy = watch.UploadPolicy(quorum=1, min_upload_gap=min_upload_gap)
        cfg = _home([30.0 + 10.0 * i for i in range(10)], policy, duty=duty, beacons=(sim.BeaconSpec("kitchen"),))
        _, lines, _ = run_to_lines(cfg)
        shipped_by = {}  # (kind, capture t_ms): t_ms of the upload that shipped it
        for r in lines:
            if r["kind"] == "upload":
                upload_ms = r["t_ms"]
            elif r["kind"] in ("beacon", "battery"):
                shipped_by[r["kind"], r["t_ms"]] = upload_ms
        for t in at_ms:
            assert shipped_by["beacon", t] == shipped_by["battery", t] == t


def shared_meal_home(meal_t=60.0, c_responds=False, b_who=("spouse_partner",), d_who=("mother", "brothers")):
    """Four family members eat together; A's watch misses the meal."""
    gestures = [meal_t + 20.0 * i for i in range(6)]
    duration = 1800.0

    def spec(pid, role, who, prob, detected=True):
        rng = np.random.default_rng(hash(pid) % 2**31)
        if detected:
            series = synth.gesture_trace(rng, gestures, duration=duration)
        else:
            series = synth.noise_trace(rng, duration=duration)
        return sim.ParticipantSpec(
            participant=ema.Participant(pid, "h1", role, (0.0, 24.0)),
            series=series,
            annotation_times=tuple(gestures),
            responder=sim.ResponderProfile(
                response_prob=prob, delay_mean_s=30.0, who_with=tuple(who)
            ),
        )

    return sim.HomeConfig(
        home_id="h1",
        participants=(
            spec("A", ema.Role.MOTHER, (), 1.0, detected=False),
            spec("B", ema.Role.FATHER, b_who, 1.0),
            spec("C", ema.Role.SON, ("mother",), 1.0 if c_responds else 0.0),
            spec("D", ema.Role.DAUGHTER, d_who, 1.0),
        ),
        duty=None,
        seed=11,
        start_hour=11.8,  # first hourly tick lands after the eating EMAs
        duration_s=duration,
        ema_ttl_s=600.0,  # short enough that expiries land inside the run
    )


class TestSharedMealScenario:
    def test_collaborative_records_for_undetected_and_nonrespondent(self):
        summary, lines, _ = run_to_lines(shared_meal_home())
        collab = [
            r
            for r in records_of(lines, "ground_truth")
            if "collaborative" in r["provenance"] and r["fact"] == "was_eating"
        ]
        assert {r["subject"] for r in collab} == {"A", "C"}
        by_subject = {r["subject"]: r for r in collab}
        b_survey = next(r["survey"] for r in records_of(lines, "ema_response") if r["participant"] == "B")
        d_survey = next(r["survey"] for r in records_of(lines, "ema_response") if r["participant"] == "D")
        assert set(by_subject["A"]["sources"]) == {b_survey, d_survey}
        assert set(by_subject["C"]["sources"]) == {d_survey}

    def test_ambiguous_children_mention_yields_nothing(self):
        cfg = shared_meal_home(b_who=("children",), d_who=())
        _, lines, _ = run_to_lines(cfg)
        collab = [r for r in records_of(lines, "ground_truth") if "collaborative" in r["provenance"]]
        assert collab == []

    def test_nonrespondent_survey_expires(self):
        _, lines, _ = run_to_lines(shared_meal_home())
        expired = records_of(lines, "ema_expired")
        assert any(r["participant"] == "C" for r in expired)

    def test_undetected_participant_flagged_by_hourly(self):
        _, lines, _ = run_to_lines(shared_meal_home())
        hourly = [
            r
            for r in records_of(lines, "ground_truth")
            if r["subject"] == "A" and r["provenance"] == "first_person" and r["fact"] == "was_eating"
        ]
        assert any(r["missed_detection"] for r in hourly)


def layout_home(weights=None):
    """A home whose log holds every record kind: mom confirms her first meal
    and has her second suppressed, dad denies his, and son never answers."""
    def spec(pid, role, meals, annotated, prob):
        gestures = [m + 20.0 * i for m in meals for i in range(6)]
        return sim.ParticipantSpec(
            participant=ema.Participant(pid, "h1", role),
            series=synth.gesture_trace(np.random.default_rng(len(pid)), gestures, duration=5400.0),
            annotation_times=tuple(gestures) if annotated else (),
            responder=sim.ResponderProfile(response_prob=prob, delay_mean_s=30.0, who_with=("spouse_partner",)),
        )

    return sim.HomeConfig(
        home_id="h1",
        participants=(
            spec("mom", ema.Role.MOTHER, (60.0, 1200.0), True, 1.0),
            spec("dad", ema.Role.FATHER, (60.0,), False, 1.0),
            spec("son", ema.Role.SON, (60.0,), True, 0.0),
        ),
        beacons=(sim.BeaconSpec("kitchen"),),
        weights=weights,
        seed=3,
        start_hour=11.8,
        ema_ttl_s=600.0,
    )


def _layout(record) -> str:
    """The README's name for the layout of ``record``."""
    if record["kind"] == "gesture":
        return "gesture (with `weights`)" if "prob" in record else "gesture (without `weights`)"
    if record["kind"] == "ema_response":
        if record["ema"] == "mood":
            return "ema_response (mood)"
        return f"ema_response (eating, {'confirmed' if record['eating_confirmed'] else 'not confirmed'})"
    return record["kind"]


class TestLogLayout:
    def test_every_kind_has_the_readme_key_order(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = re.search(r"\*\*Simulation log\*\*(.*?)\n\n(.*?)\n\n", readme, re.S).group(2)
        documented = {}
        for line in section.splitlines():
            kind, variant, keys = re.fullmatch(r"- `(\w+)`(.*?): (.*)", line).groups()
            documented[kind + variant] = keys.split(", ")
        weights = classifier.init_weights(150, 25.0, np.random.default_rng(0))
        weights.out_w[...] = 0.0
        weights.out_b[...] = 1.0  # every window is a gesture
        classifier.save_weights(weights, str(tmp_path / "w.npz"))
        lines = run_to_lines(layout_home())[1] + run_to_lines(layout_home(str(tmp_path / "w.npz")))[1]
        assert {_layout(r) for r in lines} == documented.keys()
        for r in lines:
            assert list(r) == documented[_layout(r)], _layout(r)

    def test_collaborative_window_starts_no_earlier_than_the_run(self):
        # mom names dad for the meal whose event is 60 s in: 60 - 900 s clips to 0
        _, lines, _ = run_to_lines(layout_home())
        (collab,) = [r for r in records_of(lines, "ground_truth") if r["provenance"] == "collaborative"]
        assert collab["subject"] == "dad"
        assert (collab["start_ms"], collab["end_ms"]) == (0, 960_000)

    def test_hourly_window_starts_no_earlier_than_the_run(self):
        # from 11:30 the first mood EMA goes out at 12:00 and is answered about
        # 1847 s in: its hour of lookback clips to 0
        cfg = sim.HomeConfig(home_id="h1", participants=(flat_spec(),), duty=None, seed=3, start_hour=11.5)
        first = records_of(run_to_lines(cfg)[1], "ground_truth")[0]
        assert first["sources"] == ["p1-1"]
        assert (first["start_ms"], first["end_ms"]) == (0, 1_846_759)
        assert first["missed_detection"] is False

    def test_truthful_hourly_answer_covers_the_recorded_hour(self):
        # the second mood EMA goes out at 3600 s and is answered at 3782.147 s;
        # both meals fall in the hour before the answer that the record covers
        spec = replace(flat_spec(window=(0.0, 24.0), duration=7200.0), annotation_times=(3605.0, 3620.0))
        cfg = sim.HomeConfig(home_id="h1", participants=(spec,), duty=None, seed=4)
        records = records_of(run_to_lines(cfg)[1], "ground_truth")
        assert (records[1]["start_ms"], records[1]["end_ms"]) == (182_147, 3_782_147)
        for r in records:
            ate = any(r["start_ms"] <= traceio.ms(a) <= r["end_ms"] for a in spec.annotation_times)
            assert r["fact"] == ("was_eating" if ate else "was_not_eating")
        assert [r["fact"] for r in records] == ["was_not_eating", "was_eating"]

    def test_untruthful_responder_answers_at_random(self):
        # without annotations a truthful responder denies every meal and every
        # hour; an untruthful one confirms and denies both. The first tick is
        # outside the window and each meal's EMA is due 60 s later in its hour
        # than the last, so three eating EMAs go out before the mood EMAs resume
        meals = [1800.0 + 3660.0 * k for k in range(3)]
        series = synth.gesture_trace(
            np.random.default_rng(5), [m + 15.0 * i for m in meals for i in range(4)], duration=8 * 3600.0
        )
        spec = sim.ParticipantSpec(
            participant=ema.Participant("p1", "h1", ema.Role.MOTHER, (0.25, 24.0)),
            series=series,
            responder=sim.ResponderProfile(truthful=False),
        )
        _, lines, _ = run_to_lines(sim.HomeConfig(home_id="h1", participants=(spec,), duty=None, seed=0))
        responses = records_of(lines, "ema_response")
        assert [r["eating_confirmed"] for r in responses if r["ema"] == "eating"] == [True, True, False]
        assert [r["ate_last_hour"] for r in responses if r["ema"] == "mood"] == [False, False, True, True]


def _readme_home_config() -> str:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    return re.search(r"\*\*Home config JSON\*\*.*?```json\n(.*?)```", readme, re.S).group(1)


def _config_slots(node, path=""):
    """(key path, container, key) of each value an object key names, and of
    each object in a list; the items of a list of scalars are not slots."""
    if isinstance(node, dict):
        items = [(f"{path}.{k}" if path else k, k, v) for k, v in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{i}]", i, v) for i, v in enumerate(node) if isinstance(v, dict)]
    else:
        items = []
    for p, k, v in items:
        yield p, node, k
        yield from _config_slots(v, p)


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _one_person_home(**fields):
    return sim.HomeConfig(home_id="h", participants=(flat_spec(),), **fields)


class TestConfigValidation:
    def test_duplicate_participant_ids(self):
        spec = flat_spec()
        with pytest.raises(ConfigError):
            sim.HomeConfig(home_id="h", participants=(spec, spec))

    def test_requires_participants(self):
        with pytest.raises(ConfigError):
            sim.HomeConfig(home_id="h", participants=())

    @pytest.mark.parametrize(
        "make,fields,ok",
        [
            # the infinite ends each bound has always let through, and those it has not
            (DetectorConfig, {"x_th": -math.inf}, True),
            (DetectorConfig, {"v_th": math.inf}, True),
            (DetectorConfig, {"peak_min_gap": math.inf}, False),
            (DetectorConfig, {"smooth_len": math.inf}, False),
            (sim.BeaconSpec, {"id": "b", "tx_power_dbm": -math.inf}, False),
            (sim.BeaconSpec, {"id": "b", "noise_db": math.inf}, False),
            (watch.DutyCycleConfig, {"battery_interval": math.inf}, False),
            (classifier.TrainConfig, {"learning_rate": math.inf}, False),
            (_one_person_home, {"ema_ttl_s": math.inf}, True),
            (_one_person_home, {"rate": math.inf}, False),
            # a float field takes any real number, an int field only an int, neither a bool
            (watch.UploadPolicy, {"quorum_window": 120, "min_upload_gap": np.float32(1.5)}, True),
            (watch.UploadPolicy, {"quorum": 2.0}, False),
            (watch.UploadPolicy, {"quorum": True}, False),
            (watch.UploadPolicy, {"min_upload_gap": False}, False),
            (classifier.TrainConfig, {"epochs": 1, "batch_size": 1, "seed": 0}, True),
            (classifier.TrainConfig, {"seed": -1}, False),
            (sim.ResponderProfile, {"response_prob": True}, False),
            (sim.ResponderProfile, {"truthful": 1}, False),
            (sim.ResponderProfile, {"who_with": ["mother"]}, False),
            (partial(ema.Participant, "p", "h", ema.Role.SON), {"window": (6, 22)}, True),
            (partial(ema.Participant, "p", "h", ema.Role.SON), {"window": (22, 6)}, False),
            (partial(ema.Participant, "p", "h"), {"role": "son"}, False),
        ],
    )
    def test_fields_checked_when_built(self, make, fields, ok):
        if ok:
            make(**fields)
        else:
            with pytest.raises(ConfigError, match=list(fields)[-1]):
                make(**fields)

    @pytest.mark.parametrize(
        "responder",
        [{"who_with": ("kids",)}, {"who_with": ("nobody", "mother")}, {"eating_type": "brunch"}],
    )
    def test_responder_answers_must_be_valid(self, responder):
        with pytest.raises(ConfigError):
            sim.HomeConfig(home_id="h", participants=(flat_spec(**responder),))

    def test_load_home_config_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        series = synth.gesture_trace(rng, [100.0], duration=200.0)
        trace_path = tmp_path / "trace.csv"
        synth.write_trace_csv(str(trace_path), series)
        ann_path = tmp_path / "ann.csv"
        synth.write_annotations_csv(str(ann_path), [100.0])
        doc = {
            "home_id": "h9",
            "seed": 5,
            "rate": 25.0,
            "start_hour": 7.5,
            "duration_s": 200.0,
            "weights": None,
            "beacons": [{"id": "kitchen", "distance_m": 2.0}],
            "participants": [
                {
                    "id": "p1",
                    "role": "daughter",
                    "window": [6.0, 22.0],
                    "trace": str(trace_path),
                    "annotations": str(ann_path),
                    "responder": {"response_prob": 0.5, "who_with": ["mother"]},
                }
            ],
        }
        path = tmp_path / "home.json"
        path.write_text(json.dumps(doc))
        cfg = sim.load_home_config(str(path))
        assert cfg.home_id == "h9"
        assert cfg.participants[0].participant.role is ema.Role.DAUGHTER
        assert cfg.participants[0].responder.who_with == ("mother",)
        summary, lines, _ = run_to_lines(cfg)
        assert summary["records"] == len(lines)

    def test_readme_home_config_loads(self, tmp_path):
        path = tmp_path / "home.json"
        path.write_text(_readme_home_config())
        cfg = sim.load_home_config(str(path))  # the traces it names are not opened
        assert cfg.duty == watch.DutyCycleConfig()
        assert [s.participant.id for s in cfg.participants] == ["mom"]

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_mutated_readme_config_loads_or_names_key_path(self, tmp_path, data):
        # a mutant either loads or raises a ConfigError naming the key path it mutated
        doc = json.loads(_readme_home_config())
        slots = list(_config_slots(doc))
        kind = data.draw(st.sampled_from(["swap", "add", "drop", "wrap"]))
        if kind == "drop":
            path, parent, key = data.draw(st.sampled_from([s for s in slots if isinstance(s[1], dict)]))
            del parent[key]
        elif kind == "swap":
            path, parent, key = data.draw(st.sampled_from(slots))
            kinds = {_json_type(v): v for v in (None, True, 7, "x", [1], {})}
            kinds.pop(_json_type(parent[key]))
            parent[key] = data.draw(st.sampled_from(sorted(kinds.values(), key=repr)))
        else:  # a section: the whole config or an object inside it
            sections = [("", None, None)] + [s for s in slots if isinstance(s[1][s[2]], dict)]
            path, parent, key = data.draw(st.sampled_from(sections))
            section = doc if parent is None else parent[key]
            if kind == "add":
                section["zz_unknown"] = 1
                path = f"{path}.zz_unknown" if path else "zz_unknown"
            elif parent is None:
                doc = [doc]
            else:
                parent[key] = [section]
        config = tmp_path / "home.json"
        config.write_text(json.dumps(doc))
        try:
            sim.load_home_config(str(config))
        except ConfigError as e:
            assert str(e).startswith(path) or f"key(s): {path}" in str(e)

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"home_id\": \"h\"}")
        with pytest.raises(ConfigError):
            sim.load_home_config(str(path))
        path.write_text("{\"home_id\": \"h\",}")
        with pytest.raises(ConfigError, match=r"^config is not valid JSON: Expecting property name .*: line 1 column 17 \(char 16\)$"):
            sim.load_home_config(str(path))
