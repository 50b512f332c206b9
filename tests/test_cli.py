import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import mfed
import synth
from mfed import classifier
from mfed.cli import build_parser, main
from mfed.signal_core import DetectorConfig, detect_pois, smooth


@pytest.fixture
def meal_trace(tmp_path):
    rng = np.random.default_rng(0)
    gestures = [60.0 + 20.0 * i for i in range(6)]
    series = synth.gesture_trace(rng, gestures, duration=300.0)
    trace = tmp_path / "trace.csv"
    synth.write_trace_csv(str(trace), series)
    ann = tmp_path / "ann.csv"
    synth.write_annotations_csv(str(ann), gestures)
    return trace, ann, gestures


class TestDetect:
    def test_writes_events_jsonl(self, meal_trace, tmp_path):
        trace, _, gestures = meal_trace
        out = tmp_path / "events.jsonl"
        code = main(["detect", "--trace", str(trace), "--rate", "25", "--out", str(out)])
        assert code == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(events) == 1
        assert events[0]["kind"] == "eating_event"
        assert len(events[0]["gestures"]) == len(gestures)

    def test_holds_one_copy_of_the_samples(self, tmp_path):
        # 100,000 rows in the benchmark's %d,%.6f,%.6f,%.6f format; a second copy
        # of the samples (raw beside smoothed, or parsed records beside the
        # arrays unzipped from them) would take the peak past 1.5 of them
        gestures = [600.0 + 20.0 * i for i in range(8)]
        series = synth.gesture_trace(np.random.default_rng(4), gestures, duration=4000.0)
        trace, out = tmp_path / "trace.csv", tmp_path / "events.jsonl"
        synth.write_trace_csv(str(trace), series)
        # a first run does the lazy imports (np.median's numpy.ma) untraced
        synth.write_trace_csv(str(tmp_path / "short.csv"), series.rows(0, 1000))
        assert main(["detect", "--trace", str(tmp_path / "short.csv"), "--out", str(out)]) == 0
        tracemalloc.start()
        try:
            code = main(["detect", "--trace", str(trace), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert [len(json.loads(line)["gestures"]) for line in out.read_text().splitlines()] == [len(gestures)]
        assert len(series) == 100_000
        assert peak < 1.5 * (series.t.nbytes + series.xyz.nbytes)

    def test_missing_trace_is_data_error(self, tmp_path, capsys):
        code = main(["detect", "--trace", str(tmp_path / "nope.csv"), "--rate", "25"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_detect_with_weights(self, meal_trace, tmp_path):
        from mfed import classifier as C

        trace, _, gestures = meal_trace
        weights = C.init_weights(150, 25.0, np.random.default_rng(0))
        for arr in weights.tensors().values():
            arr[...] = 0.0  # forward = 0.5, inclusive threshold keeps every PoI
        wpath = tmp_path / "w.npz"
        C.save_weights(weights, str(wpath))
        out = tmp_path / "events.jsonl"
        code = main(
            ["detect", "--trace", str(trace), "--rate", "25", "--weights", str(wpath), "--out", str(out)]
        )
        assert code == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(events) == 1
        assert len(events[0]["gestures"]) == len(gestures)

    def test_v1_json_weights_exit_2_naming_mfed_train(self, meal_trace, tmp_path, capsys):
        trace, _, _ = meal_trace
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"version": 1, "meta": {"n": 150, "rate": 25.0}, "out": {"biases": [0.0]}}))
        code = main(["detect", "--trace", str(trace), "--rate", "25", "--weights", str(wpath)])
        assert code == 2
        assert "mfed train" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "evaluate", "sweep"])
    def test_weights_that_do_not_fit_the_window_exit_2_on_a_trace_without_pois(self, command, tmp_path, capsys):
        series = synth.noise_trace(np.random.default_rng(0), duration=60.0)
        assert detect_pois(smooth(series, DetectorConfig().smooth_len), DetectorConfig()) == []
        trace, ann, wpath = tmp_path / "flat.csv", tmp_path / "ann.csv", tmp_path / "w.npz"
        synth.write_trace_csv(str(trace), series)
        synth.write_annotations_csv(str(ann), [])
        classifier.save_weights(classifier.init_weights(100, 25.0, np.random.default_rng(0)), str(wpath))
        args = [command, "--trace", str(trace), "--weights", str(wpath), "--out", str(tmp_path / "out")]
        assert main(args + ([] if command == "detect" else ["--annotations", str(ann)])) == 2
        assert capsys.readouterr().err == "error: window has 150 rows, weights expect 100\n"
        assert not (tmp_path / "out").exists()


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["detect", "--bogus", "x"]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["sweep", "--trace", "t.csv", "--annotations", "a.csv", "--vth=abc"],
                "expected comma-separated numbers, got 'abc'",
            ),
            (["detect", "--trace", "t.csv", "--bogus", "x"], "unrecognized arguments: --bogus x"),
        ],
        ids=["bad-number-list", "unknown-flag"],
    )
    def test_flag_error_prints_subcommand_usage(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert f"usage: mfed {argv[0]}" in err
        assert "_float_list" not in err

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_defaults_come_from_the_config_classes(self, monkeypatch):
        def defaults():
            detect = build_parser().parse_args(["detect", "--trace", "t"])
            train = build_parser().parse_args(["train", "--trace", "t", "--annotations", "a", "--out", "w"])
            return detect.xth, detect.vth, train.xth, train.vth, train.epochs, train.lr, train.batch, train.seed

        d, t = DetectorConfig(), classifier.TrainConfig()
        assert defaults() == (d.x_th, d.v_th, d.x_th, d.v_th, t.epochs, t.learning_rate, t.batch_size, t.seed)
        # a changed default reaches the CLI
        for cls, name, value in [
            (DetectorConfig, "x_th", -4.5), (DetectorConfig, "v_th", 2.5), (classifier.TrainConfig, "epochs", 7),
            (classifier.TrainConfig, "learning_rate", 0.25), (classifier.TrainConfig, "batch_size", 3),
            (classifier.TrainConfig, "seed", 11),
        ]:
            monkeypatch.setattr(cls, name, value)
        assert defaults() == (-4.5, 2.5, -4.5, 2.5, 7, 0.25, 3, 11)


class TestEvaluate:
    def test_reports_metrics(self, meal_trace, tmp_path, capsys):
        trace, ann, _ = meal_trace
        code = main(["evaluate", "--trace", str(trace), "--annotations", str(ann), "--rate", "25"])
        assert code == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        assert header.startswith("tp,fp,fn")
        tp = int(row.split(",")[0])
        assert tp == 6

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_invalid_tolerance_exits_2(self, meal_trace, capsys, command, value):
        trace, ann, _ = meal_trace
        argv = [command, "--trace", str(trace), "--annotations", str(ann), f"--tolerance={value}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "tolerance" in captured.err
        assert captured.out == ""

    def test_unsorted_annotations_exit_2(self, meal_trace, tmp_path, capsys):
        trace, _, _ = meal_trace
        bad = tmp_path / "bad.csv"
        bad.write_text("t_ms\n2000\n1000\n")
        code = main(["evaluate", "--trace", str(trace), "--annotations", str(bad), "--rate", "25"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_bad_annotation_file_exit_2_naming_it(self, meal_trace, tmp_path, capsys):
        trace, _, _ = meal_trace
        bad = tmp_path / "lab_ann.csv"
        bad.write_text("t_ms\n1000\nbad\n")
        code = main(["evaluate", "--trace", str(trace), "--annotations", str(bad), "--rate", "25"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line 3: invalid literal for int() with base 10: 'bad' (in {bad})\n"
        assert captured.out == ""


class TestSweepAndRate:
    def test_sweep_csv(self, meal_trace, tmp_path):
        trace, ann, _ = meal_trace
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--trace", str(trace), "--annotations", str(ann),
                "--rate", "25", "--xth=-1,-3", "--vth=0,1", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x_th,v_th,pois_per_min,precision,recall,f1"
        assert len(lines) == 5

    def test_poi_rate_stdout(self, meal_trace, capsys):
        trace, _, _ = meal_trace
        assert main(["poi-rate", "--trace", str(trace), "--rate", "25"]) == 0
        out = capsys.readouterr().out
        assert "pois_per_minute" in out
        assert "ratio_vs_sliding_3s" in out

    def test_non_finite_sample_exit_2_with_line(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("t_ms,ax,ay,az\n0,0,0,9.8\n40,0,0,9.8\n80,nan,0,9.8\n")
        assert main(["poi-rate", "--trace", str(trace), "--rate", "25"]) == 2
        assert "error: line 4: samples must be finite" in capsys.readouterr().err

    def test_smoothing_overflow_exit_2_without_warnings(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("t_ms,ax,ay,az\n" + "".join(f"{40 * i},1e308,1e308,1e308\n" for i in range(100)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["poi-rate", "--trace", str(trace), "--rate", "25"]) == 2
        assert "error: smoothing overflowed" in capsys.readouterr().err

    def test_variance_overflow_exit_2_without_warnings(self, tmp_path, capsys):
        # a 1 s dip of -scale every 4 s, y flipping sign every row: the smoothed
        # dips are PoIs, and their window variance overflows at 1e200
        def rate_of(scale):
            i = np.arange(3000)
            x = -1.0 - scale * np.maximum(0.0, 1.0 - np.abs(i % 100 - 50) / 30.0)
            y = np.where(i % 2 == 0, -scale, scale)
            rows = "".join(f"{40 * k},{xk!r},{yk!r},9.8\n" for k, xk, yk in zip(i, x.tolist(), y.tolist()))
            trace = tmp_path / "t.csv"
            trace.write_text("t_ms,ax,ay,az\n" + rows)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return main(["poi-rate", "--trace", str(trace), "--rate", "25"]), capsys.readouterr()

        code, out = rate_of(1e100)
        assert code == 0 and "pois_per_minute,0.000000" not in out.out
        code, out = rate_of(1e200)
        assert code == 2
        assert "error: PoI window variance overflowed" in out.err

    @pytest.mark.parametrize("command", ["detect", "poi-rate", "sweep"])
    @pytest.mark.parametrize("flag,key", [("--xth", "x_th"), ("--vth", "v_th"), ("--rate", "rate")])
    def test_nan_flag_exits_2_naming_it(self, meal_trace, capsys, command, flag, key):
        trace, ann, _ = meal_trace
        argv = [command, "--trace", str(trace), f"{flag}=nan"]
        if command == "sweep":
            argv += ["--annotations", str(ann)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""

    def test_undecodable_byte_exit_2_with_line(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_bytes(b"t_ms,ax,ay,az\n0,0,0,9.8\n40,0,\xff,9.8\n")
        assert main(["poi-rate", "--trace", str(trace)]) == 2
        assert "error: line 3: bytes that are not valid UTF-8" in capsys.readouterr().err

    def test_negative_timestamp_exit_2_naming_line_and_file(self, tmp_path, capsys):
        trace = tmp_path / "neg.csv"
        trace.write_text("t_ms,ax,ay,az\n-80,0,0,9.8\n0,0,0,9.8\n")
        assert main(["poi-rate", "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == f"error: line 2: t_ms -80 is negative (in {trace})\n"

    def test_row_after_a_multiline_quoted_field_names_its_physical_line(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text('"t_ms\n",ax,ay,az\n0,0,0,9.8\nbad,0,0,9.8\n')  # bad is on line 4
        assert main(["poi-rate", "--trace", str(trace), "--rate", "25"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line 4: invalid literal for int() with base 10: 'bad' (in {trace})\n"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["poi-rate"], 2),
        (["sweep"], 2),
        (["sweep", "--xth="], 1),
    ],
    ids=["poi-rate", "sweep", "sweep-empty-xth"],
)
def test_empty_data_exits_without_traceback(tmp_path, argv, code):
    trace = tmp_path / "empty.csv"
    trace.write_text("t_ms,ax,ay,az\n")
    ann = tmp_path / "ann.csv"
    ann.write_text("t_ms\n")
    args = argv[:1] + ["--trace", str(trace), "--rate", "25"] + argv[1:]
    if argv[0] == "sweep":
        args += ["--annotations", str(ann)]
    src = os.path.dirname(os.path.dirname(mfed.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "mfed.cli", *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert ("usage" in proc.stderr) == (code == 1)


class TestTrainCommand:
    def test_trains_and_saves(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        gestures = [30.0 + 30.0 * i for i in range(10)]
        series = synth.gesture_trace(rng, gestures, duration=400.0)
        # sprinkle non-eating dips so both classes appear
        for t in (semi + 15.0 for semi in gestures[:5]):
            synth.plant_gesture(series, t, depth=5.5, width_s=0.6, wobble=1.5)
        trace = tmp_path / "t.csv"
        synth.write_trace_csv(str(trace), series)
        ann = tmp_path / "a.csv"
        synth.write_annotations_csv(str(ann), gestures)
        out = tmp_path / "weights.npz"
        code = main(
            [
                "train", "--trace", str(trace), "--annotations", str(ann),
                "--rate", "25", "--epochs", "3", "--out", str(out),
            ]
        )
        assert code == 0
        with np.load(out, allow_pickle=False) as z:
            assert z["version"] == 2
            assert z["n"] == 150

    @pytest.mark.parametrize("flag,value,key", [("--lr", "nan", "learning_rate"), ("--seed", "-1", "seed")])
    def test_invalid_flag_exits_2_before_training(self, meal_trace, tmp_path, capsys, flag, value, key):
        trace, ann, _ = meal_trace
        out = tmp_path / "weights.npz"
        argv = ["train", "--trace", str(trace), "--annotations", str(ann), flag, value, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "epoch" not in err
        assert not out.exists()


class TestSimulate:
    def test_runs_config_and_writes_outputs(self, tmp_path):
        rng = np.random.default_rng(2)
        gestures = [60.0 + 20.0 * i for i in range(6)]
        series = synth.gesture_trace(rng, gestures, duration=900.0)
        trace = tmp_path / "t.csv"
        synth.write_trace_csv(str(trace), series)
        ann = tmp_path / "a.csv"
        synth.write_annotations_csv(str(ann), gestures)
        config = {
            "home_id": "h1",
            "seed": 4,
            "rate": 25.0,
            "start_hour": 11.8,
            "participants": [
                {
                    "id": "p1",
                    "role": "mother",
                    "window": [0.0, 24.0],
                    "trace": str(trace),
                    "annotations": str(ann),
                }
            ],
        }
        cfg_path = tmp_path / "home.json"
        cfg_path.write_text(json.dumps(config))
        log = tmp_path / "log.jsonl"
        gt = tmp_path / "gt.csv"
        code = main(
            ["simulate", "--config", str(cfg_path), "--out", str(log), "--gt-out", str(gt)]
        )
        assert code == 0
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert any(r["kind"] == "eating_event" for r in lines)
        assert gt.read_text().startswith("subject_id,start_ms,end_ms,fact,provenance,sources,missed_detection\n")
        # one CSV row per ground_truth record, holding its fields in order
        logged = [r for r in lines if r["kind"] == "ground_truth"]
        rows = list(csv.reader(gt.read_text().splitlines()))[1:]
        assert logged and len(rows) == len(logged)
        for r, row in zip(logged, rows):
            fields = [r[k] for k in ("subject", "start_ms", "end_ms", "fact", "provenance")]
            assert row == [str(v) for v in fields] + [";".join(r["sources"]), str(r["missed_detection"])]

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "none.json")]) == 2

    def test_invalid_responder_answer_exits_2_before_logging(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        synth.write_trace_csv(str(trace), synth.noise_trace(np.random.default_rng(0), 60.0))
        participant = {"id": "p1", "trace": str(trace), "responder": {"who_with": ["kids"]}}
        cfg_path = tmp_path / "home.json"
        cfg_path.write_text(json.dumps({"home_id": "h1", "participants": [participant]}))
        log = tmp_path / "log.jsonl"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(log)]) == 2
        assert "kids" in capsys.readouterr().err
        assert not log.exists()

    @pytest.mark.parametrize("broken", ["missing_trace", "json_weights"])
    def test_unreadable_input_keeps_earlier_log(self, tmp_path, capsys, broken):
        trace = tmp_path / "t.csv"
        synth.write_trace_csv(str(trace), synth.noise_trace(np.random.default_rng(0), 60.0))
        config = {"home_id": "h1", "participants": [{"id": "p1", "trace": str(trace)}]}
        cfg_path = tmp_path / "home.json"
        cfg_path.write_text(json.dumps(config))
        log = tmp_path / "log.jsonl"
        argv = ["simulate", "--config", str(cfg_path), "--out", str(log)]
        assert main(argv) == 0
        earlier = log.read_bytes()
        assert earlier
        if broken == "missing_trace":
            config["participants"][0]["trace"] = str(tmp_path / "missing.csv")
        else:
            weights = tmp_path / "w.json"
            weights.write_text('{"version": 1, "meta": {"n": 150, "rate": 25.0}}')
            config["weights"] = str(weights)
        cfg_path.write_text(json.dumps(config))
        assert main(argv) == 2
        assert ("missing.csv" if broken == "missing_trace" else "mfed train") in capsys.readouterr().err
        assert log.read_bytes() == earlier

    @pytest.mark.parametrize(
        "section,typo",
        [
            (None, None),
            ("home", "polcy"),
            ("participant", "roel"),
            ("responder", "respone_prob"),
            ("detector", "xth"),
            ("policy", "quorom"),
            ("duty", "beacon_intrval"),
            ("duty", "beacon_scan_len"),
            ("beacon", "distance"),
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, section, typo):
        trace = tmp_path / "t.csv"
        synth.write_trace_csv(str(trace), synth.noise_trace(np.random.default_rng(0), 60.0))
        participant = {"id": "p1", "trace": str(trace), "responder": {"response_prob": 0.5}}
        config = {
            "home_id": "h1",
            "participants": [participant],
            "detector": {"x_th": -2.0},
            "policy": {"quorum": 3},
            "duty": {"beacon_interval": 60.0},
            "beacons": [{"id": "kitchen"}],
        }
        sections = {
            "home": config,
            "participant": participant,
            "responder": participant["responder"],
            "detector": config["detector"],
            "policy": config["policy"],
            "duty": config["duty"],
            "beacon": config["beacons"][0],
        }
        if section is not None:
            sections[section][typo] = 1
        cfg_path = tmp_path / "home.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "log.jsonl")])
        err = capsys.readouterr().err
        if section is None:
            assert code == 0
        else:
            assert code == 2
            assert typo in err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("duration_s", 0),
            ("duration_s", -5),
            ("duration_s", float("nan")),
            ("start_hour", "x"),
            ("start_hour", float("nan")),
            ("ema_ttl_s", 0.5),
            ("ema_ttl_s", 1.0),
            # a removed key: the simulator accepts gestures at classifier.DECISION_THRESHOLD
            ("decision_threshold", "x"),
            ("decision_threshold", 1.5),
            ("seed", -1),
            ("seed", None),
            ("seed", 1.5),
            ("seed", True),
            ("seed", "7"),
            ("seed", " 7"),
            ("MFED_SEED", "x"),
            ("MFED_SEED", "-3"),
            ("--seed", -1),
            ("rate", float("nan")),
            ("rate", "x"),
            ("detector.x_th", float("nan")),
            ("detector.window_len", float("nan")),
            ("detector.window_len", float("inf")),
            ("policy.min_upload_gap", float("nan")),
            ("policy.quorum_window", float("nan")),
            ("duty.beacon_interval", float("nan")),
            ("duty.battery_interval", float("nan")),
            ("responder.delay_mean_s", float("nan")),
            ("beacons.noise_db", -1),
            ("beacons.distance_m", "x"),
            ("beacons.tx_power_dbm", "x"),
            ("beacons.id", 5),
        ],
    )
    def test_invalid_value_exits_2_before_logging(self, tmp_path, capsys, monkeypatch, key, value):
        from mfed import classifier as C

        trace = tmp_path / "t.csv"
        synth.write_trace_csv(str(trace), synth.noise_trace(np.random.default_rng(0), 60.0))
        wpath = tmp_path / "w.npz"
        C.save_weights(C.init_weights(150, 25.0, np.random.default_rng(0)), str(wpath))
        config = {"home_id": "h1", "weights": str(wpath), "participants": [{"id": "p1", "trace": str(trace)}]}
        monkeypatch.delenv("MFED_SEED", raising=False)
        argv = []
        if key == "MFED_SEED":
            monkeypatch.setenv(key, value)
        elif key == "--seed":
            argv = [key, str(value)]
        elif key.startswith("beacons."):
            config["beacons"] = [{"id": "kitchen", key.split(".")[1]: value}]
        elif key.startswith("responder."):
            config["participants"][0]["responder"] = {key.split(".")[1]: value}
        elif "." in key:
            section, name = key.split(".")
            config[section] = {name: value}
        else:
            config[key] = value
        cfg_path = tmp_path / "home.json"
        cfg_path.write_text(json.dumps(config))
        log = tmp_path / "log.jsonl"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(log), *argv]) == 2
        assert key.split(".")[-1] in capsys.readouterr().err
        assert not log.exists()

    @staticmethod
    def _simulate_config(tmp_path, capsys, config):
        """Exit code and stderr of `mfed simulate` on ``config``; the log must not be opened."""
        cfg_path = tmp_path / "home.json"
        cfg_path.write_text(json.dumps(config))
        log = tmp_path / "log.jsonl"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(log)])
        assert not log.exists()
        return code, capsys.readouterr().err

    @staticmethod
    def _probe_config(tmp_path):
        trace = tmp_path / "t.csv"
        synth.write_trace_csv(str(trace), synth.noise_trace(np.random.default_rng(0), 60.0))
        participant = {"id": "p1", "trace": str(trace), "responder": {"response_prob": 0.5}}
        return {
            "home_id": "h1",
            "participants": [participant],
            "detector": {"x_th": -2.0},
            "policy": {"quorum": 3},
            "duty": {"beacon_interval": 60.0},
            "beacons": [{"id": "kitchen"}],
        }

    @pytest.mark.parametrize(
        "path,value",
        [
            ("participants[0].id", 7),
            ("home_id", 5),
            ("participants[0].responder.truthful", "no"),
            ("policy.quorum", 2.5),
            ("participants[0].trace", 7),
            ("participants[0].trace", 0),
            ("weights", 7),
            ("weights", ""),
            ("weights", False),
            ("participants[0].annotations", 0),
            ("participants[0].annotations", ""),
            ("participants[0]", 5),
            ("participants[0].responder", 5),
            ("beacons[0]", 5),
            ("detector", []),
            ("participants[0].responder.who_with", 5),
            ("participants[0].responder.who_with", "children"),
            ("participants[0].role", 3),
            ("participants[0].window", [6, 22, 3]),
            ("participants[0].window", "ab"),
        ],
    )
    def test_wrong_typed_value_exits_2_naming_key_path(self, tmp_path, capsys, path, value):
        config = self._probe_config(tmp_path)
        *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
        section = config
        for k in parents:
            section = section[k]
        section[last] = value
        code, err = self._simulate_config(tmp_path, capsys, config)
        assert code == 2
        assert err.startswith(f"error: {path} ")

    @pytest.mark.parametrize(
        "section", ["participants[0]", "participants[0].responder", "beacons[0]", "detector", "policy", "duty"]
    )
    def test_every_unknown_key_listed_with_its_path(self, tmp_path, capsys, section):
        config = self._probe_config(tmp_path)
        target = config
        for k in re.findall(r"[^.\[\]]+", section):
            target = target[int(k) if k.isdigit() else k]
        target.update(zz_first=1, zz_second=2)
        code, err = self._simulate_config(tmp_path, capsys, config)
        assert code == 2
        assert err.startswith(f"error: unknown key(s): {section}.zz_first, {section}.zz_second\n")

    def test_bad_second_annotation_file_exits_2_naming_it_before_logging(self, tmp_path, capsys):
        config = self._probe_config(tmp_path)
        good, bad = tmp_path / "a1.csv", tmp_path / "a2.csv"
        good.write_text("t_ms\n1000\n")
        bad.write_text("t_ms\n1000\nbad\n")
        config["participants"][0]["annotations"] = str(good)
        p2 = {"id": "p2", "trace": config["participants"][0]["trace"], "annotations": str(bad)}
        config["participants"].append(p2)
        code, err = self._simulate_config(tmp_path, capsys, config)
        assert code == 2
        assert err == f"error: line 3: invalid literal for int() with base 10: 'bad' (in {bad})\n"

    def test_window_that_does_not_fit_the_weights_exits_2_before_logging(self, tmp_path, capsys):
        weights = tmp_path / "w.npz"
        classifier.save_weights(classifier.init_weights(150, 25.0, np.random.default_rng(0)), str(weights))
        config = self._probe_config(tmp_path)
        config["weights"] = str(weights)
        config["detector"]["window_len"] = 5.0  # 125 rows at 25 Hz
        code, err = self._simulate_config(tmp_path, capsys, config)
        assert code == 2
        assert err == "error: p1: window has 125 rows, weights expect 150\n"
