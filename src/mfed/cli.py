"""Command line interface.

Subcommands: detect, train, evaluate, sweep, poi-rate, simulate.
Exit codes: 0 success, 1 usage error, 2 data error.
"""
from __future__ import annotations

import argparse
import contextlib
import logging
import sys

from . import classifier, sim, traceio
from .errors import MfedError
from .signal_core import DetectorConfig, detect_pois, extract_window, smooth
from .events import detect_events
from .metrics import detect_gesture_times, match_gestures, poi_rate, threshold_sweep


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser  # the (sub)command parser whose usage applies


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)

    def parse_known_args(self, args=None, namespace=None):
        # each subcommand's parser rejects the arguments it does not know,
        # so the usage printed is that subcommand's
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, []


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="mfed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_detector_flags(p):
        p.add_argument("--rate", type=float, default=25.0, help="sampling rate in Hz")
        p.add_argument("--xth", type=float, default=DetectorConfig.x_th, help="acceleration threshold (m/s^2)")
        p.add_argument("--vth", type=float, default=DetectorConfig.v_th, help="summed-variance threshold")

    p = sub.add_parser("detect", help="detect eating events in one trace")
    p.add_argument("--trace", required=True)
    add_detector_flags(p)
    p.add_argument("--weights", help="classifier weights (omit for threshold-only)")
    p.add_argument("--out", help="events JSONL (default stdout)")
    p.set_defaults(run=_cmd_detect)

    p = sub.add_parser("train", help="train the gesture classifier")
    p.add_argument("--trace", required=True)
    p.add_argument("--annotations", required=True)
    add_detector_flags(p)
    p.add_argument("--epochs", type=int, default=classifier.TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=classifier.TrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=classifier.TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=classifier.TrainConfig.seed)
    p.add_argument("--out", required=True, help="weights file (.npz)")
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser("evaluate", help="match detections against annotations")
    p.add_argument("--trace", required=True)
    p.add_argument("--annotations", required=True)
    add_detector_flags(p)
    p.add_argument("--weights")
    p.add_argument("--tolerance", type=float, default=4.0)
    p.add_argument("--out", help="CSV (default stdout)")
    p.set_defaults(run=_cmd_evaluate)

    p = sub.add_parser("sweep", help="threshold sweep over xth/vth lists")
    p.add_argument("--trace", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--rate", type=float, default=25.0)
    p.add_argument("--xth", type=_float_list, default=[-1.0, -2.0, -3.0, -4.0, -5.0])
    p.add_argument("--vth", type=_float_list, default=[0.0, 1.0, 2.0, 3.0])
    p.add_argument("--weights")
    p.add_argument("--tolerance", type=float, default=4.0)
    p.add_argument("--out", help="CSV (default stdout)")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("poi-rate", help="PoIs per minute and computation ratios")
    p.add_argument("--trace", required=True)
    add_detector_flags(p)
    p.set_defaults(run=_cmd_poi_rate)

    p = sub.add_parser("simulate", help="run one home config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed and MFED_SEED")
    p.add_argument("--out", help="JSONL log (default stdout)")
    p.add_argument("--gt-out", help="ground-truth CSV path")
    p.set_defaults(run=_cmd_simulate)
    return parser


@contextlib.contextmanager
def _out_fh(path: str | None):
    if path:
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _load_inputs(args):
    series = traceio.load_trace(args.trace, args.rate)
    return series, DetectorConfig(x_th=args.xth, v_th=args.vth)


def _cmd_detect(args) -> int:
    series, cfg = _load_inputs(args)
    weights = classifier.load_weights(args.weights) if args.weights else None
    times, _ = detect_gesture_times(series, cfg, weights)
    with _out_fh(args.out) as fh:
        traceio.write_jsonl(map(traceio.eating_event_record, detect_events(times)), fh)
    return 0


def _cmd_train(args) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    series, cfg = _load_inputs(args)
    annotations = traceio.load_annotations(args.annotations)
    smoothed = smooth(series, cfg.smooth_len)
    data = []
    for poi in detect_pois(smoothed, cfg):
        window = extract_window(smoothed, poi, cfg)
        data.append(classifier.LabeledWindow(window, classifier.label_poi(poi.t, annotations)))
    train_cfg = classifier.TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch, seed=args.seed
    )
    weights = classifier.train(data, train_cfg, rate=args.rate)
    classifier.save_weights(weights, args.out)
    acc = classifier.training_accuracy(weights, data)
    print(f"trained on {len(data)} windows, training accuracy {acc:.3f}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    series, cfg = _load_inputs(args)
    annotations = traceio.load_annotations(args.annotations)
    weights = classifier.load_weights(args.weights) if args.weights else None
    times, n_pois = detect_gesture_times(series, cfg, weights)
    m = match_gestures(times, annotations, args.tolerance)
    with _out_fh(args.out) as fh:
        fh.write("tp,fp,fn,precision,recall,f1,pois\n")
        fh.write(f"{m.tp},{m.fp},{m.fn},{m.precision:.6f},{m.recall:.6f},{m.f1:.6f},{n_pois}\n")
    return 0


def _cmd_sweep(args) -> int:
    series = traceio.load_trace(args.trace, args.rate)
    annotations = traceio.load_annotations(args.annotations)
    weights = classifier.load_weights(args.weights) if args.weights else None
    rows = threshold_sweep(series, annotations, args.xth, args.vth, weights, tolerance=args.tolerance)
    with _out_fh(args.out) as fh:
        fh.write("x_th,v_th,pois_per_min,precision,recall,f1\n")
        for r in rows:
            fh.write(
                f"{r.x_th},{r.v_th},{r.pois_per_min:.6f},{r.precision:.6f},{r.recall:.6f},{r.f1:.6f}\n"
            )
    return 0


def _cmd_poi_rate(args) -> int:
    series, cfg = _load_inputs(args)
    report = poi_rate(series, cfg)
    print(f"pois_per_minute,{report.pois_per_minute:.6f}")
    print(f"ratio_vs_sliding_3s,{report.ratio_vs_sliding_3s:.6f}")
    print(f"ratio_vs_sliding_100ms,{report.ratio_vs_sliding_100ms:.8f}")
    return 0


def _cmd_simulate(args) -> int:
    config = sim.with_run_seed(sim.load_home_config(args.config), args.seed)
    simulation = sim.HomeSimulation(config)  # loads every input before --out is opened
    with _out_fh(args.out) as fh:
        summary = simulation.run(fh)
    if args.gt_out:
        with open(args.gt_out, "w", newline="") as gt_fh:
            traceio.write_ground_truth_csv(summary["ground_truth"], gt_fh)
    print(
        f"simulated home {config.home_id}: {summary['records']} records, "
        f"{summary['events']} eating events",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        e.parser.print_usage(sys.stderr)
        return 1
    try:
        return args.run(args)
    except (MfedError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
