"""Benchmark a parent and a change checkout in alternating pairs.

Run from the root of a checkout:

    python3 tools/bench_pairs.py PARENT CHANGE TOPIC SEED [--seconds S] [--pairs N]

PARENT and CHANGE are the roots of two checkouts. For each workload that
``BENCHMARK.json`` declares, each of N pairs runs

    python3 perfbench/run.py --workload <workload> --seed SEED --seconds S --trace 0

once in each checkout, the parent first in even pairs and the change first
in odd ones, one run at a time. It writes ``BENCH_<TOPIC>.json`` here, in
the layout ``tools/check_bench.py`` checks: per workload the ``parent`` and
``change`` result lines in pair order, and a ``summary`` of each end-to-end
metric with both medians, the parent's interquartile range, the ratio of
the medians and the number of pairs the change won (ties count for
neither). Each side's first machine line is kept. Exits 1 when a run fails
or prints no result line.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
SIDES = ("parent", "change")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The machine line and the result line of one benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["machine"], json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(runs: dict, metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name = m["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)
        sign = 1 if m["better"] == "higher" else -1
        q1, q3 = quartiles(parent)
        out[name] = {
            "parent_median": statistics.median(parent),
            "parent_iqr": q3 - q1,
            "change_median": statistics.median(change),
            "change_over_parent": statistics.median(change) / statistics.median(parent),
            "change_better_pairs": f"{sum(sign * (c - p) > 0 for p, c in zip(parent, change))}/{len(parent)}",
        }
    return out


def commit(checkout: str):
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("topic")
    ap.add_argument("seed", type=int)
    ap.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, to give the parent's quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    machines: dict = {}
    workloads = {}
    try:
        for wl in (w["name"] for w in bench["workloads"]):
            runs: dict = {"parent": [], "change": []}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    machine, result = run_once(checkouts[side], wl, args.seed, seconds)
                    machines.setdefault(side, machine)
                    runs[side].append(result)
                    value = result["metrics"]["trace_h_per_s"]["value"]
                    print(f"{wl} pair {pair + 1}/{args.pairs} {side}: trace_h_per_s {value:.4g}", file=sys.stderr)
            workloads[wl] = {**runs, "summary": summary(runs, bench["end_to_end"])}
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    doc = {
        "topic": args.topic,
        "parent_commit": commit(checkouts["parent"]),
        "change_commit": commit(checkouts["change"]),
        "command": f"python3 perfbench/run.py --workload <workload> --seed {args.seed} --seconds {seconds:g} --trace 0",
        "seed": args.seed,
        "protocol": f"{args.pairs} pairs per workload; parent and change are separate checkouts; each pair runs "
                    "both, alternating which runs first; result lines in pair order",
        "machine": machines,
        "workloads": workloads,
    }
    path = os.path.join(ROOT, f"BENCH_{args.topic}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
