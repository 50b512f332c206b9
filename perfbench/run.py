"""Benchmark of the whole mfed pipeline.

Run from the root of an mfed checkout:

    python3 perfbench/run.py --workload detect_day --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``detect_day``, ``train_lab`` and
``sim_home``. Each drives one of the program's own commands in this
process, one invocation at a time (a closed loop with one client), for
``--seconds`` seconds, and checks every output. BLAS runs on one thread.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the ``end_to_end`` ones of BENCHMARK.json, measured with tracing off:

- trace_h_per_s: hours of 25 Hz trace the command consumes per wall second;
- windows_per_s: CNN windows per wall second (window-epochs in training,
  classified windows otherwise);
- peak_rss_mb: peak private resident memory (anonymous plus shared-memory
  pages) of this process during a first, untimed full-size invocation and
  one on the one-minute input, sampled every millisecond from another
  process;
- setup_s: wall time of the same command on a one-minute input: after
  each full-size invocation it runs several times back to back, and the
  metric is the median over the run of these groups' medians.

With ``--trace 1`` invocations alternate between untraced and traced; the
metrics are the ``per_layer`` ones, medians over the traced invocations,
plus the tracing overhead (traced minus untraced wall time).

Inputs are generated from ``--seed`` and cached under ``.perfbench_cache/``
in the checkout, keyed by a digest of ``src/`` and of this directory, next
to the fixed classifier weights written out through the program's
``save_weights`` and to the digest of each seed's output, which later runs
of the same seed must reproduce byte for byte.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
WEIGHTS = os.path.join(HERE, "weights.npz")
BLAS_THREADS = "1"
MIN_INVOCATIONS = 4  # per kind; a slow program may stretch a run to 3x --seconds
SETUP_REPEATS = 3  # one-minute invocations after each full-size one


def source_digest() -> str:
    """Digest of the program's sources and of this benchmark: the cache key."""
    h = hashlib.sha256()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def fixed_weights(cache: str) -> str:
    """The stored classifier weights as the program's weights file."""
    import numpy as np
    from mfed import classifier

    path = os.path.join(cache, "weights.json")
    if not os.path.exists(path):
        os.makedirs(cache, exist_ok=True)
        with np.load(WEIGHTS) as z:
            tensors = {k: z[k].astype(np.float64) for k in z.files if k not in ("n", "rate")}
            weights = classifier.ModelWeights(n=int(z["n"]), rate=float(z["rate"]), **tensors)
        classifier.save_weights(weights, path + ".tmp")
        os.replace(path + ".tmp", path)
    return path


def prepare(name: str, cache: str, seed: int) -> None:
    """Write the weights file and the seed's inputs into the cache.

    Runs in a child process (``run.py --prepare``), so what building the
    inputs allocates does not count in the measured process's peak memory.
    """
    import workloads

    workloads.WORKLOADS[name](cache, seed, fixed_weights(cache))


def machine(seed: int, source: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    kernels = sys.modules.get("mfed.kernels")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "kernel_build": getattr(kernels, "ACTIVE", "single"),
        "platform": platform.platform(),
        "seed": seed,
        "source": source,
    }


class PrivatePeak:
    """Peak private resident memory of this process while the context is
    open (RssAnon plus RssShmem), sampled every millisecond by
    ``peak_rss.py`` in a process of its own; the peak of several openings.

    File-backed pages (mostly shared-library text) are left out: how many
    count as resident moves in steps of megabytes with the page cache.
    A peak shorter than the sampling gap can be missed.
    """

    def __init__(self):
        self.peak_kib = 0

    def __enter__(self):
        self._sampler = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "peak_rss.py"), str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._sampler.stdout.readline().strip() != "ready":
            self._sampler.kill()
            self._sampler.wait()
            raise RuntimeError("the memory sampler did not start")
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._sampler.communicate("stop\n", timeout=60)
        finally:
            if self._sampler.poll() is None:
                self._sampler.kill()
            self._sampler.wait()
        self.peak_kib = max(self.peak_kib, int(out))

    @property
    def mib(self) -> float:
        return self.peak_kib / 1024.0


def keep_going(started: float, seconds: float, done: int) -> bool:
    elapsed = time.perf_counter() - started
    return elapsed < seconds or (done < MIN_INVOCATIONS and elapsed < 3 * seconds)


def measure(wl, seconds: float):
    """Untraced run.

    A first full-size and one-minute invocation, untimed, give the peak
    memory of a process that runs the command once (later invocations only
    add allocator fragmentation). Then full-size invocations alternate
    with groups of one-minute ones, so both sample the whole run.
    """
    problems, setup, walls, failed = [], [], [], 0

    def run(small, around=contextlib.nullcontext()):
        nonlocal problems, failed
        wall, p, _ = wl.run(small, around)
        failed += bool(p)
        problems += p
        return wall

    peak = PrivatePeak()
    attempted = 2
    run(False, peak)
    run(True, peak)
    started = time.perf_counter()
    while keep_going(started, seconds, len(walls)):
        walls.append(run(False))
        setup.append(statistics.median(run(True) for _ in range(SETUP_REPEATS)))
        attempted += 1 + SETUP_REPEATS
    print(f"walls: {[round(w, 4) for w in walls]}\nsetup walls: {[round(w, 4) for w in setup]}",
          file=sys.stderr)
    median = statistics.median(walls)
    metrics = {
        "trace_h_per_s": wl.trace_hours / median,
        "windows_per_s": wl.windows / median,
        "peak_rss_mb": peak.mib,
        "setup_s": statistics.median(setup),
    }
    return metrics, attempted, failed, problems, {}


def measure_layers(wl, seconds: float):
    """Traced run: untraced and traced invocations alternate."""
    import layers
    import workloads
    from tracer import Tracer

    counts = layers.Counts(wl.planted)
    tracer = Tracer(keep_durations=("classifier.forward",))
    targets = layers.targets(counts)
    untraced, traced, per_invocation, forward_s = [], [], [], []
    problems, failed = [], 0
    started = time.perf_counter()
    while keep_going(started, seconds, min(len(untraced), len(traced))):
        if len(untraced) <= len(traced):
            wall, p, _ = wl.run()
            untraced.append(wall)
        else:
            tracer.reset()
            counts.reset()
            tracer.install(targets)
            try:
                wall, p, output = wl.run()
            finally:
                tracer.uninstall()
            traced.append(wall)
            log = output if wl.home_hours else b""  # only the simulator writes a log
            per_invocation.append(layers.invocation_metrics(tracer, counts, wall, wl.samples, log))
            forward_s += tracer.durations["classifier.forward"]
        failed += bool(p)
        problems += p

    metrics = {k: statistics.median(m[k] for m in per_invocation) for k in per_invocation[0]}
    for k in layers.COUNTS:
        if len({m[k] for m in per_invocation}) > 1:
            problems.append(f"count {k} differs between invocations: {[m[k] for m in per_invocation]}")
            failed += 1
    accepted = metrics["classifier.gesture_accept_ratio"]
    if accepted < workloads.GESTURE_RECALL_FLOOR:
        problems.append(f"classifier accepts {accepted:.1%} of the planted-gesture windows")
        failed += 1
    q = statistics.quantiles(forward_s, n=100, method="inclusive") if len(forward_s) > 1 else [0.0] * 99
    metrics["classifier.forward_p50_ms"] = q[49] * 1000.0
    metrics["classifier.forward_p99_ms"] = q[98] * 1000.0
    u, t = statistics.median(untraced), statistics.median(traced)
    metrics.update({
        "bench.untraced_s": u,
        "bench.traced_s": t,
        "bench.trace_overhead_s": t - u,
        "sim.home_h_per_s": wl.home_hours / u,
    })
    metrics.update({f"input.{k}": v for k, v in wl.info["input"].items()})
    shares = {k[len("share."):]: v for k, v in metrics.items() if k.startswith("share.")}
    print("self-time share of traced wall time: "
          + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
          file=sys.stderr)
    return metrics, len(untraced) + len(traced), failed, problems, {"absent": tracer.absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mfed", "__init__.py")):
        print(f"error: no mfed sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # before numpy loads OpenBLAS; MFED_SEED would override the home's seed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("MFED_SEED", None)
    sys.path[:0] = [SRC, HERE]

    import mfed
    import mfed.cli  # noqa: F401  (loaded before tracing, so its bindings get wrapped)
    import workloads

    if not os.path.abspath(mfed.__file__).startswith(SRC + os.sep):
        print(f"error: imported mfed from {mfed.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    source = source_digest()
    cache = os.path.join(CACHE, source)
    if args.prepare:
        prepare(args.workload, cache, args.seed)
        return 0
    # waited for on every path; its stdout goes to stderr, so the result stays last
    child = subprocess.run([sys.executable, os.path.abspath(__file__), *(argv or sys.argv[1:]), "--prepare"],
                           stdout=sys.stderr, timeout=600)
    if child.returncode != 0:
        print(f"error: preparing the inputs failed with exit code {child.returncode}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](cache, args.seed, fixed_weights(cache))
    if args.trace:
        values, attempted, failed, problems, notes = measure_layers(wl, args.seconds)
        declared = spec["per_layer"]
    else:
        values, attempted, failed, problems, notes = measure(wl, args.seconds)
        declared = spec["end_to_end"]

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"input: {json.dumps(wl.info['input'])}", file=sys.stderr)
    print(f"failed_ratio: {failed / attempted} ({failed} of {attempted} runs)", file=sys.stderr)
    for m in declared:
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"machine": machine(args.seed, source), **notes}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
