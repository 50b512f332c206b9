"""Print a digest of each benchmark workload's output, per seed.

Run from the root of a checkout:

    python3 tools/output_digests.py [SEED ...]

Seeds default to 1 to 5. For each seed it runs perfbench's detect_day,
train_lab and sim_home workloads once each, in this process, on their
full-size inputs, and prints one ``<workload> <seed> <sha256>`` line: the
digest of the events JSONL ``mfed detect`` writes, of the weights file
``mfed train`` writes and of the simulator's JSONL log. A fourth line,
``sweep <seed> <sha256>``, is the digest of the CSV ``mfed sweep`` writes
on detect_day's trace with the fixed weights, its planted gestures written
as the annotation CSV. Two source trees that print the same lines on one
machine produce the same bytes on these inputs. BLAS runs on one thread, as in the benchmark. The inputs and
outputs go to a temporary directory, so the checkout is left as it was.
"""
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.getcwd()
WORKLOADS = ("detect_day", "train_lab", "sim_home")


def sweep_csv(day) -> bytes:
    """The ``mfed sweep`` CSV on the detect_day workload ``day``'s trace."""
    import inputs

    annotations = os.path.join(day.dir, "gestures.csv")
    out = os.path.join(day.dir, "sweep.csv")
    inputs.write_annotations_csv(annotations, day.info["gestures"])
    day._cli(["sweep", "--trace", os.path.join(day.dir, "trace.csv"), "--annotations", annotations,
              "--weights", day.weights_path, "--out", out])
    with open(out, "rb") as fh:
        return fh.read()


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [1, 2, 3, 4, 5]
    # before numpy loads OpenBLAS; MFED_SEED would override the home's seed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("MFED_SEED", None)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

    import run
    import workloads

    with tempfile.TemporaryDirectory() as cache:
        weights = run.fixed_weights(cache)
        for seed in seeds:
            for name in WORKLOADS:
                wl = workloads.WORKLOADS[name](cache, seed, weights)
                with contextlib.redirect_stderr(io.StringIO()):  # mfed train logs each epoch
                    output = wl.invoke(small=False)
                print(name, seed, workloads.digest(output), flush=True)
            day = workloads.WORKLOADS["detect_day"](cache, seed, weights)  # reads its cached inputs
            print("sweep", seed, workloads.digest(sweep_csv(day)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
