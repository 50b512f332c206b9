"""Train the benchmark's fixed classifier weights once and store them.

    python3 perfbench/make_weights.py

Trains on a 200-window lab session (its own seed, not a workload seed)
for 40 epochs and writes ``perfbench/weights.npz`` as float16 tensors plus
``n`` and ``rate``. The detect_day and sim_home workloads classify with
these weights, so a change to training numerics cannot change what they
classify. Rerun only to replace the stored weights on purpose.
"""
from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in the benchmark; set before numpy loads BLAS
import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import inputs  # noqa: E402
from mfed import classifier  # noqa: E402
from mfed.signal_core import AccelSeries, DetectorConfig, detect_pois, extract_window, smooth  # noqa: E402

LAB_SEED = 20200711
LAB_DIPS = 200
EPOCHS = 40


def main():
    trace = inputs.build_lab(np.random.default_rng(LAB_SEED), LAB_DIPS)
    series = AccelSeries(inputs.RATE, trace.t_ms / 1000.0, trace.xyz)
    cfg = DetectorConfig()
    smoothed = smooth(series, cfg.smooth_len)
    data = [
        classifier.LabeledWindow(extract_window(smoothed, p, cfg), classifier.label_poi(p.t, trace.gestures))
        for p in detect_pois(smoothed, cfg)
    ]
    weights = classifier.train(data, classifier.TrainConfig(epochs=EPOCHS), rate=inputs.RATE)
    stored = {k: v.astype(np.float16) for k, v in weights.tensors().items()}
    rounded = classifier.ModelWeights(
        n=weights.n, rate=weights.rate, **{k: v.astype(np.float64) for k, v in stored.items()}
    )
    acc = classifier.training_accuracy(rounded, data)
    print(f"{len(data)} windows, training accuracy of the stored weights {acc:.3f}")
    np.savez_compressed(os.path.join(HERE, "weights.npz"), n=weights.n, rate=weights.rate, **stored)


if __name__ == "__main__":
    main()
