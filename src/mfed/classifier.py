"""Gesture classifier: annotation labeling, CNN inference, and training.

The network is fixed: two valid 2x2 convolutions (32 then 64 filters),
each followed by a 2x1 max pool along the time axis, then dense layers of
100, 100, and 1 units. Hidden activations are ReLU; the output unit is a
sigmoid giving the probability that a window is an eating gesture. Input
windows are ``(n, 3)`` sample blocks reshaped to ``(n, 3, 1)``; n must be
at least 7 for the shape arithmetic to stay positive.

Training is deliberately plain: seeded fan-in-scaled uniform init,
mini-batch SGD on binary cross-entropy, single-threaded, bit-reproducible
for a given seed. Ambiguous windows are excluded from training.
"""
from __future__ import annotations

import bisect
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, FormatError, InsufficientData, ShapeError
from .signal_core import GestureWindow, Label

logger = logging.getLogger(__name__)

CONV1_FILTERS = 32
CONV2_FILTERS = 64
DENSE_UNITS = 100
WEIGHTS_VERSION = 1

POSITIVE_BAND = 2.0  # s from nearest annotation
AMBIGUOUS_BAND = 4.0


def label_poi(
    poi_t: float,
    annotations,
    positive_band: float = POSITIVE_BAND,
    ambiguous_band: float = AMBIGUOUS_BAND,
) -> Label:
    """Label a PoI by its distance to the nearest annotation.

    d <= positive_band is Positive, positive_band < d <= ambiguous_band is
    Ambiguous, anything farther (or no annotations at all) is Negative.
    """
    if not len(annotations):
        return Label.NEGATIVE
    i = bisect.bisect_left(annotations, poi_t)
    d = math.inf
    if i < len(annotations):
        d = annotations[i] - poi_t
    if i > 0:
        d = min(d, poi_t - annotations[i - 1])
    if d <= positive_band:
        return Label.POSITIVE
    if d <= ambiguous_band:
        return Label.AMBIGUOUS
    return Label.NEGATIVE


@dataclass(frozen=True)
class LabeledWindow:
    window: GestureWindow
    label: Label
    source: str = ""


def pooled_len(h: int) -> int:
    return h // 2


def flatten_dim(n: int) -> int:
    """Flattened feature count after conv/pool/conv/pool for an n-row input."""
    if n < 7:
        raise ShapeError(f"input of {n} rows collapses before the second pool (need >= 7)")
    h1 = pooled_len(n - 1)
    h2 = pooled_len(h1 - 1)
    return h2 * 1 * CONV2_FILTERS


def stage_shapes(n: int) -> list[tuple[int, ...]]:
    """Tensor shapes through the network for an n-row window."""
    h1 = pooled_len(n - 1)
    h2 = pooled_len(h1 - 1)
    return [
        (n, 3, 1),
        (n - 1, 2, CONV1_FILTERS),
        (h1, 2, CONV1_FILTERS),
        (h1 - 1, 1, CONV2_FILTERS),
        (h2, 1, CONV2_FILTERS),
        (flatten_dim(n),),
        (DENSE_UNITS,),
        (DENSE_UNITS,),
        (1,),
    ]


@dataclass
class ModelWeights:
    conv1_w: np.ndarray  # (2, 2, 1, 32)
    conv1_b: np.ndarray  # (32,)
    conv2_w: np.ndarray  # (2, 2, 32, 64)
    conv2_b: np.ndarray  # (64,)
    dense1_w: np.ndarray  # (flatten_dim, 100)
    dense1_b: np.ndarray
    dense2_w: np.ndarray  # (100, 100)
    dense2_b: np.ndarray
    out_w: np.ndarray  # (100, 1)
    out_b: np.ndarray  # (1,)
    n: int
    rate: float
    version: int = WEIGHTS_VERSION

    def validate(self) -> "ModelWeights":
        expected = {
            "conv1_w": (2, 2, 1, CONV1_FILTERS),
            "conv1_b": (CONV1_FILTERS,),
            "conv2_w": (2, 2, CONV1_FILTERS, CONV2_FILTERS),
            "conv2_b": (CONV2_FILTERS,),
            "dense1_w": (flatten_dim(self.n), DENSE_UNITS),
            "dense1_b": (DENSE_UNITS,),
            "dense2_w": (DENSE_UNITS, DENSE_UNITS),
            "dense2_b": (DENSE_UNITS,),
            "out_w": (DENSE_UNITS, 1),
            "out_b": (1,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise FormatError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"{name} contains non-finite values")
        return self

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "conv1_w": self.conv1_w,
            "conv1_b": self.conv1_b,
            "conv2_w": self.conv2_w,
            "conv2_b": self.conv2_b,
            "dense1_w": self.dense1_w,
            "dense1_b": self.dense1_b,
            "dense2_w": self.dense2_w,
            "dense2_b": self.dense2_b,
            "out_w": self.out_w,
            "out_b": self.out_b,
        }


def init_weights(n: int, rate: float, rng: np.random.Generator) -> ModelWeights:
    """Fan-in-scaled uniform init; biases start at zero."""
    flat = flatten_dim(n)

    def u(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return ModelWeights(
        conv1_w=u((2, 2, 1, CONV1_FILTERS), 4),
        conv1_b=np.zeros(CONV1_FILTERS),
        conv2_w=u((2, 2, CONV1_FILTERS, CONV2_FILTERS), 4 * CONV1_FILTERS),
        conv2_b=np.zeros(CONV2_FILTERS),
        dense1_w=u((flat, DENSE_UNITS), flat),
        dense1_b=np.zeros(DENSE_UNITS),
        dense2_w=u((DENSE_UNITS, DENSE_UNITS), DENSE_UNITS),
        dense2_b=np.zeros(DENSE_UNITS),
        out_w=u((DENSE_UNITS, 1), DENSE_UNITS),
        out_b=np.zeros(1),
        n=n,
        rate=rate,
    ).validate()


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _window_array(window) -> np.ndarray:
    x = window.samples if isinstance(window, GestureWindow) else np.asarray(window, float)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ShapeError(f"window must be (n, 3), got {x.shape}")
    return x


def _forward_cached(w: ModelWeights, x: np.ndarray) -> tuple[float, dict]:
    x3 = x.reshape(x.shape[0], 3, 1)
    z1 = kernels.conv2d(x3, w.conv1_w, w.conv1_b)
    a1 = np.maximum(z1, 0.0)
    p1, i1 = kernels.maxpool2(a1)
    z2 = kernels.conv2d(p1, w.conv2_w, w.conv2_b)
    a2 = np.maximum(z2, 0.0)
    p2, i2 = kernels.maxpool2(a2)
    flat = p2.reshape(-1)
    z3 = flat @ w.dense1_w + w.dense1_b
    a3 = np.maximum(z3, 0.0)
    z4 = a3 @ w.dense2_w + w.dense2_b
    a4 = np.maximum(z4, 0.0)
    z5 = float((a4 @ w.out_w)[0] + w.out_b[0])
    p = _sigmoid(z5)
    cache = {
        "x3": x3, "z1": z1, "a1": a1, "i1": i1, "p1": p1,
        "z2": z2, "a2": a2, "i2": i2, "p2": p2,
        "flat": flat, "z3": z3, "a3": a3, "z4": z4, "a4": a4,
    }
    return p, cache


def forward(weights: ModelWeights, window) -> float:
    """Probability in (0, 1) that the window is an eating gesture."""
    x = _window_array(window)
    if x.shape[0] != weights.n:
        raise ShapeError(f"window has {x.shape[0]} rows, weights expect {weights.n}")
    p, _ = _forward_cached(weights, x)
    return p


def classify(weights: ModelWeights, window, threshold: float = 0.5) -> bool:
    """True (eating gesture) when forward probability >= threshold."""
    return forward(weights, window) >= threshold


def _backward(w: ModelWeights, cache: dict, dz5: float) -> dict[str, np.ndarray]:
    grads: dict[str, np.ndarray] = {}
    a4, a3, flat = cache["a4"], cache["a3"], cache["flat"]
    grads["out_w"] = a4[:, None] * dz5
    grads["out_b"] = np.array([dz5])
    da4 = w.out_w[:, 0] * dz5
    dz4 = da4 * (cache["z4"] > 0)
    grads["dense2_w"] = np.outer(a3, dz4)
    grads["dense2_b"] = dz4
    da3 = w.dense2_w @ dz4
    dz3 = da3 * (cache["z3"] > 0)
    grads["dense1_w"] = np.outer(flat, dz3)
    grads["dense1_b"] = dz3
    dflat = w.dense1_w @ dz3
    dp2 = dflat.reshape(cache["p2"].shape)
    da2 = kernels.maxpool2_backward(dp2, cache["i2"], cache["a2"].shape[0])
    dz2 = da2 * (cache["z2"] > 0)
    dp1, dw2, db2 = kernels.conv2d_backward(cache["p1"], w.conv2_w, dz2)
    grads["conv2_w"] = dw2
    grads["conv2_b"] = db2
    da1 = kernels.maxpool2_backward(dp1, cache["i1"], cache["a1"].shape[0])
    dz1 = da1 * (cache["z1"] > 0)
    _, dw1, db1 = kernels.conv2d_backward(cache["x3"], w.conv1_w, dz1)
    grads["conv1_w"] = dw1
    grads["conv1_b"] = db1
    return grads


def loss_and_grads(w: ModelWeights, x: np.ndarray, y: float) -> tuple[float, dict]:
    """Binary cross-entropy and its gradients for one window."""
    p, cache = _forward_cached(w, x)
    eps = 1e-12
    loss = -(y * math.log(max(p, eps)) + (1.0 - y) * math.log(max(1.0 - p, eps)))
    grads = _backward(w, cache, p - y)
    return loss, grads


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 0.05
    batch_size: int = 16
    seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        return self


def train(data: list[LabeledWindow], cfg: TrainConfig, rate: float = 0.0) -> ModelWeights:
    """Mini-batch SGD over the labeled windows; ambiguous entries dropped."""
    cfg.validate()
    used = [d for d in data if d.label is not Label.AMBIGUOUS]
    pos = sum(1 for d in used if d.label is Label.POSITIVE)
    neg = len(used) - pos
    if pos == 0 or neg == 0:
        raise InsufficientData(
            f"training needs both classes after dropping ambiguous, got {pos} positive / {neg} negative"
        )
    xs = [_window_array(d.window) for d in used]
    n = xs[0].shape[0]
    for x in xs:
        if x.shape[0] != n:
            raise ShapeError(f"mixed window lengths {n} and {x.shape[0]}")
    ys = np.array([1.0 if d.label is Label.POSITIVE else 0.0 for d in used])

    rng = np.random.default_rng(cfg.seed)
    w = init_weights(n, rate, rng)
    names = list(w.tensors())
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(used))
        total = 0.0
        for b0 in range(0, len(order), cfg.batch_size):
            batch = order[b0 : b0 + cfg.batch_size]
            acc = {k: np.zeros_like(v) for k, v in w.tensors().items()}
            for i in batch:
                loss, grads = loss_and_grads(w, xs[i], ys[i])
                total += loss
                for k in names:
                    acc[k] += grads[k]
            scale = cfg.learning_rate / len(batch)
            for k in names:
                getattr(w, k)[...] -= scale * acc[k]
        logger.info("epoch %d/%d loss %.6f", epoch + 1, cfg.epochs, total / len(used))
    return w.validate()


def training_accuracy(weights: ModelWeights, data: list[LabeledWindow], threshold: float = 0.5) -> float:
    used = [d for d in data if d.label is not Label.AMBIGUOUS]
    hits = 0
    for d in used:
        pred = classify(weights, d.window, threshold)
        hits += pred == (d.label is Label.POSITIVE)
    return hits / len(used)


# ---------------------------------------------------------------------------
# weights file: JSON, arrays nested row-major

_SCHEMA = {
    "conv1": ("conv1_w", "conv1_b"),
    "conv2": ("conv2_w", "conv2_b"),
    "dense1": ("dense1_w", "dense1_b"),
    "dense2": ("dense2_w", "dense2_b"),
    "out": ("out_w", "out_b"),
}


def save_weights(weights: ModelWeights, path: str):
    weights.validate()
    doc = {"version": weights.version, "meta": {"n": weights.n, "rate": weights.rate}}
    for section, (wname, bname) in _SCHEMA.items():
        key = "filters" if section.startswith("conv") else "weights"
        doc[section] = {
            key: getattr(weights, wname).tolist(),
            "biases": getattr(weights, bname).tolist(),
        }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_weights(path: str) -> ModelWeights:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"weights file is not valid JSON: {e}") from e
    version = doc.get("version")
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported weights version {version!r} (supported: {WEIGHTS_VERSION})")
    meta = doc.get("meta", {})
    if "n" not in meta or "rate" not in meta:
        raise FormatError("weights meta must carry n and rate")
    fields: dict[str, np.ndarray] = {}
    for section, (wname, bname) in _SCHEMA.items():
        block = doc.get(section)
        if not isinstance(block, dict):
            raise FormatError(f"missing section {section!r}")
        key = "filters" if section.startswith("conv") else "weights"
        try:
            fields[wname] = np.asarray(block[key], dtype=np.float64)
            fields[bname] = np.asarray(block["biases"], dtype=np.float64)
        except (KeyError, ValueError) as e:
            raise FormatError(f"section {section!r} is malformed: {e}") from e
    try:
        return ModelWeights(
            n=int(meta["n"]), rate=float(meta["rate"]), version=version, **fields
        ).validate()
    except ShapeError as e:
        raise FormatError(str(e)) from e
