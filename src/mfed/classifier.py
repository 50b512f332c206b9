"""Gesture classifier: annotation labeling, CNN inference, and training.

The network is fixed: two valid 2x2 convolutions (32 then 64 filters),
each followed by a 2x1 max pool along the time axis, then dense layers of
100, 100, and 1 units. Hidden activations are ReLU; the output unit is a
sigmoid giving the probability that a window is an eating gesture. Input
windows are ``(n, 3)`` sample blocks reshaped to ``(n, 3, 1)``; n must be
at least 7 for the shape arithmetic to stay positive.

Training is deliberately plain: seeded fan-in-scaled uniform init,
mini-batch SGD on binary cross-entropy, single-threaded. Each mini-batch
is one forward and one backward pass over a ``(B, n, 3)`` stack of
windows, whose gradients come out summed over the batch. The training step
multiplies dloss/dz5 by ``learning_rate / B`` before the backward pass,
which is linear in it, so the gradients come out as the SGD step itself and
the update is one subtraction per tensor; ``loss_and_grads`` returns them
unscaled. The backward pass applies the ReLU masks to the pooled gradients,
half the size of the conv outputs. Results are bit-reproducible for a given
seed, but not bit-equal to summing per-window gradients, which adds in
another order. Ambiguous windows are excluded from training.

Inference has one entry, ``probabilities``: ``forward`` on each window in
turn, the same layers on a batch of one, keeping no activation cache. A
window is a gesture when its probability is at least
``DECISION_THRESHOLD``; ``gestures`` applies that rule to ``GestureWindow``s
cut by its callers: the PoI windows of ``mfed detect`` and ``mfed sweep``,
and those the simulator's base station holds. ``check_rows`` is the one
rule that a window's row count must equal the weights' ``n``. Trained weights
are stored as one uncompressed ``.npz`` archive: ``version``, ``n``,
``rate`` and the ten float64 tensors under their ``ModelWeights`` field
names. The same weights always give the same bytes, and loading checks
every member, dtype and shape.
"""
from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, fields
from typing import Annotated

import numpy as np

from . import kernels
from .errors import FormatError, InsufficientData, ShapeError, check_fields
from .signal_core import GestureWindow, Label

logger = logging.getLogger(__name__)

CONV1_FILTERS = 32
CONV2_FILTERS = 64
DENSE_UNITS = 100
WEIGHTS_VERSION = 2
DECISION_THRESHOLD = 0.5  # forward probability at or above it is a gesture

POSITIVE_BAND = 2.0  # s from nearest annotation
AMBIGUOUS_BAND = 4.0


def label_poi(poi_t: float, annotations) -> Label:
    """Label a PoI by its distance to the nearest annotation.

    d <= POSITIVE_BAND is Positive, POSITIVE_BAND < d <= AMBIGUOUS_BAND is
    Ambiguous, anything farther (or no annotations at all) is Negative.
    """
    i = bisect.bisect_left(annotations, poi_t)
    d = math.inf
    if i < len(annotations):
        d = annotations[i] - poi_t
    if i > 0:
        d = min(d, poi_t - annotations[i - 1])
    if d <= POSITIVE_BAND:
        return Label.POSITIVE
    if d <= AMBIGUOUS_BAND:
        return Label.AMBIGUOUS
    return Label.NEGATIVE


@dataclass(frozen=True)
class LabeledWindow:
    window: GestureWindow
    label: Label
    source: str = ""


def flatten_dim(n: int) -> int:
    """Flattened feature count after conv/pool/conv/pool for an n-row input."""
    return stage_shapes(n)[5][0]


def stage_shapes(n: int) -> list[tuple[int, ...]]:
    """Tensor shapes through the network for an n-row window."""
    if n < 7:
        raise ShapeError(f"input of {n} rows collapses before the second pool (need >= 7)")
    h1 = (n - 1) // 2
    h2 = (h1 - 1) // 2
    return [
        (n, 3, 1),
        (n - 1, 2, CONV1_FILTERS),
        (h1, 2, CONV1_FILTERS),
        (h1 - 1, 1, CONV2_FILTERS),
        (h2, 1, CONV2_FILTERS),
        (h2 * CONV2_FILTERS,),
        (DENSE_UNITS,),
        (DENSE_UNITS,),
        (1,),
    ]


@dataclass
class ModelWeights:
    conv1_w: np.ndarray  # shapes: _tensor_shapes
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    dense1_w: np.ndarray
    dense1_b: np.ndarray
    dense2_w: np.ndarray
    dense2_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    n: int
    rate: float

    def validate(self) -> "ModelWeights":
        for name, shape in _tensor_shapes(self.n).items():
            arr = getattr(self, name)
            if arr.dtype != np.float64:
                raise FormatError(f"{name} has dtype {arr.dtype}, expected float64")
            if arr.shape != shape:
                raise FormatError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"{name} contains non-finite values")
        return self

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TENSOR_NAMES}


TENSOR_NAMES = tuple(f.name for f in fields(ModelWeights) if f.name not in ("n", "rate"))


def _tensor_shapes(n: int) -> dict[str, tuple[int, ...]]:
    """Each ``ModelWeights`` tensor's shape for n-row windows, in field order."""
    return {
        "conv1_w": (2, 2, 1, CONV1_FILTERS),
        "conv1_b": (CONV1_FILTERS,),
        "conv2_w": (2, 2, CONV1_FILTERS, CONV2_FILTERS),
        "conv2_b": (CONV2_FILTERS,),
        "dense1_w": (flatten_dim(n), DENSE_UNITS),
        "dense1_b": (DENSE_UNITS,),
        "dense2_w": (DENSE_UNITS, DENSE_UNITS),
        "dense2_b": (DENSE_UNITS,),
        "out_w": (DENSE_UNITS, 1),
        "out_b": (1,),
    }


def init_weights(n: int, rate: float, rng: np.random.Generator) -> ModelWeights:
    """Fan-in-scaled uniform init, drawn in field order; biases start at
    zero. A weight's fan-in is the product of all its axes but the last."""
    tensors = {}
    for name, shape in _tensor_shapes(n).items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape)
        else:
            bound = 1.0 / math.sqrt(math.prod(shape[:-1]))
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return ModelWeights(n=n, rate=rate, **tensors).validate()


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


def _relu(z: np.ndarray) -> np.ndarray:
    """ReLU in place; afterwards ``z > 0`` exactly where it was before."""
    return np.maximum(z, 0.0, out=z)


def _forward_pass(w: ModelWeights, x: np.ndarray, cache: dict | None = None) -> list[float]:
    """Probabilities for a ``(B, n, 3)`` batch of windows. Given a
    ``cache`` dict, also stores there the activations the backward pass
    reads, among them each pool's input; inference passes none."""
    x3 = x[..., None]
    a1 = _relu(kernels.conv2d(x3, w.conv1_w, w.conv1_b))
    p1 = kernels.maxpool2(a1)
    a2 = _relu(kernels.conv2d(p1, w.conv2_w, w.conv2_b))
    p2 = kernels.maxpool2(a2)
    flat = p2.reshape(x.shape[0], -1)
    a3 = _relu(flat @ w.dense1_w + w.dense1_b)
    a4 = _relu(a3 @ w.dense2_w + w.dense2_b)
    z5 = (a4 @ w.out_w)[:, 0] + w.out_b[0]
    if cache is not None:
        cache.update(x3=x3, a1=a1, p1=p1, a2=a2, p2=p2, flat=flat, a3=a3, a4=a4)
    return [_sigmoid(z) for z in z5.tolist()]


def _backward_pass(w: ModelWeights, cache: dict, dz5: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients summed over the batch, given dloss/dz5 per window."""
    grads: dict[str, np.ndarray] = {}
    a4, a3, flat = cache["a4"], cache["a3"], cache["flat"]
    grads["out_w"] = a4.T @ dz5[:, None]
    grads["out_b"] = np.array([dz5.sum()])
    dz4 = dz5[:, None] * w.out_w[:, 0] * (a4 > 0)
    grads["dense2_w"] = a3.T @ dz4
    grads["dense2_b"] = dz4.sum(axis=0)
    dz3 = (dz4 @ w.dense2_w.T) * (a3 > 0)
    grads["dense1_w"] = flat.T @ dz3
    grads["dense1_b"] = dz3.sum(axis=0)
    # ReLU masks on the pooled gradient: a winner's activation is the pooled
    # value, and a loser's gradient is +0.0 either way
    dp2 = (dz3 @ w.dense1_w.T).reshape(cache["p2"].shape)
    dp2 *= cache["p2"] > 0
    dz2 = kernels.maxpool2_backward(cache["a2"], dp2)
    dp1, grads["conv2_w"], grads["conv2_b"] = kernels.conv2d_backward(cache["p1"], w.conv2_w, dz2, input_grad=True)
    dp1 *= cache["p1"] > 0
    dz1 = kernels.maxpool2_backward(cache["a1"], dp1)
    _, grads["conv1_w"], grads["conv1_b"] = kernels.conv2d_backward(cache["x3"], w.conv1_w, dz1, input_grad=False)
    return grads


def check_rows(weights: ModelWeights | None, rows: int, where: str):
    """Raise ShapeError, its message led by ``where``, unless ``rows``-row
    windows fit the weights; without weights any window fits."""
    if weights is not None and rows != weights.n:
        raise ShapeError(f"{where}window has {rows} rows, weights expect {weights.n}")


def forward(weights: ModelWeights, window) -> float:
    """Probability in (0, 1) that the window is an eating gesture."""
    x = _window_array(window)
    check_rows(weights, x.shape[0], "")
    return _forward_pass(weights, x[None])[0]


def classify(weights: ModelWeights, window) -> bool:
    """True (eating gesture) when forward probability >= DECISION_THRESHOLD."""
    return forward(weights, window) >= DECISION_THRESHOLD


def probabilities(weights: ModelWeights, windows) -> list[float]:
    """``forward`` of each window, in order: the package's one inference loop."""
    return [forward(weights, window) for window in windows]


def gestures(weights: ModelWeights | None, windows: list[GestureWindow]) -> list:
    """``(window.poi, probability)`` for each of the windows that
    ``probabilities`` puts at or above DECISION_THRESHOLD, in order.
    Without weights (threshold-only mode) every window is a gesture, with
    probability None. Batch detection and the simulator's base station
    both accept gestures here."""
    if weights is None:
        return [(w.poi, None) for w in windows]
    return [(w.poi, p) for w, p in zip(windows, probabilities(weights, windows)) if p >= DECISION_THRESHOLD]


def loss_and_grads(w: ModelWeights, x: np.ndarray, y) -> tuple[float, dict]:
    """Binary cross-entropy and its gradients, summed over a ``(B, n, 3)``
    batch with ``(B,)`` labels; one ``(n, 3)`` window takes a scalar label."""
    if x.ndim == 2:
        x, y = x[None], [y]
    return _loss_and_scaled_grads(w, x, y, 1.0)


def _loss_and_scaled_grads(w: ModelWeights, x: np.ndarray, y, scale: float) -> tuple[float, dict]:
    """``loss_and_grads`` of a batch with every gradient multiplied by
    ``scale``: the backward pass is linear in dloss/dz5, so scaling those B
    numbers scales every gradient it computes from them."""
    y = np.asarray(y, dtype=np.float64)
    cache: dict = {}
    p = _forward_pass(w, x, cache)
    eps = 1e-12
    loss = 0.0
    for pi, yi in zip(p, y.tolist()):
        loss -= yi * math.log(max(pi, eps)) + (1.0 - yi) * math.log(max(1.0 - pi, eps))
    return loss, _backward_pass(w, cache, (np.asarray(p) - y) * scale)


@dataclass(frozen=True)
class TrainConfig:
    epochs: Annotated[int, "[1, inf)"] = 50
    learning_rate: Annotated[float, "(0, inf)"] = 0.05
    batch_size: Annotated[int, "[1, inf)"] = 16
    seed: Annotated[int, "[0, inf)"] = 0  # numpy rejects a negative seed mid-run
    __post_init__ = check_fields


def train(data: list[LabeledWindow], cfg: TrainConfig, rate: float = 0.0) -> ModelWeights:
    """Mini-batch SGD over the labeled windows; ambiguous entries dropped."""
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
    xs = np.stack(xs)
    ys = np.array([1.0 if d.label is Label.POSITIVE else 0.0 for d in used])

    rng = np.random.default_rng(cfg.seed)
    w = init_weights(n, rate, rng)
    names = list(w.tensors())
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(used))
        total = 0.0
        for b0 in range(0, len(order), cfg.batch_size):
            batch = order[b0 : b0 + cfg.batch_size]
            loss, steps = _loss_and_scaled_grads(w, xs[batch], ys[batch], cfg.learning_rate / len(batch))
            total += loss
            for k in names:
                getattr(w, k)[...] -= steps[k]
        logger.info("epoch %d/%d loss %.6f", epoch + 1, cfg.epochs, total / len(used))
    return w.validate()


def training_accuracy(weights: ModelWeights, data: list[LabeledWindow]) -> float:
    used = [d for d in data if d.label is not Label.AMBIGUOUS]
    probs = probabilities(weights, [d.window for d in used])
    return sum((p >= DECISION_THRESHOLD) == (d.label is Label.POSITIVE) for p, d in zip(probs, used)) / len(used)


# ---------------------------------------------------------------------------
# weights file: an .npz archive of version, n, rate and the float64 tensors


def save_weights(weights: ModelWeights, path: str):
    weights.validate()
    # a file object, since np.savez appends ".npz" to a path without it
    with open(path, "wb") as fh:
        np.savez(fh, version=WEIGHTS_VERSION, n=weights.n, rate=weights.rate, **weights.tensors())


def _scalar(arrays: dict, name: str, kinds: str):
    a = arrays.get(name)
    if a is None or a.shape != () or a.dtype.kind not in kinds:
        raise FormatError(f"weights archive needs a numeric scalar {name!r}")
    return a.item()


def load_weights(path: str) -> ModelWeights:
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
        # damaged bytes raise errors of a dozen types from zipfile, zlib, lzma,
        # bz2, tokenize and numpy, and a bare .npy loads as an array, which is
        # no context manager; each means the file is not a weights archive
        except Exception as e:
            raise FormatError(f"{path} is not a readable .npz weights archive; retrain with mfed train") from e
    version = _scalar(arrays, "version", "iu")
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported weights version {version!r} (supported: {WEIGHTS_VERSION})")
    n, rate = _scalar(arrays, "n", "iu"), _scalar(arrays, "rate", "iuf")
    names = set(arrays) - {"version", "n", "rate"}
    missing, extra = set(TENSOR_NAMES) - names, names - set(TENSOR_NAMES)
    if missing or extra:
        raise FormatError(f"weights archive: missing {sorted(missing)}, unexpected {sorted(extra)}")
    try:
        return ModelWeights(n=n, rate=float(rate), **{k: arrays[k] for k in TENSOR_NAMES}).validate()
    except ShapeError as e:
        raise FormatError(str(e)) from e
