import math
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import synth
from mfed import classifier as C
from mfed import kernels
from mfed.errors import FormatError, InsufficientData, ShapeError
from mfed.signal_core import (
    DetectorConfig, GestureWindow, Label, Poi, detect_pois, extract_window, smooth, window_extent,
)


def small_weights(seed=0, n=10):
    return C.init_weights(n, 25.0, np.random.default_rng(seed))


class TestLabelPoi:
    def test_within_positive_band(self):
        assert C.label_poi(101.5, [100.0]) is Label.POSITIVE

    def test_ambiguous_band(self):
        assert C.label_poi(103.0, [100.0]) is Label.AMBIGUOUS

    def test_beyond_bands(self):
        assert C.label_poi(105.0, [100.0]) is Label.NEGATIVE

    def test_empty_annotations(self):
        assert C.label_poi(50.0, []) is Label.NEGATIVE

    @pytest.mark.parametrize(
        "d,expected",
        [
            (2.0, Label.POSITIVE),
            (2.0001, Label.AMBIGUOUS),
            (4.0, Label.AMBIGUOUS),
            (4.0001, Label.NEGATIVE),
        ],
    )
    def test_boundaries(self, d, expected):
        assert C.label_poi(100.0 + d, [100.0]) is expected
        assert C.label_poi(100.0 - d, [100.0]) is expected

    @given(
        st.floats(0, 1000),
        st.lists(st.floats(0, 1000), min_size=0, max_size=20).map(sorted),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_nearest_distance_oracle(self, poi_t, annotations):
        assert C.label_poi(poi_t, annotations).value == oracles.label_oracle(poi_t, annotations)


class TestConv:
    def test_zero_input_gives_biases(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2, 2, 1, 4))
        b = rng.normal(size=4)
        out = kernels.conv2d(np.zeros((5, 3, 1)), w, b)
        assert np.allclose(out, np.broadcast_to(b, (4, 2, 4)))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3, 1))
        w = rng.normal(size=(2, 2, 1, 1))
        b = rng.normal(size=1)
        assert np.allclose(kernels.conv2d(x, w, b), oracles.conv2d_oracle(x, w, b), atol=1e-9)

    def test_output_shape_at_full_width(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(150, 3, 1))
        w = rng.normal(size=(2, 2, 1, 32))
        assert kernels.conv2d(x, w, np.zeros(32)).shape == (149, 2, 32)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_im2col_equals_tap_wise_form(self, data):
        lead = data.draw(st.lists(st.integers(1, 3), max_size=2), label="lead")
        h, wd = data.draw(st.integers(2, 20), label="h"), data.draw(st.integers(2, 4), label="w")
        c, f = data.draw(st.sampled_from([1, 2, 5, 32]), label="c"), data.draw(st.integers(1, 8), label="f")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.normal(size=(*lead, h, wd, c))
        w, b = rng.normal(size=(2, 2, c, f)), rng.normal(size=f)
        dout = rng.normal(size=(*lead, h - 1, wd - 1, f))

        def close(got, ref):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

        windows = x.reshape(-1, h, wd, c)
        douts = dout.reshape(-1, h - 1, wd - 1, f)
        close(kernels.conv2d(x, w, b), np.stack([_window_conv_taps(xi, w, b) for xi in windows]).reshape(dout.shape))
        refs = [_window_conv_backward_taps(xi, w, di) for xi, di in zip(windows, douts)]
        dx, dw, db = kernels.conv2d_backward(x, w, dout, input_grad=True)
        close(dx, np.stack([r[0] for r in refs]).reshape(x.shape))
        close(dw, sum(r[1] for r in refs))
        close(db, sum(r[2] for r in refs))
        no_dx, dw2, db2 = kernels.conv2d_backward(x, w, dout, input_grad=False)
        assert no_dx is None and dw2.tobytes() == dw.tobytes() and db2.tobytes() == db.tobytes()


# ReLU outputs are mostly +0.0; -0.0 ties it, integers tie each other
_POOL_ELEMENTS = st.sampled_from([-0.0, 0.0, 1.0, 2.0, -1.0]) | st.floats(-1e6, 1e6)


@st.composite
def _pool_cases(draw):
    """An ``(h, w, c)`` pool input with some row pairs tied, and a gradient."""
    h = draw(st.integers(0, 41), label="h")
    w = draw(st.integers(1, 3), label="w")
    c = draw(st.integers(1, 6), label="c")
    x = draw(hnp.arrays(np.float64, (h, w, c), elements=_POOL_ELEMENTS), label="x")
    tie = draw(hnp.arrays(np.bool_, (h // 2, w, c)), label="tie")
    x[1 : 2 * (h // 2) : 2][tie] = x[0 : 2 * (h // 2) : 2][tie]
    dout = draw(hnp.arrays(np.float64, (h // 2, w, c), elements=_POOL_ELEMENTS), label="dout")
    return x, dout


def _signed_zero_ties(h, w, c, top):
    """Every row pair a tie of signed zeros: ``top`` in the earlier row and
    its negation in the later one, or random signs when ``top`` is None."""
    rng = np.random.default_rng(h * w * c)
    if top is None:
        x = np.where(rng.random((h, w, c)) < 0.5, -0.0, 0.0)
    else:
        x = np.full((h, w, c), top)
        x[1::2] = -top
    dout = np.resize([-0.0, 0.0, 1.5, -2.5, -0.0, 3.0, 0.0], (h // 2, w, c))
    return x, dout


def _distinct(shape):
    """1, 2, 3, ... in ``shape``: a gradient whose routing shows, unlike ±0.0."""
    return np.arange(1.0, math.prod(shape) + 1.0).reshape(shape)


class TestMaxPool:
    def test_ties_break_toward_earlier_row(self):
        rng = np.random.default_rng(3)
        n_ties = 0
        for h in range(2, 22):
            x = rng.integers(-3, 4, size=(h, 2, 5)).astype(float)  # integer grid forces ties
            out = kernels.maxpool2(x)
            dout = _distinct(out.shape)
            dx = kernels.maxpool2_backward(x, dout)
            top, bottom = x[0 : 2 * (h // 2) : 2], x[1 : 2 * (h // 2) : 2]
            dx_top, dx_bottom = dx[0 : 2 * (h // 2) : 2], dx[1 : 2 * (h // 2) : 2]
            ties, later = top == bottom, bottom > top
            n_ties += ties.sum()
            assert np.array_equal(dx_top[ties], dout[ties]) and np.all(dx_bottom[ties] == 0)
            assert np.array_equal(dx_bottom[later], dout[later]) and np.all(dx_top[later] == 0)
            assert np.array_equal(out, np.maximum(top, bottom))
        assert n_ties > 0

    def test_backward_routes_to_winning_row(self):
        rng = np.random.default_rng(4)
        for h in range(2, 22):
            x = rng.integers(-3, 4, size=(h, 2, 5)).astype(float)
            _, arg = _maxpool2_argmax(x)
            dout = rng.normal(size=arg.shape)
            dx = kernels.maxpool2_backward(x, dout)
            expected = np.zeros_like(x)
            for i, j, c in np.ndindex(*arg.shape):
                expected[2 * i + arg[i, j, c], j, c] = dout[i, j, c]
            assert np.array_equal(dx, expected)

    @given(_pool_cases())
    @settings(max_examples=300, deadline=None)
    # +0.0 ties -0.0 in both row orders, where numpy does not say which
    # operand np.maximum returns, past its 8192-element buffer and on odd tails
    @example(_signed_zero_ties(16387, 1, 1, top=0.0))
    @example(_signed_zero_ties(16387, 1, 1, top=-0.0))
    @example(_signed_zero_ties(297, 2, 32, top=0.0))
    @example(_signed_zero_ties(297, 2, 32, top=-0.0))
    @example(_signed_zero_ties(297, 2, 32, top=None))
    @example(_signed_zero_ties(7, 1, 3, top=0.0))
    @example(_signed_zero_ties(7, 1, 3, top=-0.0))
    def test_matches_argmax_form_bit_for_bit(self, case):
        x, dout = case
        h = x.shape[0]
        out = kernels.maxpool2(x)
        out_ref, arg_ref = _maxpool2_argmax(x)
        assert out.dtype == out_ref.dtype
        assert out.tobytes() == out_ref.tobytes()
        for grad in (dout, _distinct(dout.shape)):
            dx = kernels.maxpool2_backward(x, grad)
            assert dx.tobytes() == _maxpool2_backward_put(grad, arg_ref, h).tobytes()


def _maxpool2_argmax(x):
    """Reference pool: argmax over row pairs, then take_along_axis."""
    h2 = x.shape[0] // 2
    xr = x[: 2 * h2].reshape(h2, 2, x.shape[1], x.shape[2])
    arg = xr.argmax(axis=1)
    return np.take_along_axis(xr, arg[:, None], axis=1)[:, 0], arg.astype(np.int64)


def _maxpool2_backward_put(dout, arg, h):
    """Reference pool backward: put_along_axis into the winning rows."""
    dx = np.zeros((h,) + dout.shape[1:])
    dxr = dx[: 2 * (h // 2)].reshape(h // 2, 2, dout.shape[1], dout.shape[2])
    np.put_along_axis(dxr, arg[:, None], dout[:, None], axis=1)
    return dx


class TestInitWeights:
    @pytest.mark.parametrize("n", [7, 8, 12, 150])
    def test_fan_in_scaled_draws_in_field_order_and_zero_biases(self, n):
        # each weight is uniform in +-1/sqrt(fan-in), drawn in this order; each
        # bias is zero and as wide as its weight's last axis
        flat, rng = C.flatten_dim(n), np.random.default_rng(n)
        draws = {"conv1_w": ((2, 2, 1, 32), 4), "conv2_w": ((2, 2, 32, 64), 128), "dense1_w": ((flat, 100), flat),
                 "dense2_w": ((100, 100), 100), "out_w": ((100, 1), 100)}
        expected = {name: rng.uniform(-1 / math.sqrt(fan), 1 / math.sqrt(fan), size=shape)
                    for name, (shape, fan) in draws.items()}
        expected.update({name[:-1] + "b": np.zeros(w.shape[-1]) for name, w in expected.items()})
        got = C.init_weights(n, 25.0, np.random.default_rng(n)).tensors()
        assert got.keys() == expected.keys()
        for name, arr in got.items():
            assert arr.dtype == expected[name].dtype and arr.tobytes() == expected[name].tobytes(), name


class TestForward:
    def test_zero_weights_give_half(self):
        w = small_weights()
        for arr in w.tensors().values():
            arr[...] = 0.0
        x = np.random.default_rng(0).normal(size=(10, 3))
        assert C.forward(w, x) == 0.5

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            w = small_weights(seed, n=int(rng.integers(7, 14)))
            x = rng.normal(size=(w.n, 3))
            assert C.forward(w, x) == pytest.approx(oracles.forward_oracle(w, x), abs=1e-6)

    def test_shape_trace_for_150(self):
        assert C.stage_shapes(150) == [
            (150, 3, 1),
            (149, 2, 32),
            (74, 2, 32),
            (73, 1, 64),
            (36, 1, 64),
            (2304,),
            (100,),
            (100,),
            (1,),
        ]

    def test_flatten_dim_matches_actual(self):
        rng = np.random.default_rng(4)
        for n in (7, 8, 9, 13, 20, 33, 150):
            w = C.init_weights(n, 25.0, rng)
            cache = {}
            p = C._forward_pass(w, rng.normal(size=(2, n, 3)), cache)
            assert cache["flat"].shape == (2, C.flatten_dim(n))
            assert all(0.0 < pi < 1.0 for pi in p)

    @given(st.integers(7, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_per_window_formula_bit_for_bit(self, n, seed):
        rng = np.random.default_rng(seed)
        w = _random_weights(n, rng)
        x = rng.normal(size=(n, 3)) * rng.uniform(0.1, 5.0, size=3) + rng.normal(0, 5, size=3)
        p_ref, _ = _window_forward(w, x)
        p = C.forward(w, x)
        assert p == p_ref
        p_taps, _ = _window_forward(w, x, conv=_window_conv_taps)
        assert abs(p - p_taps) <= 1e-12 * p_taps

    @given(st.integers(7, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_inference_equals_training_pass_bit_for_bit(self, n, b, seed):
        rng = np.random.default_rng(seed)
        w = _random_weights(n, rng)
        xs = rng.normal(size=(b, n, 3)) * rng.uniform(0.1, 5.0, size=3) + rng.normal(0, 5, size=3)
        cache = {}
        assert C._forward_pass(w, xs) == C._forward_pass(w, xs, cache)
        assert {"a1", "a2", "p1", "p2", "flat", "a3", "a4"} <= cache.keys()
        for x in xs:
            assert C.forward(w, x) == C._forward_pass(w, x[None], {})[0]

    def test_inference_computes_no_pool_winners(self, monkeypatch):
        def backward(x, dout):
            raise AssertionError("the pass computed the pool winners")

        monkeypatch.setattr(kernels, "maxpool2_backward", backward)
        w, rng = small_weights(), np.random.default_rng(1)
        C.forward(w, rng.normal(size=(10, 3)))
        with pytest.raises(AssertionError, match="pool winners"):  # training does
            C.loss_and_grads(w, rng.normal(size=(10, 3)), 1.0)

    def test_row_count_mismatch(self):
        w = small_weights()
        with pytest.raises(ShapeError):
            C.forward(w, np.zeros((12, 3)))

    def test_window_of_two_channels_rejected(self):
        with pytest.raises(ShapeError, match=r"^window must be \(n, 3\), got \(10, 2\)$"):
            C.forward(small_weights(), np.zeros((10, 2)))

    def test_too_short_window_rejected(self):
        with pytest.raises(ShapeError):
            C.flatten_dim(6)
        with pytest.raises(ShapeError):
            C.stage_shapes(6)


def _constant_weights(out_b):
    """All tensors zero but the output bias: forward is sigmoid(out_b) for any window."""
    w = small_weights()
    for arr in w.tensors().values():
        arr[...] = 0.0
    w.out_b[0] = out_b
    return w


class TestClassify:
    def test_above_threshold(self):
        x = np.random.default_rng(5).normal(size=(10, 3))
        assert C.forward(_constant_weights(5.0), x) > C.DECISION_THRESHOLD
        assert C.classify(_constant_weights(5.0), x)

    def test_threshold_is_inclusive(self):
        x = np.random.default_rng(6).normal(size=(10, 3))
        assert C.forward(_constant_weights(0.0), x) == C.DECISION_THRESHOLD == 0.5
        assert C.classify(_constant_weights(0.0), x)

    def test_high_threshold(self):
        x = np.random.default_rng(7).normal(size=(10, 3))
        assert C.forward(_constant_weights(-5.0), x) < C.DECISION_THRESHOLD
        assert not C.classify(_constant_weights(-5.0), x)


class TestProbabilities:
    """``probabilities``: the one inference entry, against per-window ``forward``."""

    @given(st.integers(7, 40), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_equals_per_window_forward_bit_for_bit(self, n, b, seed, as_gesture_windows):
        rng = np.random.default_rng(seed)
        w = _random_weights(n, rng)
        xs = rng.normal(size=(b, n, 3)) * rng.uniform(0.1, 5.0, size=3) + rng.normal(0, 5, size=3)
        windows = list(xs)
        if as_gesture_windows:
            windows = [GestureWindow(Poi(index=i, t=float(i), ax_value=-4.0, variance_sum=2.0), x)
                       for i, x in enumerate(xs)]
        assert C.probabilities(w, windows) == [C.forward(w, x) for x in xs]

    def test_no_windows(self):
        assert C.probabilities(small_weights(), []) == []

    def test_window_that_does_not_fit_the_weights(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ShapeError):
            C.probabilities(small_weights(), [rng.normal(size=(10, 3)), rng.normal(size=(12, 3))])


def _recording_probabilities(monkeypatch):
    """Route ``probabilities`` through a spy; returns the list of the
    windows each call received."""
    calls = []
    probabilities = C.probabilities

    def spy(weights, windows):
        calls.append(list(windows))
        return probabilities(weights, windows)

    monkeypatch.setattr(C, "probabilities", spy)
    return calls


class TestGestures:
    """``gestures``: the accept rule of batch detection and of the simulator."""

    def test_one_probabilities_call_holding_each_poi_window_in_order(self, monkeypatch):
        series = synth.gesture_trace(np.random.default_rng(3), [20.0, 40.0, 60.0, 80.0])
        cfg = DetectorConfig()
        smoothed = smooth(series, cfg.smooth_len)
        pois = detect_pois(smoothed, cfg)
        assert len(pois) == 4
        w = small_weights(3, n=window_extent(cfg.window_len, series.rate)[0])
        calls = _recording_probabilities(monkeypatch)
        C.gestures(w, [extract_window(smoothed, poi, cfg) for poi in pois])
        assert len(calls) == 1
        assert [x.poi for x in calls[0]] == pois
        for x, poi in zip(calls[0], pois):
            assert np.array_equal(x.samples, extract_window(smoothed, poi, cfg).samples)

    @given(
        seed=st.integers(0, 2**16), shift=st.floats(-0.5, 0.5), cuts=st.lists(st.integers(0, 9), max_size=4)
    )
    @example(seed=0, shift=0.0, cuts=[])
    @settings(max_examples=40, deadline=None)
    def test_forward_at_the_threshold_under_any_chunking(self, seed, shift, cuts):
        rng = np.random.default_rng(seed)
        series = synth.gesture_trace(rng, 10.0 + np.cumsum(rng.uniform(8.0, 30.0, rng.integers(1, 9))))
        cfg = DetectorConfig()
        smoothed = smooth(series, cfg.smooth_len)
        pois = detect_pois(smoothed, cfg)
        w = small_weights(seed, n=window_extent(cfg.window_len, series.rate)[0])
        windows = [extract_window(smoothed, p, cfg) for p in pois]
        # move the output bias so that the threshold falls among the windows' logits
        logits = [math.log(p / (1.0 - p)) for p in (C.forward(w, x) for x in windows)]
        if logits:
            w.out_b[0] -= sorted(logits)[len(logits) // 2] + shift * (max(logits) - min(logits))
        probs = [C.forward(w, x) for x in windows]
        expected = [(poi, prob) for poi, prob in zip(pois, probs) if prob >= C.DECISION_THRESHOLD]
        assert C.gestures(w, windows) == expected
        bounds = [0, *sorted(min(c, len(pois)) for c in cuts), len(pois)]
        chunked = [g for a, b in zip(bounds, bounds[1:]) for g in C.gestures(w, windows[a:b])]
        assert chunked == expected

    def test_threshold_only_accepts_every_poi(self):
        series = synth.gesture_trace(np.random.default_rng(2), [20.0, 40.0, 60.0])
        cfg = DetectorConfig()
        smoothed = smooth(series, cfg.smooth_len)
        pois = detect_pois(smoothed, cfg)
        assert len(pois) == 3
        assert C.gestures(None, [extract_window(smoothed, poi, cfg) for poi in pois]) == [(poi, None) for poi in pois]


def _labeled(rng, count, n=16):
    data = []
    for i in range(count):
        positive = i % 2 == 0
        x = synth.synthetic_window(rng, positive, n=n)
        poi = Poi(index=0, t=float(i), ax_value=-4.0, variance_sum=2.0)
        data.append(
            C.LabeledWindow(
                GestureWindow(poi, x), Label.POSITIVE if positive else Label.NEGATIVE, source=f"p{i % 3}"
            )
        )
    return data


class TestTrain:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        data = _labeled(rng, 12)
        cfg = C.TrainConfig(epochs=2, seed=11)
        w1 = C.train(data, cfg)
        w2 = C.train(data, cfg)
        for k, v in w1.tensors().items():
            assert np.array_equal(v, w2.tensors()[k]), k

    def test_requires_both_classes(self):
        rng = np.random.default_rng(9)
        data = [
            C.LabeledWindow(d.window, Label.AMBIGUOUS, d.source) for d in _labeled(rng, 6)
        ]
        with pytest.raises(InsufficientData):
            C.train(data, C.TrainConfig(epochs=1))

    def test_mixed_window_lengths_rejected(self):
        rng = np.random.default_rng(9)
        data = _labeled(rng, 4) + _labeled(rng, 2, n=17)
        with pytest.raises(ShapeError, match=r"^mixed window lengths 16 and 17$"):
            C.train(data, C.TrainConfig(epochs=1))

    def test_learns_separable_data(self):
        rng = np.random.default_rng(10)
        data = _labeled(rng, 60)
        w = C.train(data, C.TrainConfig(epochs=25, seed=1))
        assert C.training_accuracy(w, data) >= 0.9

    def test_accuracy_is_one_probabilities_call_over_the_unambiguous_windows(self, monkeypatch):
        data = _labeled(np.random.default_rng(13), 16)
        data = [C.LabeledWindow(d.window, Label.AMBIGUOUS, d.source) if i % 5 == 2 else d
                for i, d in enumerate(data)]
        used = [d for d in data if d.label is not Label.AMBIGUOUS]
        w = small_weights(13, n=16)
        # the output bias at the lower quartile logit, so the accuracy is neither 0 nor 1
        logits = sorted(math.log(p / (1.0 - p)) for p in (C.forward(w, d.window) for d in used))
        w.out_b[0] -= logits[len(logits) // 4]
        hits = sum(C.classify(w, d.window) == (d.label is Label.POSITIVE) for d in used)
        assert 0 < hits < len(used)
        calls = _recording_probabilities(monkeypatch)
        assert C.training_accuracy(w, data) == hits / len(used)
        assert len(calls) == 1
        assert calls[0] == [d.window for d in used]

    @pytest.mark.parametrize("b,batch_size", [(2, 2), (4, 4), (5, 5), (5, 8)])
    def test_one_step_is_sgd_on_the_summed_gradients(self, b, batch_size):
        # one batch of b windows, one epoch: train must give w - (lr / b) * the
        # batch's gradients, also when the batch is shorter than batch_size
        data = _labeled(np.random.default_rng(20 + b), b)
        cfg = C.TrainConfig(epochs=1, learning_rate=0.05, batch_size=batch_size, seed=b)
        rng = np.random.default_rng(cfg.seed)
        w0 = C.init_weights(16, 0.0, rng)
        order = rng.permutation(b)
        xs = np.stack([data[i].window.samples for i in order])
        ys = np.array([float(data[i].label is Label.POSITIVE) for i in order])
        _, grads = C.loss_and_grads(w0, xs, ys)
        got = C.train(data, cfg).tensors()
        for name, arr in w0.tensors().items():
            expected = arr - cfg.learning_rate / b * grads[name]
            assert np.max(np.abs(got[name] - expected)) <= 1e-12 * np.max(np.abs(expected)), name

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        w = small_weights(12, n=8)
        x = rng.normal(size=(8, 3))
        y = 1.0
        _, grads = C.loss_and_grads(w, x, y)
        eps = 1e-4
        pick = np.random.default_rng(13)
        for name, arr in w.tensors().items():
            flat = arr.reshape(-1)
            for i in pick.choice(flat.size, size=min(8, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = C.loss_and_grads(w, x, y)
                flat[i] = orig - eps
                lm, _ = C.loss_and_grads(w, x, y)
                flat[i] = orig
                num = (lp - lm) / (2 * eps)
                ana = grads[name].reshape(-1)[i]
                assert abs(num - ana) / max(1e-8, abs(num) + abs(ana)) < 1e-4, name


# ---------------------------------------------------------------------------
# The per-window network: a forward and a backward pass over one (n, 3)
# window, written with the per-window kernel forms (one 2-D im2col product
# per convolution, the argmax pool above). Batched passes are checked against
# it. The tap-wise convolution (one tensordot per kernel tap) adds the same
# terms in another order; it is kept as a second reference, equal to 1e-12.


def _random_weights(n, rng):
    """Seeded init with nonzero biases, which init_weights leaves at zero."""
    w = C.init_weights(n, 25.0, rng)
    for name, arr in w.tensors().items():
        if name.endswith("_b"):
            arr[...] = rng.normal(0.0, 0.1, size=arr.shape)
    return w


TAPS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _window_cols(x):
    """(h-1, w-1, 4c) columns of one window: the four taps side by side."""
    h, wd, _ = x.shape
    return np.concatenate([x[di : h - 1 + di, dj : wd - 1 + dj, :] for di, dj in TAPS], axis=2)


def _window_conv(x, w, b):
    cols = _window_cols(x)
    out = cols.reshape(-1, cols.shape[2]) @ w.reshape(-1, w.shape[3]) + b
    return out.reshape(cols.shape[:2] + (w.shape[3],))


def _window_conv_backward(x, w, dout):
    cols = _window_cols(x)
    rows = dout.reshape(-1, dout.shape[2])
    dw = (cols.reshape(-1, cols.shape[2]).T @ rows).reshape(w.shape)
    h, wd, _ = x.shape
    dx = np.zeros_like(x)
    for di, dj in TAPS:
        dx[di : h - 1 + di, dj : wd - 1 + dj, :] += dout @ w[di, dj].T
    return dx, dw, dout.sum(axis=(0, 1))


def _window_conv_taps(x, w, b):
    h, wd, _ = x.shape
    out = np.tile(b, (h - 1, wd - 1, 1))
    for di in range(2):
        for dj in range(2):
            out += np.tensordot(x[di : h - 1 + di, dj : wd - 1 + dj, :], w[di, dj], axes=([2], [0]))
    return out


def _window_conv_backward_taps(x, w, dout):
    h, wd, _ = x.shape
    dw = np.zeros_like(w)
    dx = np.zeros_like(x)
    for di in range(2):
        for dj in range(2):
            dw[di, dj] = np.tensordot(x[di : h - 1 + di, dj : wd - 1 + dj, :], dout, axes=([0, 1], [0, 1]))
            dx[di : h - 1 + di, dj : wd - 1 + dj, :] += dout @ w[di, dj].T
    return dx, dw, dout.sum(axis=(0, 1))


def _window_forward(w, x, conv=_window_conv):
    x3 = x.reshape(x.shape[0], 3, 1)
    z1 = conv(x3, w.conv1_w, w.conv1_b)
    p1, i1 = _maxpool2_argmax(np.maximum(z1, 0.0))
    z2 = conv(p1, w.conv2_w, w.conv2_b)
    p2, i2 = _maxpool2_argmax(np.maximum(z2, 0.0))
    flat = p2.reshape(-1)
    z3 = flat @ w.dense1_w + w.dense1_b
    a3 = np.maximum(z3, 0.0)
    z4 = a3 @ w.dense2_w + w.dense2_b
    a4 = np.maximum(z4, 0.0)
    z5 = float((a4 @ w.out_w)[0] + w.out_b[0])
    p = 1.0 / (1.0 + math.exp(-z5)) if z5 >= 0 else math.exp(z5) / (1.0 + math.exp(z5))
    return p, locals()


def _window_loss_and_grads(w, x, y):
    p, c = _window_forward(w, x)
    loss = -(y * math.log(max(p, 1e-12)) + (1.0 - y) * math.log(max(1.0 - p, 1e-12)))
    dz5 = p - y
    dz4 = w.out_w[:, 0] * dz5 * (c["z4"] > 0)
    dz3 = (w.dense2_w @ dz4) * (c["z3"] > 0)
    dp2 = (w.dense1_w @ dz3).reshape(c["p2"].shape)
    dz2 = _maxpool2_backward_put(dp2, c["i2"], c["z2"].shape[0]) * (c["z2"] > 0)
    dp1, dw2, db2 = _window_conv_backward(c["p1"], w.conv2_w, dz2)
    dz1 = _maxpool2_backward_put(dp1, c["i1"], c["z1"].shape[0]) * (c["z1"] > 0)
    _, dw1, db1 = _window_conv_backward(c["x3"], w.conv1_w, dz1)
    grads = {
        "conv1_w": dw1, "conv1_b": db1, "conv2_w": dw2, "conv2_b": db2,
        "dense1_w": np.outer(c["flat"], dz3), "dense1_b": dz3,
        "dense2_w": np.outer(c["a3"], dz4), "dense2_b": dz4,
        "out_w": c["a4"][:, None] * dz5, "out_b": np.array([dz5]),
    }
    return loss, grads


class TestBatch:
    @given(st.integers(7, 40), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_sum_of_windows(self, n, b, seed, data):
        ys = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=b, max_size=b), label="ys"))
        rng = np.random.default_rng(seed)
        w = _random_weights(n, rng)
        xs = rng.normal(size=(b, n, 3)) * rng.uniform(0.1, 5.0, size=3) + rng.normal(0, 5, size=3)
        loss, grads = C.loss_and_grads(w, xs, ys)
        per_window = [_window_loss_and_grads(w, x, y) for x, y in zip(xs, ys)]
        loss_ref = sum(lw for lw, _ in per_window)
        assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)
        for name, arr in w.tensors().items():
            ref = sum(g[name] for _, g in per_window)
            assert grads[name].shape == arr.shape
            assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name


# ---------------------------------------------------------------------------
# The batched training pass as it was when the pools selected with np.where
# and the ReLU masks multiplied the full-size conv gradients after routing.
# loss_and_grads must give the same bytes.


def _maxpool2_where(x):
    h2 = x.shape[-3] // 2
    top, bottom = x[..., 0 : 2 * h2 : 2, :, :], x[..., 1 : 2 * h2 : 2, :, :]
    arg = bottom > top
    return np.where(arg, bottom, top), arg.astype(np.int64)


def _maxpool2_backward_where(dout, arg, h):
    dx = np.zeros(dout.shape[:-3] + (h,) + dout.shape[-2:])
    h2 = h // 2
    won = arg == 1
    dx[..., 0 : 2 * h2 : 2, :, :] = np.where(won, 0.0, dout)
    dx[..., 1 : 2 * h2 : 2, :, :] = np.where(won, dout, 0.0)
    return dx


def _full_mask_loss_and_grads(w, x, y):
    x3 = x[..., None]
    a1 = np.maximum(kernels.conv2d(x3, w.conv1_w, w.conv1_b), 0.0)
    p1, i1 = _maxpool2_where(a1)
    a2 = np.maximum(kernels.conv2d(p1, w.conv2_w, w.conv2_b), 0.0)
    p2, i2 = _maxpool2_where(a2)
    flat = p2.reshape(x.shape[0], -1)
    a3 = np.maximum(flat @ w.dense1_w + w.dense1_b, 0.0)
    a4 = np.maximum(a3 @ w.dense2_w + w.dense2_b, 0.0)
    p = [C._sigmoid(z) for z in ((a4 @ w.out_w)[:, 0] + w.out_b[0]).tolist()]
    loss = 0.0
    for pi, yi in zip(p, y.tolist()):
        loss -= yi * math.log(max(pi, 1e-12)) + (1.0 - yi) * math.log(max(1.0 - pi, 1e-12))
    dz5 = np.asarray(p) - y
    g = {"out_w": a4.T @ dz5[:, None], "out_b": np.array([dz5.sum()])}
    dz4 = dz5[:, None] * w.out_w[:, 0] * (a4 > 0)
    g["dense2_w"], g["dense2_b"] = a3.T @ dz4, dz4.sum(axis=0)
    dz3 = (dz4 @ w.dense2_w.T) * (a3 > 0)
    g["dense1_w"], g["dense1_b"] = flat.T @ dz3, dz3.sum(axis=0)
    dp2 = (dz3 @ w.dense1_w.T).reshape(i2.shape)
    dz2 = _maxpool2_backward_where(dp2, i2, a2.shape[-3])
    dz2 *= a2 > 0
    dp1, g["conv2_w"], g["conv2_b"] = kernels.conv2d_backward(p1, w.conv2_w, dz2, input_grad=True)
    dz1 = _maxpool2_backward_where(dp1, i1, a1.shape[-3])
    dz1 *= a1 > 0
    _, g["conv1_w"], g["conv1_b"] = kernels.conv2d_backward(x3, w.conv1_w, dz1, input_grad=False)
    return loss, g


class TestPooledMasks:
    @given(st.integers(7, 40), st.sampled_from([1, 4, 5]), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_full_mask_pass_bit_for_bit(self, n, b, seed, data):
        ys = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=b, max_size=b), label="ys"))
        rng = np.random.default_rng(seed)
        w = _random_weights(n, rng)
        xs = rng.normal(size=(b, n, 3)) * rng.uniform(0.1, 5.0, size=3) + rng.normal(0, 5, size=3)
        loss, grads = C.loss_and_grads(w, xs, ys)
        loss_ref, ref = _full_mask_loss_and_grads(w, xs, ys)
        assert loss == loss_ref
        for name in C.TENSOR_NAMES:
            assert grads[name].tobytes() == ref[name].tobytes(), name


def _members(w):
    return {"version": C.WEIGHTS_VERSION, "n": w.n, "rate": w.rate, **w.tensors()}


def _write_archive(path, members):
    with open(path, "wb") as fh:
        np.savez(fh, **members)


class TestWeightsFile:
    def test_archive_layout(self, tmp_path):
        w = small_weights(4)
        path = tmp_path / "w.npz"
        C.save_weights(w, str(path))
        with np.load(path, allow_pickle=False) as z:
            assert sorted(z.files) == sorted(["version", "n", "rate", *C.TENSOR_NAMES])
            assert z["version"].shape == () and z["version"] == 2 == C.WEIGHTS_VERSION
            assert z["n"].shape == () and z["n"] == w.n
            assert z["rate"].shape == () and z["rate"] == w.rate
            for name, arr in w.tensors().items():
                assert z[name].dtype == np.float64 and np.array_equal(z[name], arr), name

    def test_round_trip(self, tmp_path):
        w = small_weights(1)
        path = tmp_path / "w.json"
        C.save_weights(w, str(path))
        loaded = C.load_weights(str(path))
        assert loaded.n == w.n and loaded.rate == w.rate
        for k, v in w.tensors().items():
            assert np.array_equal(v, loaded.tensors()[k]), k

    def test_writes_exactly_the_given_path(self, tmp_path):
        C.save_weights(small_weights(5), str(tmp_path / "w.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.json"]

    def test_saves_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        C.save_weights(small_weights(6), str(a))
        C.save_weights(small_weights(6), str(b))
        assert a.read_bytes() == b.read_bytes()
        with zipfile.ZipFile(a) as z:  # no member carries the time of the save
            assert {m.date_time for m in z.infolist()} == {(1980, 1, 1, 0, 0, 0)}

    def test_filter_count_mismatch(self, tmp_path):
        members = _members(small_weights(2))
        members["conv1_w"] = members["conv1_w"][..., :16]
        members["conv1_b"] = members["conv1_b"][:16]
        path = tmp_path / "w.npz"
        _write_archive(path, members)
        with pytest.raises(FormatError, match="conv1"):
            C.load_weights(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "w.npz"
        for version in (1, 3, 99):
            _write_archive(path, {**_members(small_weights(3)), "version": version})
            with pytest.raises(FormatError, match=f"version {version}"):
                C.load_weights(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda m: m.pop("out_b"), "missing ['out_b'], unexpected []", id="missing-tensor"),
            pytest.param(lambda m: m.update(extra=np.zeros(3)), "missing [], unexpected ['extra']", id="extra-array"),
            pytest.param(lambda m: m.update(conv2_b=m["conv2_b"].astype(np.float32)),
                         "conv2_b has dtype float32, expected float64", id="float32"),
            pytest.param(lambda m: m.update(conv2_b=m["conv2_b"].astype(np.int64)),
                         "conv2_b has dtype int64, expected float64", id="int"),
            pytest.param(lambda m: m.update(dense2_w=m["dense2_w"][:, :99]),
                         "dense2_w has shape (100, 99), expected (100, 100)", id="wrong-shape"),
            pytest.param(lambda m: m.update(out_b=np.array([np.nan])), "out_b contains non-finite values",
                         id="non-finite"),
            pytest.param(lambda m: m.update(out_b=np.array([{}], dtype=object)),
                         "is not a readable .npz weights archive", id="pickled-member"),
            pytest.param(lambda m: m.pop("version"), "needs a numeric scalar 'version'", id="missing-version"),
            pytest.param(lambda m: m.pop("n"), "needs a numeric scalar 'n'", id="missing-n"),
            pytest.param(lambda m: m.pop("rate"), "needs a numeric scalar 'rate'", id="missing-rate"),
            pytest.param(lambda m: m.update(n=np.array([m["n"]])), "needs a numeric scalar 'n'", id="non-scalar-n"),
            pytest.param(lambda m: m.update(rate=np.array([25.0, 25.0])), "needs a numeric scalar 'rate'",
                         id="non-scalar-rate"),
            pytest.param(lambda m: m.update(n=np.array(b"10")), "needs a numeric scalar 'n'", id="bytes-n"),
            # a window too short for the network, though the tensors fit n = 7
            pytest.param(lambda m: m.update(n=6), "input of 6 rows collapses before the second pool (need >= 7)",
                         id="n-6"),
        ],
    )
    def test_malformed_archive_is_format_error(self, tmp_path, edit, message):
        members = _members(small_weights(7))
        edit(members)
        path = tmp_path / "w.npz"
        _write_archive(path, members)
        with pytest.raises(FormatError) as e:
            C.load_weights(str(path))
        assert message in str(e.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "w.npz"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            C.load_weights(str(path))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "w.npz"
        C.save_weights(small_weights(8), str(path))
        data = path.read_bytes()
        for cut in (1, 4, 30, 100, len(data) // 2, len(data) - 23, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                C.load_weights(str(path))

    def test_v1_json_names_mfed_train(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"version": 1, "meta": {"n": 10, "rate": 25.0}, "out": {"weights": [[0.0]], "biases": [0.0]}}')
        with pytest.raises(FormatError, match="mfed train"):
            C.load_weights(str(path))

    def test_bare_npy(self, tmp_path):
        path = tmp_path / "w.npy"
        np.save(path, small_weights(9).out_w)
        with pytest.raises(FormatError):
            C.load_weights(str(path))

    def test_missing_path_stays_os_error(self, tmp_path):
        with pytest.raises(OSError):
            C.load_weights(str(tmp_path / "none.npz"))

    @given(st.lists(st.tuples(st.integers(0, 2**31), st.integers(0, 255)), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_damaged_bytes_load_equal_or_raise_format_error(self, tmp_path_factory, edits):
        w = small_weights(10, n=7)
        path = tmp_path_factory.mktemp("w") / "w.npz"
        C.save_weights(w, str(path))
        data = bytearray(path.read_bytes())
        for pos, value in edits:
            data[pos % len(data)] = value
        path.write_bytes(bytes(data))
        try:
            loaded = C.load_weights(str(path))
        except FormatError:
            return
        assert loaded.n == w.n and loaded.rate == w.rate
        for k, v in w.tensors().items():
            assert np.array_equal(v, loaded.tensors()[k]), k
