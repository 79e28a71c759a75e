"""Unit tests for the MLP kernel: forward, losses, backprop, SGD, predict."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdalab import nn
from sdalab.errors import ConfigError, NumericError, ShapeError


def make_model(dims, head=nn.SOFTMAX, seed=0):
    rng = np.random.default_rng(seed)
    return nn.MlpModel.init(dims, head, rng)


def numeric_gradients(model, loss_fn, h=1e-4):
    """Central finite differences of loss_fn(model) over every parameter."""
    grads_w, grads_b = [], []
    for w in model.weights:
        g = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + h
            lp = loss_fn(model)
            w[idx] = orig - h
            lm = loss_fn(model)
            w[idx] = orig
            g[idx] = (lp - lm) / (2.0 * h)
        grads_w.append(g)
    for b in model.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(*b.shape):
            orig = b[idx]
            b[idx] = orig + h
            lp = loss_fn(model)
            b[idx] = orig - h
            lm = loss_fn(model)
            b[idx] = orig
            g[idx] = (lp - lm) / (2.0 * h)
        grads_b.append(g)
    return grads_w, grads_b


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


class TestForward:
    def test_zero_weight_two_class_softmax_gives_half(self):
        model = nn.MlpModel(
            [2, 3, 2],
            [np.zeros((2, 3)), np.zeros((3, 2))],
            [np.zeros(3), np.zeros(2)],
        )
        trace = nn.forward(model, np.array([[1.0, -4.0], [0.3, 0.7]]))
        np.testing.assert_allclose(trace.probs, 0.5)

    def test_hand_computed_one_hidden_layer(self):
        # z1 = [1*1 + 2*0.5 + 0.1, 1*(-1) + 2*2 - 0.2] = [2.1, 2.8]; ReLU keeps both.
        w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
        b1 = np.array([0.1, -0.2])
        w2 = np.eye(2)
        b2 = np.zeros(2)
        model = nn.MlpModel([2, 2, 2], [w1, w2], [b1, b2])
        trace = nn.forward(model, np.array([[1.0, 2.0]]))
        e1, e2 = math.exp(2.1), math.exp(2.8)
        np.testing.assert_allclose(trace.probs[0], [e1 / (e1 + e2), e2 / (e1 + e2)], atol=1e-12)
        np.testing.assert_allclose(trace.activations[0][0], [2.1, 2.8], atol=1e-12)

    def test_sigmoid_zero_logits_give_half(self):
        model = nn.MlpModel(
            [2, 4, 3],
            [np.zeros((2, 4)), np.zeros((4, 3))],
            [np.zeros(4), np.zeros(3)],
            head=nn.SIGMOID,
        )
        trace = nn.forward(model, np.array([[5.0, -2.0]]))
        np.testing.assert_allclose(trace.probs, 0.5)

    def test_dimension_mismatch_names_dims(self):
        model = make_model([3, 4, 2])
        with pytest.raises(ShapeError, match="3"):
            nn.forward(model, np.zeros((5, 2)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_softmax_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        model = make_model([2, 8, 4], seed=seed)
        x = rng.normal(scale=5.0, size=(6, 2))
        probs = nn.forward(model, x).probs
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


# Verbatim copies of loss_ce and backward as they were before the unmasked
# loss stopped multiplying by ones and backward stopped zero-filling; the
# current versions must give the same bits.
def reference_loss_ce(probs, targets, mask=None):
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    n = probs.shape[0]
    if mask is None:
        mask = np.ones(n)
    else:
        mask = np.asarray(mask, dtype=np.float64)
    n_eff = int(round(mask.sum()))
    dprobs = np.zeros_like(probs)
    if n_eff == 0:
        return 0.0, dprobs, 0
    rows = np.arange(n)
    p_t = probs[rows, targets]
    losses = -np.log(np.maximum(p_t, nn.PROB_EPS))
    loss = float((losses * mask).sum() / n_eff)
    grad_vals = np.where(p_t > nn.PROB_EPS, -1.0 / np.maximum(p_t, nn.PROB_EPS), 0.0)
    dprobs[rows, targets] = grad_vals * mask / n_eff
    return loss, dprobs, n_eff


def reference_backward(model, trace, dprobs):
    dprobs = np.asarray(dprobs, dtype=np.float64)
    probs = trace.probs
    if model.head == nn.SOFTMAX:
        inner = (dprobs * probs).sum(axis=1, keepdims=True)
        dz = probs * (dprobs - inner)
    else:
        dz = dprobs * probs * (1.0 - probs)
    grads = nn.GradientSet.zeros_like(model)
    n_layers = len(model.weights)
    for i in range(n_layers - 1, -1, -1):
        a_prev = trace.inputs if i == 0 else trace.activations[i - 1]
        grads.weights[i][:] = a_prev.T @ dz
        grads.biases[i][:] = dz.sum(axis=0)
        if i > 0:
            da = dz @ model.weights[i].T
            dz = da * (trace.pre_activations[i - 1] > 0.0)
    return grads


class TestLossCe:
    def test_one_hot_target_is_zero(self):
        probs = np.array([[0.0, 1.0, 0.0]])
        (loss,), dprobs, (n,) = nn.loss_ce(probs, [1])
        assert loss == 0.0
        assert n == 1

    def test_uniform_two_class_is_ln2(self):
        (loss,), _, _ = nn.loss_ce(np.array([[0.5, 0.5]]), [0])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(7)
        probs = rng.uniform(0.05, 1.0, size=(4, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        targets = rng.integers(0, 3, size=4)
        expected = sum(-math.log(probs[i, targets[i]]) for i in range(4)) / 4.0
        (loss,), _, _ = nn.loss_ce(probs, targets)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_all_masked_batch_flags_empty(self):
        probs = np.full((3, 2), 0.5)
        (loss,), dprobs, (n,) = nn.loss_ce(probs, [0, 1, 0], mask=[0, 0, 0])
        assert loss == 0.0 and n == 0
        assert np.all(dprobs == 0.0)

    def test_mask_restricts_mean_to_unmasked(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
        (loss,), _, (n,) = nn.loss_ce(probs, [0, 1, 0], mask=[1, 1, 0])
        expected = (-math.log(0.5) - math.log(0.75)) / 2.0
        assert n == 2
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_matches_verbatim_with_and_without_mask(self):
        rng = np.random.default_rng(8)
        for case in range(40):
            n = int(rng.integers(1, 120))
            probs = rng.dirichlet(np.ones(3), size=n)
            probs[rng.random(n) < 0.1, 0] = 0.0  # below the probability floor
            targets = rng.integers(0, 3, size=n)
            masks = [None, (rng.random(n) < 0.6).astype(float), np.zeros(n), np.ones(n)]
            for mask in masks:
                (loss,), dprobs, (n_eff,) = nn.loss_ce(probs, targets, mask=mask)
                want = reference_loss_ce(probs, targets, mask=mask)
                assert loss == want[0] and n_eff == want[2]
                assert np.array_equal(dprobs, want[1])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_loss_non_negative_and_zero_iff_mass_on_target(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4), size=5)
        targets = rng.integers(0, 4, size=5)
        (loss,), _, _ = nn.loss_ce(probs, targets)
        assert loss >= 0.0
        if loss == 0.0:
            assert np.all(probs[np.arange(5), targets] == 1.0)


class TestLossBce:
    def test_half_everywhere_is_ln2(self):
        probs = np.full((2, 3), 0.5)
        targets = np.array([[0, 1, 0], [1, 1, 0]])
        (loss,), _, _ = nn.loss_bce(probs, targets)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_is_tiny(self):
        targets = np.array([[1.0, 0.0]])
        (loss,), _, _ = nn.loss_bce(targets, targets)
        assert 0.0 <= loss <= -math.log(1.0 - nn.PROB_EPS) + 1e-15

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(3)
        probs = rng.uniform(0.05, 0.95, size=(3, 2))
        targets = rng.integers(0, 2, size=(3, 2)).astype(float)
        acc = 0.0
        for i in range(3):
            for j in range(2):
                if targets[i, j] == 1.0:
                    acc -= math.log(probs[i, j])
                else:
                    acc -= math.log(1.0 - probs[i, j])
        (loss,), _, _ = nn.loss_bce(probs, targets)
        assert loss == pytest.approx(acc / 6.0, abs=1e-12)

    def test_rejects_non_binary_targets(self):
        with pytest.raises(ConfigError):
            nn.loss_bce(np.full((1, 2), 0.5), np.array([[0.0, 0.3]]))


def ce_loss_of_model(model, x, targets):
    (loss,), _, _ = nn.loss_ce(nn.forward(model, x).probs, targets)
    return loss


def bce_loss_of_model(model, x, targets):
    (loss,), _, _ = nn.loss_bce(nn.forward(model, x).probs, targets)
    return loss


class TestBackward:
    def test_zero_upstream_gradient_gives_zero_grads(self):
        model = make_model([2, 5, 3], seed=1)
        trace = nn.forward(model, np.random.default_rng(1).normal(size=(4, 2)))
        grads = nn.backward(model, trace, np.zeros_like(trace.probs))
        for g in grads.weights + grads.biases:
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    def test_matches_verbatim_zero_filled_copy(self, head):
        rng = np.random.default_rng(9)
        for case, dims in enumerate([[2, 5, 3], [2, 10, 10, 3], [2, 4, 6, 5, 2]]):
            model = make_model(dims, head=head, seed=case)
            trace = nn.forward(model, rng.normal(scale=2.0, size=(int(rng.integers(1, 90)), 2)))
            dprobs = rng.normal(size=trace.probs.shape)
            got = nn.backward(model, trace, dprobs)
            want = reference_backward(model, trace, dprobs)
            for g, w in zip(got.weights + got.biases, want.weights + want.biases):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_stale_trace_raises(self):
        model = make_model([2, 5, 3], seed=1)
        other = make_model([2, 4, 3], seed=2)
        trace = nn.forward(model, np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            nn.backward(other, trace, np.zeros_like(trace.probs))

    @pytest.mark.parametrize("seed", range(8))
    def test_softmax_ce_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(2, 9)), int(rng.integers(4, 33)), int(rng.integers(2, 6))]
        model = make_model(dims, seed=seed)
        x = rng.normal(size=(5, dims[0]))
        targets = rng.integers(0, dims[-1], size=5)

        trace = nn.forward(model, x)
        _, dprobs, _ = nn.loss_ce(trace.probs, targets)
        analytic = nn.backward(model, trace, dprobs)
        num_w, num_b = numeric_gradients(model, lambda m: ce_loss_of_model(m, x, targets))
        assert max_rel_error(analytic.weights, num_w) < 1e-4
        assert max_rel_error(analytic.biases, num_b) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_sigmoid_bce_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        dims = [3, 8, 4]
        model = make_model(dims, head=nn.SIGMOID, seed=200 + seed)
        x = rng.normal(size=(4, 3))
        targets = rng.integers(0, 2, size=(4, 4)).astype(float)

        trace = nn.forward(model, x)
        _, dprobs, _ = nn.loss_bce(trace.probs, targets)
        analytic = nn.backward(model, trace, dprobs)
        num_w, num_b = numeric_gradients(model, lambda m: bce_loss_of_model(m, x, targets))
        assert max_rel_error(analytic.weights, num_w) < 1e-4
        assert max_rel_error(analytic.biases, num_b) < 1e-4

    def test_linear_regime_matches_closed_form(self):
        # Positive inputs, positive weights and a large bias keep every hidden
        # pre-activation > 0, so ReLU is the identity and the closed-form
        # softmax-regression gradient applies layer by layer.
        rng = np.random.default_rng(11)
        n, d, h, c = 6, 3, 4, 3
        x = rng.uniform(0.5, 1.5, size=(n, d))
        w1 = rng.uniform(0.1, 0.5, size=(d, h))
        b1 = np.full(h, 1.0)
        w2 = rng.normal(scale=0.3, size=(h, c))
        b2 = np.zeros(c)
        model = nn.MlpModel([d, h, c], [w1, w2], [b1, b2])
        targets = rng.integers(0, c, size=n)

        trace = nn.forward(model, x)
        assert np.all(trace.pre_activations[0] > 0.0)
        _, dprobs, _ = nn.loss_ce(trace.probs, targets)
        grads = nn.backward(model, trace, dprobs)

        onehot = np.zeros((n, c))
        onehot[np.arange(n), targets] = 1.0
        dz2 = (trace.probs - onehot) / n
        a1 = x @ w1 + b1
        np.testing.assert_allclose(grads.weights[1], a1.T @ dz2, atol=1e-12)
        np.testing.assert_allclose(grads.biases[1], dz2.sum(axis=0), atol=1e-12)
        dz1 = dz2 @ w2.T
        np.testing.assert_allclose(grads.weights[0], x.T @ dz1, atol=1e-12)
        np.testing.assert_allclose(grads.biases[0], dz1.sum(axis=0), atol=1e-12)


class TestSgd:
    def test_zero_gradient_no_change(self):
        model = make_model([2, 4, 2], seed=3)
        before = [w.copy() for w in model.weights]
        state = nn.SgdState.zeros_like(model)
        nn.sgd_step(model, nn.GradientSet.zeros_like(model), nn.SgdConfig(0.1), state)
        for w, w0 in zip(model.weights, before):
            np.testing.assert_array_equal(w, w0)

    def test_plain_sgd_elementwise(self):
        model = make_model([2, 3, 2], seed=4)
        grads = nn.GradientSet(
            [np.ones_like(w) for w in model.weights],
            [np.ones_like(b) * 2.0 for b in model.biases],
        )
        expected_w = [w - 0.05 * 1.0 for w in model.weights]
        expected_b = [b - 0.05 * 2.0 for b in model.biases]
        state = nn.SgdState.zeros_like(model)
        nn.sgd_step(model, grads, nn.SgdConfig(0.05), state)
        for w, e in zip(model.weights, expected_w):
            np.testing.assert_allclose(w, e, atol=1e-15)
        for b, e in zip(model.biases, expected_b):
            np.testing.assert_allclose(b, e, atol=1e-15)

    def test_two_momentum_steps_match_hand_unroll(self):
        model = make_model([2, 3, 2], seed=5)
        theta0 = model.weights[0].copy()
        g1 = np.full_like(theta0, 0.5)
        g2 = np.full_like(theta0, -0.25)
        lr, mom = 0.1, 0.9
        # v1 = g1; theta1 = theta0 - lr*v1; v2 = mom*v1 + g2; theta2 = theta1 - lr*v2
        v1 = g1
        theta1 = theta0 - lr * v1
        v2 = mom * v1 + g2
        theta2 = theta1 - lr * v2

        cfg = nn.SgdConfig(lr, momentum=mom)
        state = nn.SgdState.zeros_like(model)
        zeros = nn.GradientSet.zeros_like(model)
        step1 = nn.GradientSet([g1] + zeros.weights[1:], zeros.biases)
        nn.sgd_step(model, step1, cfg, state)
        np.testing.assert_allclose(model.weights[0], theta1, atol=1e-15)
        step2 = nn.GradientSet([g2] + zeros.weights[1:], zeros.biases)
        nn.sgd_step(model, step2, cfg, state)
        np.testing.assert_allclose(model.weights[0], theta2, atol=1e-15)

    def test_weight_decay_enters_velocity(self):
        model = make_model([2, 3, 2], seed=6)
        theta0 = model.weights[0].copy()
        state = nn.SgdState.zeros_like(model)
        nn.sgd_step(
            model, nn.GradientSet.zeros_like(model), nn.SgdConfig(0.1, weight_decay=0.01), state
        )
        np.testing.assert_allclose(model.weights[0], theta0 - 0.1 * 0.01 * theta0, atol=1e-15)

    def test_non_finite_gradient_aborts(self):
        model = make_model([2, 3, 2], seed=7)
        grads = nn.GradientSet.zeros_like(model)
        grads.weights[0][0, 0] = np.nan
        with pytest.raises(NumericError, match="layer 0"):
            nn.sgd_step(model, grads, nn.SgdConfig(0.1), state=nn.SgdState.zeros_like(model))

    def test_finite_gradients_whose_squares_overflow_step_as_the_parent(self):
        # sgd_step checks finiteness by one dot product, which overflows here
        rng = np.random.default_rng(70)
        model = make_model([2, 4, 4, 3], seed=70)
        ref = model.copy()
        cfg = nn.SgdConfig(0.01, momentum=0.9, weight_decay=1e-3)
        state, ref_state = nn.SgdState.zeros_like(model), nn.SgdState.zeros_like(ref)
        for _ in range(3):
            grads = nn.GradientSet.zeros_like(model)
            grads.flat[:] = rng.choice([1e200, -1e200], size=grads.flat.size) * rng.random(grads.flat.size)
            with np.errstate(over="ignore"):
                assert np.isfinite(grads.flat).all() and np.dot(grads.flat, grads.flat) == np.inf
                nn.sgd_step(model, grads, cfg, state)
            parent_sgd_step(ref, grads, cfg, ref_state)
            assert model.params.tobytes() == ref.params.tobytes()
            assert state.velocity.tobytes() == ref_state.velocity.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["weight", "bias"])
    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_non_finite_entry_names_its_array_and_changes_nothing(self, value, kind, layer):
        rng = np.random.default_rng(71)
        model = make_model([2, 4, 4, 3], seed=71)
        cfg = nn.SgdConfig(0.05, momentum=0.9, weight_decay=1e-3)
        state = nn.SgdState.zeros_like(model)
        grads = nn.GradientSet.zeros_like(model)
        grads.flat[:] = rng.normal(size=grads.flat.size)
        nn.sgd_step(model, grads, cfg, state)  # a velocity that is not zero
        arrays = grads.weights if kind == "weight" else grads.biases
        arrays[layer].flat[int(rng.integers(arrays[layer].size))] = value
        params, velocity = model.params.tobytes(), state.velocity.tobytes()
        with pytest.raises(NumericError, match=f"^non-finite {kind} gradient in layer {layer}$"):
            nn.sgd_step(model, grads, cfg, state)
        assert model.params.tobytes() == params and state.velocity.tobytes() == velocity


class TestPredictAndConfidence:
    def test_argmax_and_documented_tie_break(self):
        assert nn.argmax_rows(np.array([[0.2, 0.8]]))[0] == 1
        assert nn.argmax_rows(np.array([[0.5, 0.5]]))[0] == 0

    def test_sigmoid_thresholding(self):
        model = nn.MlpModel(
            [2, 2, 2],
            [np.zeros((2, 2)), np.zeros((2, 2))],
            [np.zeros(2), np.array([-0.04, 0.04])],
            head=nn.SIGMOID,
        )
        out = nn.predict(model, np.zeros((1, 2)), thresholds=[0.5, 0.5])
        np.testing.assert_array_equal(out, [[0, 1]])

    def test_sigmoid_without_thresholds_is_config_error(self):
        model = make_model([2, 3, 2], head=nn.SIGMOID)
        with pytest.raises(ConfigError):
            nn.predict(model, np.zeros((1, 2)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_argmax_invariant_under_monotone_logit_transform(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=3.0, size=(5, 4))
        base = nn.argmax_rows(logits)
        np.testing.assert_array_equal(nn.argmax_rows(2.0 * logits + 1.0), base)
        np.testing.assert_array_equal(nn.argmax_rows(np.exp(logits / 4.0)), base)

    def test_predict_invariant_under_positive_logit_scaling(self):
        model = make_model([2, 6, 3], seed=10)
        x = np.random.default_rng(10).normal(size=(20, 2))
        base = nn.predict(model, x)
        scaled = model.copy()
        scaled.weights[-1] *= 3.0
        scaled.biases[-1] *= 3.0
        np.testing.assert_array_equal(nn.predict(scaled, x), base)


class TestFeaturesAndSerialization:
    def test_zero_weight_model_zero_features(self):
        model = nn.MlpModel(
            [2, 3, 2],
            [np.zeros((2, 3)), np.zeros((3, 2))],
            [np.zeros(3), np.zeros(2)],
        )
        feats = nn.penultimate_features(model, np.ones((4, 2)))
        assert feats.shape == (4, 3)
        assert np.all(feats == 0.0)

    def test_hand_computed_features(self):
        w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
        b1 = np.array([0.1, -3.0])
        model = nn.MlpModel([2, 2, 2], [w1, np.eye(2)], [b1, np.zeros(2)])
        feats = nn.penultimate_features(model, np.array([[1.0, 2.0]]))
        # z = [2.1, 1.0]; ReLU clips the second (1*-1 + 2*2 - 3 = 0).
        np.testing.assert_allclose(feats[0], [2.1, 0.0], atol=1e-12)

    def test_feature_dim_is_last_hidden_width(self):
        model = make_model([2, 16, 8, 3], seed=12)
        feats = nn.penultimate_features(model, np.zeros((5, 2)))
        assert feats.shape == (5, 8)

    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    @pytest.mark.parametrize("dims", [[2, 10, 10, 3], [2, 7, 4], [2, 3, 6, 5, 2]])
    def test_features_equal_forward_activations_bitwise(self, head, dims):
        model = make_model(dims, head=head, seed=len(dims))
        rng = np.random.default_rng(14)
        for rows in (1, 2, 17, 200):
            x = rng.normal(scale=3.0, size=(rows, 2))
            np.testing.assert_array_equal(
                nn.penultimate_features(model, x), nn.forward(model, x).activations[-1]
            )

    def test_features_reject_bad_input_shape(self):
        model = make_model([2, 5, 3], seed=15)
        for bad in (np.zeros((4, 3)), np.zeros(2), np.zeros((1, 1, 2))):
            with pytest.raises(ShapeError):
                nn.penultimate_features(model, bad)
            with pytest.raises(ShapeError):
                nn.one_row_features(model, bad)

    def test_json_round_trip(self, tmp_path):
        model = make_model([2, 5, 3], seed=13)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = nn.MlpModel.load(path)
        assert loaded.layer_dims == model.layer_dims
        assert loaded.head == model.head
        for a, b in zip(loaded.weights, model.weights):
            np.testing.assert_array_equal(a, b)

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigError):
            nn.MlpModel.from_json_dict({"format": "something-else"})


class TestBitEqualityFacts:
    """What cosine_distant retrieval's array path rests on: each fact lets it
    compute a whole step at once and still get the bits of one point and one
    class slice at a time. Random widths, depths, scales and bank sizes; if
    a numpy or BLAS change breaks a fact, the test named after it fails. The
    last three facts are what the training step's cheaper calls rest on:
    np.dot for `@`, and column folds for axis-1 reductions.

    The row-subset fact depends on the layer shapes. With OpenBLAS 0.3.31 on
    an AVX-512 x86-64 CPU, a row's bits also depend on the rows around it in
    a layer with 8 or more inputs and 1 output, or with 16 or more inputs
    and an output width of 1, 2 or 3 modulo 8. Its test draws the shapes
    the fact covers: any first layer (2 inputs), then layers of at most 7
    inputs, or the default hidden widths [10, 10]. At other widths the
    retrieval takes one feature pass per class slice.

    A matrix-vector product's bits for a row depend on the matrix's height
    and the row's place in it (OpenBLAS runs the last height % 4 rows
    through narrower kernels), so a product with the whole bank does not
    give a row the bits of its product with its class slice; retrieval
    keeps one product per class slice, and the height test pins what that
    product gives.
    """

    CASES = 150

    @staticmethod
    def cases(seed, row_subset_shapes=False):
        """(rng, model, bank-like points) over random shapes, scales and sizes."""
        rng = np.random.default_rng(seed)
        for _ in range(TestBitEqualityFacts.CASES):
            hidden = rng.integers(1, 40, size=rng.integers(1, 4)).tolist()
            if row_subset_shapes:  # see the class docstring
                hidden = [[10, 10], hidden[:1], [min(w, 7) for w in hidden]][int(rng.integers(3))]
            model = make_model([2, *hidden, 3], seed=int(rng.integers(1 << 30)))
            scale = 10.0 ** rng.uniform(-2, 2)
            yield rng, model, rng.normal(scale=scale, size=(int(rng.integers(2, 300)), 2))

    def test_row_subset_of_multi_row_pass_equals_pass_on_subset(self):
        for rng, model, x in self.cases(1, row_subset_shapes=True):
            feats = nn.penultimate_features(model, x)
            size = int(rng.integers(2, len(x) + 1))
            lo = int(rng.integers(0, len(x) - size + 1))
            for rows in (np.arange(lo, lo + size), rng.choice(len(x), size=size, replace=False)):
                assert np.array_equal(nn.penultimate_features(model, x[rows]), feats[rows])

    def test_stacked_one_row_passes_equal_one_row_passes(self):
        for _, model, x in self.cases(2):
            stacked = nn.one_row_features(model, x)
            assert stacked.shape == (len(x), model.layer_dims[-2])
            for i in range(len(x)):
                assert np.array_equal(stacked[i], nn.penultimate_features(model, x[i:i + 1])[0])
            w = model.weights[0]
            rows = np.concatenate([x[i:i + 1] @ w for i in range(len(x))])
            assert np.array_equal((x[:, None, :] @ w)[:, 0], rows)

    def test_stacked_dots_square_rooted_equal_vector_norm(self):
        for _, model, x in self.cases(3):
            feats = nn.one_row_features(model, x)
            norms = np.sqrt((feats[:, None, :] @ feats[:, :, None])[:, 0, 0])
            assert np.array_equal(norms, [np.linalg.norm(f) for f in feats])

    def test_row_norms_by_reduce_equal_linalg_norm(self):
        for _, model, x in self.cases(4):
            feats = nn.penultimate_features(model, x)
            assert np.array_equal(
                np.sqrt(np.add.reduce(feats * feats, axis=1)), np.linalg.norm(feats, axis=1)
            )

    def test_stacked_matmul_on_slice_view_equals_fresh_copy(self):
        for rng, model, x in self.cases(5):
            feats = nn.penultimate_features(model, x)
            lo = int(rng.integers(0, len(x)))
            hi = int(rng.integers(lo + 1, len(x) + 1))
            view, fresh = feats[lo:hi], feats[lo:hi].copy()
            points = nn.one_row_features(model, rng.normal(size=(int(rng.integers(1, 17)), 2)))
            stacked = (view @ points[:, :, None])[:, :, 0]
            assert np.array_equal(stacked, (fresh @ points[:, :, None])[:, :, 0])
            assert np.array_equal(stacked, np.stack([fresh @ a for a in points]))

    # the penultimate widths of every model the tests and the shipped config
    # build, and a few past them
    FEATURE_WIDTHS = (2, 3, 4, 5, 6, 8, 10, 16, 24)

    def test_class_slice_products_equal_per_point_products_at_every_height(self):
        # cosine_distant's one per-class call: a class slice times every
        # point of the class, stacked, against each point's own
        # matrix-vector product with the slice, for slices of 1 to 400 rows
        rng = np.random.default_rng(11)
        for width in self.FEATURE_WIDTHS:
            for height in range(1, 401):
                scale = 10.0 ** rng.uniform(-2, 2)
                feats = np.maximum(rng.normal(scale=scale, size=(height, width)), 0.0)
                own = np.maximum(rng.normal(size=(int(rng.integers(1, 9)), width)), 0.0)
                stacked = (feats @ own[:, :, None])[:, :, 0]
                assert np.array_equal(stacked, np.stack([feats @ a for a in own])), (width, height)

    @staticmethod
    def layouts(rng, rows, cols):
        """A random (rows, cols) matrix as a C-ordered array, an F-ordered
        array and a strided view of every other row of a wider matrix (its
        columns adjacent, as in a row slice or a column block of a batch)."""
        values = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=(rows, cols))
        wide = np.zeros((2 * rows, cols + 3))
        wide[::2, 2 : 2 + cols] = values
        return values, np.asfortranarray(values), wide[::2, 2 : 2 + cols]

    def test_dot_equals_matmul_for_2d_operands(self):
        # Right operands as the layers have them: a C-ordered weight, and an
        # F-ordered one as its transpose is. The nn module docstring names
        # the layouts where the two products differ.
        rng = np.random.default_rng(6)
        for rows in (1, 240):
            for inner in range(1, 33):
                for cols in range(1, 33):
                    weight = rng.normal(size=(inner, cols))
                    for a in self.layouts(rng, rows, inner):
                        for w in (weight, np.asfortranarray(weight)):
                            assert np.array_equal(np.dot(a, w), a @ w), (rows, inner, cols)

    def test_column_folds_equal_axis_1_reductions(self):
        rng = np.random.default_rng(7)
        for cols in range(2, 8):
            for rows in range(1, 601):
                x = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(rows, cols))
                x[rng.random(x.shape) < 0.1] = 0.0
                total, top = x[:, 0].copy(), x[:, 0].copy()
                for j in range(1, cols):
                    total += x[:, j]
                    np.maximum(top, x[:, j], out=top)
                assert np.array_equal(total, np.add.reduce(x, axis=1)), (rows, cols)
                assert np.array_equal(top, np.maximum.reduce(x, axis=1)), (rows, cols)
        for cols in range(1, 13):  # the helper, reductions at the other widths included
            x = rng.normal(size=(int(rng.integers(1, 300)), cols))
            for ufunc in (np.add, np.maximum):
                want = ufunc.reduce(x, axis=1, keepdims=True)
                assert same_bits(nn._Fold(x, np.empty(len(x)))(ufunc), want)

    def test_einsum_column_sums_equal_row_axis_reductions(self):
        # backward's bias sums from 2 columns: both sum the rows in order
        # from +0.0 (at 1 column add.reduce sums pairwise, so they differ)
        rng = np.random.default_rng(12)
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
        for cols in range(2, 17):
            for rows in range(1, 301):
                x = rng.normal(size=(rows, cols)) * np.exp(rng.normal(scale=8.0, size=(rows, cols)))
                if rows % 3 == 0:
                    x[rng.random(x.shape) < 0.05] = rng.choice(specials)
                if rows % 4 == 0:
                    x[:, rng.integers(cols)] = rng.choice([0.0, -0.0])  # a column of zeros
                got, want = np.empty(cols), np.empty(cols)
                np.einsum("ij->j", x, out=got)
                np.add.reduce(x, axis=0, out=want)
                assert same_bits(got, want), (rows, cols)

    def test_permuted_rows_equal_row_by_row_shuffles(self):
        # _draw_epoch's one call per run of a pool's permutations: rows of a
        # block within a tile, as many as the run has
        for seed in range(40):
            for needed in (1, 2, 3, 16):
                for size in (1, 2, 9, 45, 112, 950):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    tile = np.tile(np.arange(size) * 3 + 1, (needed + 2, 1))
                    want = tile.copy()
                    block = tile[1 : needed + 1]
                    rng.permuted(block, axis=1, out=block)
                    for row in want[1 : needed + 1]:
                        ref.shuffle(row)
                    assert np.array_equal(tile, want), (seed, needed, size)
                    assert rng.bit_generator.state == ref.bit_generator.state

    def test_forward_on_a_strided_view_equals_forward_on_its_copy(self):
        # np.dot's bits can depend on the left operand's layout; forward
        # reads C-ordered rows whatever layout the caller passes
        rng = np.random.default_rng(10)
        for rows in (1, 16, 64, 240):
            for width in range(1, 33):
                for outputs in (2, 3, 4, 11):
                    view = rng.normal(size=(2 * rows, 2 * width))[::2, ::2]
                    model = make_model([width, 10, outputs], seed=width)
                    got, want = nn.forward(model, view), nn.forward(model, view.copy())
                    assert same_bits(got.probs, want.probs), (rows, width, outputs)
                    assert same_arrays(got.pre_activations, want.pre_activations)

    def test_cross_entropy_head_row_is_never_all_negative_zero(self):
        # _Fold's precondition at backward's softmax head, for
        # upstream gradients from loss_ce: masked rows, rows outside every
        # term and probabilities of 0 and 1 included
        for rng, model, x in lean_cases(8):
            if model.head != nn.SOFTMAX:
                continue
            probs = floored_probs(rng, nn.forward(model, x).probs)
            terms = split_terms(rng, len(probs), gaps=True)
            n_scored = sum(stop - start for start, stop in terms)
            targets = rng.integers(0, probs.shape[1], size=n_scored)
            for mask in (None, (rng.random(n_scored) < 0.5).astype(float), np.zeros(n_scored)):
                inner = nn.loss_ce(probs, targets, terms, mask)[1] * probs
                assert not np.any(np.all((inner == 0.0) & np.signbit(inner), axis=1))


class TestDeterminism:
    def test_same_seed_same_init(self):
        a = make_model([2, 8, 3], seed=42)
        b = make_model([2, 8, 3], seed=42)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_training_sequence_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            model = nn.MlpModel.init([2, 8, 3], nn.SOFTMAX, rng)
            state = nn.SgdState.zeros_like(model)
            cfg = nn.SgdConfig(0.05, momentum=0.9)
            for _ in range(5):
                x = rng.normal(size=(8, 2))
                t = rng.integers(0, 3, size=8)
                trace = nn.forward(model, x)
                _, dprobs, _ = nn.loss_ce(trace.probs, t)
                grads = nn.backward(model, trace, dprobs)
                nn.sgd_step(model, grads, cfg, state)
            return model

        m1, m2 = run(), run()
        for wa, wb in zip(m1.weights, m2.weights):
            assert wa.tobytes() == wb.tobytes()
        for ba, bb in zip(m1.biases, m2.biases):
            assert ba.tobytes() == bb.tobytes()


# Verbatim copies of the list-based parameter code that held each weight,
# bias, gradient and momentum array on its own: the flat-vector versions
# must give the same bits.
class ListModel:
    def __init__(self, model):
        self.layer_dims = list(model.layer_dims)
        self.head = model.head
        self.input_dim = model.input_dim
        self.weights = [w.copy() for w in model.weights]
        self.biases = [b.copy() for b in model.biases]


class ListGradientSet:
    def __init__(self, weights, biases):
        self.weights = weights
        self.biases = biases

    def add_(self, other):
        for a, b in zip(self.weights, other.weights):
            a += b
        for a, b in zip(self.biases, other.biases):
            a += b
        return self


class ListSgdState:
    def __init__(self, model):
        self.vel_weights = [np.zeros_like(w) for w in model.weights]
        self.vel_biases = [np.zeros_like(b) for b in model.biases]


def list_backward(model, trace, dprobs):
    dprobs = np.asarray(dprobs, dtype=np.float64)
    probs = trace.probs
    if model.head == nn.SOFTMAX:
        inner = (dprobs * probs).sum(axis=1, keepdims=True)
        dz = probs * (dprobs - inner)
    else:
        dz = dprobs * probs * (1.0 - probs)
    n_layers = len(model.weights)
    d_weights, d_biases = [None] * n_layers, [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        a_prev = trace.inputs if i == 0 else trace.activations[i - 1]
        d_weights[i] = a_prev.T @ dz
        d_biases[i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ model.weights[i].T
            dz = da * (trace.pre_activations[i - 1] > 0.0)
    return ListGradientSet(d_weights, d_biases)


def list_sgd_step(model, grads, cfg, state):
    for i, g in enumerate(grads.weights):
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite weight gradient in layer {i}")
    for i, g in enumerate(grads.biases):
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite bias gradient in layer {i}")
    for theta, g, v in zip(model.weights, grads.weights, state.vel_weights):
        v *= cfg.momentum
        v += g + cfg.weight_decay * theta
        theta -= cfg.learning_rate * v
    for theta, g, v in zip(model.biases, grads.biases, state.vel_biases):
        v *= cfg.momentum
        v += g + cfg.weight_decay * theta
        theta -= cfg.learning_rate * v
    return model, state


def masked_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def three_term_grads(model, rng, backward):
    """A step's supervised, unlabelled and defending gradients, summed."""
    total, losses = None, []
    for rows in (16, 112, 48):
        trace = nn.forward(model, rng.normal(scale=2.0, size=(rows, 2)))
        if model.head == nn.SOFTMAX:
            (loss,), dprobs, _ = nn.loss_ce(
                trace.probs, rng.integers(0, model.layer_dims[-1], rows)
            )
        else:
            targets = (rng.random(trace.probs.shape) < 0.5).astype(float)
            mask = (rng.random(trace.probs.shape) < 0.3).astype(float)
            (loss,), dprobs, _ = nn.loss_bce(trace.probs, targets, mask=mask)
        losses.append(loss)
        part = backward(model, trace, dprobs)
        if total is None:
            total = part
        elif isinstance(total, ListGradientSet):
            total.add_(part)
        else:
            total.flat += part.flat
    return total, losses


def same_arrays(got, want):
    return len(got) == len(want) and all(
        g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want)
    )


class TestFlatParameters:
    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    def test_training_matches_list_based_copy_bitwise(self, head):
        for case, dims in enumerate([[2, 10, 10, 3], [2, 6, 4], [2, 3, 7, 5, 2]]):
            model = make_model(dims, head=head, seed=20 + case)
            ref = ListModel(model)
            cfg = nn.SgdConfig(0.05, momentum=0.82, weight_decay=0.015)
            state, ref_state = nn.SgdState.zeros_like(model), ListSgdState(ref)
            for step in range(25):
                grads, losses = three_term_grads(model, np.random.default_rng(step), nn.backward)
                ref_grads, ref_losses = three_term_grads(
                    ref, np.random.default_rng(step), list_backward
                )
                assert losses == ref_losses
                assert same_arrays(grads.weights + grads.biases, ref_grads.weights + ref_grads.biases)
                nn.sgd_step(model, grads, cfg, state)
                list_sgd_step(ref, ref_grads, cfg, ref_state)
                assert same_arrays(model.weights + model.biases, ref.weights + ref.biases)
                assert np.array_equal(
                    state.velocity, np.concatenate(
                        [v.ravel() for v in ref_state.vel_weights + ref_state.vel_biases]
                    )
                )

    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    def test_three_term_sum_matches_list_based_copy(self, head):
        model = make_model([2, 10, 10, 4], head=head, seed=30)
        grads, _ = three_term_grads(model, np.random.default_rng(31), nn.backward)
        ref_grads, _ = three_term_grads(ListModel(model), np.random.default_rng(31), list_backward)
        assert same_arrays(grads.weights + grads.biases, ref_grads.weights + ref_grads.biases)
        assert np.array_equal(
            grads.flat, np.concatenate([g.ravel() for g in ref_grads.weights + ref_grads.biases])
        )

    def test_gradient_set_from_lists_packs_in_model_order(self):
        model = make_model([2, 5, 4, 3], seed=32)
        rng = np.random.default_rng(32)
        weights = [rng.normal(size=w.shape) for w in model.weights]
        biases = [rng.normal(size=b.shape) for b in model.biases]
        grads = nn.GradientSet(weights, biases)
        assert same_arrays(grads.weights + grads.biases, weights + biases)
        assert np.array_equal(grads.flat, np.concatenate([a.ravel() for a in weights + biases]))
        assert grads.flat.size == model.params.size
        for view in grads.weights + grads.biases:
            assert np.shares_memory(view, grads.flat)
        assert not any(np.shares_memory(a, grads.flat) for a in weights + biases)

    def test_sigmoid_matches_masked_version(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, 711.0, -711.0, 800.0,
                            -800.0, 1e-300, -1e-300, 36.0, -36.0, 745.2, -745.2])
        rng = np.random.default_rng(33)
        cases = [special, special.reshape(-1, 1), special[::-1].reshape(1, -1)]
        cases += [rng.normal(scale=s, size=(n, 3)) for s, n in [(1, 1), (5, 7), (40, 33), (900, 64)]]
        for x in cases:
            got, want = nn.sigmoid(x), masked_sigmoid(x)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_bce_target_check(self):
        probs = np.full((1, 3), 0.25)
        for bad in (0.5, np.nan, np.inf, -1.0):
            with pytest.raises(ConfigError, match="0 or 1"):
                nn.loss_bce(probs, np.array([[0.0, bad, 1.0]]))
        # -0.0 == 0.0, so it is a valid target and gives the loss of 0.0
        assert nn.loss_bce(probs, np.array([[-0.0, 1.0, 0.0]]))[0] == nn.loss_bce(
            probs, np.array([[0.0, 1.0, 0.0]])
        )[0]

    def test_views_share_the_parameter_vector(self, tmp_path):
        model = make_model([2, 6, 5, 3], seed=34)
        path = tmp_path / "m.json"
        model.save(path)
        others = [model.copy(), nn.MlpModel.from_json_dict(model.to_json_dict()),
                  nn.MlpModel.load(path)]
        stepped = model.copy()
        ones = nn.GradientSet([np.ones_like(w) for w in stepped.weights],
                              [np.ones_like(b) for b in stepped.biases])
        nn.sgd_step(stepped, ones, nn.SgdConfig(0.1, momentum=0.5), nn.SgdState.zeros_like(stepped))
        for m in [model, stepped] + others:
            assert m.params.flags.c_contiguous and m.params.dtype == np.float64
            for view in m.weights + m.biases:
                assert np.shares_memory(view, m.params)
        for m in others:
            assert np.array_equal(m.params, model.params)
            assert not np.shares_memory(m.params, model.params)
        assert np.array_equal(stepped.params, model.params - 0.1)
        layout = np.concatenate([a.ravel() for a in model.weights + model.biases])
        assert np.array_equal(model.params, layout)

    def test_constructor_copies_its_arrays(self):
        weights = [np.ones((2, 3)), np.ones((3, 2))]
        biases = [np.zeros(3), np.zeros(2)]
        model = nn.MlpModel([2, 3, 2], weights, biases)
        for given, held in zip(weights + biases, model.weights + model.biases):
            assert not np.shares_memory(given, held)
        weights[0][0, 0] = 7.0
        biases[1][0] = 7.0
        assert model.weights[0][0, 0] == 1.0 and model.biases[1][0] == 0.0
        model.weights[1][:] = 5.0  # an in-place change shows in params
        assert np.count_nonzero(model.params == 5.0) == 6

    @pytest.mark.parametrize("where, message", [
        ([("w", 1), ("b", 0)], "weight gradient in layer 1"),
        ([("w", 2), ("w", 0)], "weight gradient in layer 0"),
        ([("b", 2), ("b", 1)], "bias gradient in layer 1"),
        ([("b", 0)], "bias gradient in layer 0"),
    ])
    def test_non_finite_message_names_first_bad_array(self, where, message):
        model = make_model([2, 4, 4, 3], seed=35)
        grads = nn.GradientSet.zeros_like(model)
        for kind, layer in where:
            (grads.weights if kind == "w" else grads.biases)[layer].flat[-1] = np.inf
        before = model.params.copy()
        with pytest.raises(NumericError, match=f"^non-finite {message}$"):
            nn.sgd_step(model, grads, nn.SgdConfig(0.1), nn.SgdState.zeros_like(model))
        assert np.array_equal(model.params, before)


# Verbatim copies of forward, the loss functions, backward and
# train_supervised as they were before the step scored its terms in one
# loss pass and the training path dropped its per-call copies (module
# prefixes aside; backward builds its gradient views up front, as it did).
# The lean versions must give the same bits. tests/test_adapt.py builds its
# copy of the three-call step on these losses.
def verbatim_softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def verbatim_forward(model, inputs):
    inputs = np.asarray(inputs, dtype=np.float64)
    pre_acts, acts = [], []
    a = inputs
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre_acts.append(z)
        if i < n_layers - 1:
            a = np.maximum(z, 0.0)
            acts.append(a)
    logits = pre_acts[-1]
    if model.head == nn.SOFTMAX:
        probs = verbatim_softmax_rows(logits)
    else:
        probs = nn.sigmoid(logits)
    return nn.ForwardTrace(
        inputs=inputs,
        pre_activations=pre_acts,
        activations=acts,
        probs=probs,
        layer_dims=list(model.layer_dims),
    )


def verbatim_loss_ce(probs, targets, mask=None):
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    n = probs.shape[0]
    if mask is None:
        n_eff = n
    else:
        mask = np.asarray(mask, dtype=np.float64)
        n_eff = int(round(mask.sum()))
    dprobs = np.zeros_like(probs)
    if n_eff == 0:
        return 0.0, dprobs, 0
    rows = np.arange(n)
    p_t = probs[rows, targets]
    clamped = np.maximum(p_t, nn.PROB_EPS)
    losses = -np.log(clamped)
    grad_vals = np.where(p_t > nn.PROB_EPS, -1.0 / clamped, 0.0)
    if mask is not None:
        losses = losses * mask
        grad_vals = grad_vals * mask
    loss = float(losses.sum() / n_eff)
    dprobs[rows, targets] = grad_vals / n_eff
    return loss, dprobs, n_eff


def verbatim_loss_bce(probs, targets):
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n_cells = probs.size
    p = np.maximum(probs, nn.PROB_EPS)
    q = np.maximum(1.0 - probs, nn.PROB_EPS)
    loss = float(-(targets * np.log(p) + (1.0 - targets) * np.log(q)).sum() / n_cells)
    dprobs = np.where(
        targets == 1.0,
        np.where(probs > nn.PROB_EPS, -1.0 / p, 0.0),
        np.where(1.0 - probs > nn.PROB_EPS, 1.0 / q, 0.0),
    )
    return loss, dprobs / n_cells


def verbatim_loss_bce_masked(probs, targets, mask):
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    n_eff = int(round(mask.sum()))
    if n_eff == 0:
        return 0.0, np.zeros_like(probs), 0
    p = np.maximum(probs, nn.PROB_EPS)
    q = np.maximum(1.0 - probs, nn.PROB_EPS)
    cell = -(targets * np.log(p) + (1.0 - targets) * np.log(q))
    loss = float((cell * mask).sum() / n_eff)
    dprobs = np.where(
        targets == 1.0,
        np.where(probs > nn.PROB_EPS, -1.0 / p, 0.0),
        np.where(1.0 - probs > nn.PROB_EPS, 1.0 / q, 0.0),
    )
    return loss, dprobs * mask / n_eff, n_eff


def verbatim_backward(model, trace, dprobs):
    dprobs = np.asarray(dprobs, dtype=np.float64)
    probs = trace.probs
    if model.head == nn.SOFTMAX:
        inner = (dprobs * probs).sum(axis=1, keepdims=True)
        dz = probs * (dprobs - inner)
    else:
        dz = dprobs * probs * (1.0 - probs)
    grads = nn.GradientSet._wrap(np.empty(model.params.size), model._layout)
    weights, biases = grads.weights, grads.biases
    for i in range(len(model.weights) - 1, -1, -1):
        a_prev = trace.inputs if i == 0 else trace.activations[i - 1]
        np.dot(a_prev.T, dz, out=weights[i])
        np.add.reduce(dz, axis=0, out=biases[i])
        if i > 0:
            da = dz @ model.weights[i].T
            dz = da * (trace.pre_activations[i - 1] > 0.0)
    return grads


def parent_sgd_step(model, grads, cfg, state):
    # nn.sgd_step as it was before its finiteness check took one dot
    # product (module prefixes aside)
    if not np.isfinite(grads.flat).all():
        for kind, arrays in (("weight", grads.weights), ("bias", grads.biases)):
            for i, g in enumerate(arrays):
                if not np.isfinite(g).all():
                    raise NumericError(f"non-finite {kind} gradient in layer {i}")
    theta, v, tmp = model.params, state.velocity, state.scratch
    v *= cfg.momentum
    v += np.add(np.multiply(theta, cfg.weight_decay, out=tmp), grads.flat, out=tmp)
    theta -= np.multiply(v, cfg.learning_rate, out=tmp)
    return model, state


def parent_fold_columns(ufunc, x, out=None):
    # nn._fold_columns as it was before the passes ran on per-row-count plans
    if not 2 <= x.shape[1] < 8:
        return ufunc.reduce(x, axis=1, keepdims=True)
    acc = ufunc(x[:, 0], x[:, 1], out=out)
    for j in range(2, x.shape[1]):
        ufunc(acc, x[:, j], out=acc)
    return acc[:, None]


def parent_backward(model, trace, dprobs):
    # nn.backward, unbuffered, as it was before the passes ran on
    # per-row-count plans and the bias sums took einsum (module prefixes
    # aside; without buffers every out= array was None)
    if trace.layer_dims != model.layer_dims:
        raise ShapeError(
            f"trace built for dims {trace.layer_dims}, model has {model.layer_dims}"
        )
    dprobs = np.asarray(dprobs, dtype=np.float64)
    probs = trace.probs
    if dprobs.shape != probs.shape:
        raise ShapeError(f"upstream gradient shape {dprobs.shape}, expected {probs.shape}")
    dz = np.multiply(dprobs, probs, out=None)
    if model.head == nn.SOFTMAX:
        np.subtract(dprobs, parent_fold_columns(np.add, dz, None), out=dz)
        dz *= probs
    else:
        dz *= 1.0 - probs
    flat = np.empty(model.params.size)
    weight_grads = nn._weight_views(flat, model._layout)
    bias_grads = nn._bias_views(flat, model._layout)
    for i in range(len(weight_grads) - 1, -1, -1):
        a_prev = trace.inputs if i == 0 else trace.activations[i - 1]
        np.dot(a_prev.T, dz, out=weight_grads[i])
        np.add.reduce(dz, axis=0, out=bias_grads[i])
        if i > 0:
            dz = np.dot(dz, model.weights[i].T, out=None)
            dz *= np.greater(trace.pre_activations[i - 1], 0.0, out=None)
    return nn.GradientSet._wrap(flat, model._layout)


def verbatim_train_supervised(model, points, labels, sgd_cfg, epochs, batch_size, rng):
    labels = np.asarray(labels)
    state = nn.SgdState.zeros_like(model)
    for _ in range(epochs):
        order = rng.permutation(len(points))
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            trace = verbatim_forward(model, points[idx])
            if model.head == nn.SOFTMAX:
                _, dprobs, _ = verbatim_loss_ce(trace.probs, labels[idx])
            else:
                _, dprobs = verbatim_loss_bce(trace.probs, labels[idx].astype(float))
            nn.sgd_step(model, verbatim_backward(model, trace, dprobs), sgd_cfg, state)
    return model


# Verbatim copies of softmax_rows, sigmoid, loss_bce and backward as they
# were before the row reductions became column folds, the 2-D products went
# through np.dot and loss_bce took one log per cell (module prefixes aside).
def reduced_softmax_rows(logits):
    # the reductions .max() and .sum() make, called directly: the same bits
    e = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def two_sided_sigmoid(x):
    # exp(-x) where x >= 0 and exp(x) elsewhere: it never overflows, and a
    # NaN keeps its sign, as in the one-side-at-a-time form.
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def two_log_loss_bce(probs, targets, terms=None, mask=None):
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    rows, bounds = nn._term_rows(terms, len(probs))
    scored = probs if rows is None else probs[rows]
    if targets.shape != scored.shape:
        raise ShapeError(f"targets shape {targets.shape}, expected {scored.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != scored.shape:
            raise ShapeError(f"mask shape {mask.shape}, expected {scored.shape}")
    positive = targets == 1.0
    if not (positive | (targets == 0.0)).all():
        raise ConfigError("binary targets must be 0 or 1")
    p = np.maximum(scored, nn.PROB_EPS)
    complement = 1.0 - scored
    q = np.maximum(complement, nn.PROB_EPS)
    cells = -(targets * np.log(p) + (1.0 - targets) * np.log(q))
    grads = np.where(
        positive,
        np.where(scored > nn.PROB_EPS, -1.0 / p, 0.0),
        np.where(complement > nn.PROB_EPS, 1.0 / q, 0.0),
    )
    if mask is not None:
        cells *= mask
        grads *= mask
    losses, counts = verbatim_term_means(cells, grads, bounds, mask, probs.shape[1])
    if rows is None:
        return losses, grads, counts
    dprobs = np.zeros(probs.shape)
    dprobs[rows] = grads
    return losses, dprobs, counts


def verbatim_term_means(values, grads, bounds, mask, cells_per_row):
    # nn._term_means as it was before the loss core took precomputed counts
    losses, counts = [], []
    for start, stop in bounds:
        if mask is None:
            count = (stop - start) * cells_per_row
        else:
            count = int(round(np.add.reduce(mask[start:stop], axis=None)))
        if count:
            losses.append(float(np.add.reduce(values[start:stop], axis=None)) / count)
            grads[start:stop] /= count
        else:
            losses.append(0.0)
            grads[start:stop] = 0.0
        counts.append(count)
    return losses, counts


def reduced_backward(model, trace, dprobs):
    if trace.layer_dims != model.layer_dims:
        raise ShapeError(
            f"trace built for dims {trace.layer_dims}, model has {model.layer_dims}"
        )
    dprobs = np.asarray(dprobs, dtype=np.float64)
    probs = trace.probs
    if dprobs.shape != probs.shape:
        raise ShapeError(f"upstream gradient shape {dprobs.shape}, expected {probs.shape}")
    if model.head == nn.SOFTMAX:
        # dz_j = p_j * (g_j - sum_k g_k p_k), rowwise
        dz = dprobs - np.add.reduce(dprobs * probs, axis=1, keepdims=True)
        dz *= probs
    else:
        dz = dprobs * probs
        dz *= 1.0 - probs
    flat = np.empty(model.params.size)
    weight_spans, bias_spans = model._layout
    for i in range(len(weight_spans) - 1, -1, -1):
        a_prev = trace.inputs if i == 0 else trace.activations[i - 1]
        start, stop, shape = weight_spans[i]
        np.dot(a_prev.T, dz, out=flat[start:stop].reshape(shape))
        start, stop = bias_spans[i]
        np.add.reduce(dz, axis=0, out=flat[start:stop])
        if i > 0:
            dz = dz @ model.weights[i].T
            dz *= trace.pre_activations[i - 1] > 0.0
    return nn.GradientSet._wrap(flat, model._layout)


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


LEAN_MODELS = [
    (head, [2, *hidden, outputs])
    for head, outputs in [(nn.SOFTMAX, 2), (nn.SOFTMAX, 3), (nn.SOFTMAX, 9), (nn.SIGMOID, 4)]
    for hidden in ([10, 10], [16, 10])
]


def lean_cases(seed):
    """(rng, model, inputs) for every lean-path model at 1 and 240 rows."""
    rng = np.random.default_rng(seed)
    for case, (head, dims) in enumerate(LEAN_MODELS):
        model = make_model(dims, head=head, seed=seed + case)
        for rows in (1, 240):
            yield rng, model, rng.normal(scale=3.0, size=(rows, 2))


def floored_probs(rng, probs):
    """probs with some entries at 0 and 1, past both probability floors."""
    probs = probs.copy()
    probs[rng.random(probs.shape) < 0.05] = 0.0
    probs[rng.random(probs.shape) < 0.05] = 1.0
    return probs


def split_terms(rng, n_rows, gaps):
    """Three ordered disjoint (start, stop) terms over n_rows, some maybe
    empty; with gaps, rows between and around them belong to none."""
    cuts = np.sort(rng.integers(0, n_rows + 1, size=6 if gaps else 2)).tolist()
    if gaps:
        return [(cuts[0], cuts[1]), (cuts[2], cuts[3]), (cuts[4], cuts[5])]
    return [(0, cuts[0]), (cuts[0], cuts[1]), (cuts[1], n_rows)]


class TestLeanPath:
    """forward, backward, the loss functions and train_supervised against
    their verbatim copies, bit for bit."""

    def test_forward_matches_verbatim(self):
        for _, model, x in lean_cases(40):
            got, want = nn.forward(model, x), verbatim_forward(model, x)
            assert same_arrays([got.inputs, got.probs], [want.inputs, want.probs])
            assert same_arrays(got.pre_activations, want.pre_activations)
            assert same_arrays(got.activations, want.activations)
            assert got.layer_dims == want.layer_dims and got.layer_dims is model.layer_dims

    def test_softmax_rows_leaves_logits_alone(self):
        logits = np.random.default_rng(41).normal(scale=20.0, size=(50, 9))
        before = logits.copy()
        assert np.array_equal(nn.softmax_rows(logits), verbatim_softmax_rows(logits))
        assert np.array_equal(logits, before)

    def test_backward_matches_verbatim(self):
        for rng, model, x in lean_cases(42):
            trace = nn.forward(model, x)
            for dprobs in (rng.normal(size=trace.probs.shape), np.zeros(trace.probs.shape)):
                kept = dprobs.copy()
                got = nn.backward(model, trace, dprobs)
                assert np.array_equal(got.flat, verbatim_backward(model, trace, dprobs).flat)
                assert np.array_equal(dprobs, kept)

    def test_loss_ce_single_term_matches_verbatim(self):
        for rng, model, x in lean_cases(43):
            if model.head != nn.SOFTMAX:
                continue
            probs = floored_probs(rng, nn.forward(model, x).probs)
            targets = rng.integers(0, probs.shape[1], size=len(probs))
            for mask in (None, (rng.random(len(probs)) < 0.5).astype(float), np.zeros(len(probs))):
                (loss,), dprobs, (count,) = nn.loss_ce(probs, targets, mask=mask)
                want = verbatim_loss_ce(probs, targets, mask)
                assert (loss, count) == (want[0], want[2])
                assert np.array_equal(dprobs, want[1])

    @pytest.mark.parametrize("gaps", [False, True])
    def test_loss_ce_terms_match_verbatim_calls(self, gaps):
        for rng, model, x in lean_cases(44):
            if model.head != nn.SOFTMAX:
                continue
            probs = floored_probs(rng, nn.forward(model, x).probs)
            terms = split_terms(rng, len(probs), gaps)
            n_scored = sum(stop - start for start, stop in terms)
            targets = rng.integers(0, probs.shape[1], size=n_scored)
            for mask in (None, (rng.random(n_scored) < 0.5).astype(float)):
                losses, dprobs, counts = nn.loss_ce(probs, targets, terms, mask)
                want = np.zeros(probs.shape)
                at = 0
                for i, (start, stop) in enumerate(terms):
                    part = slice(at, at + stop - start)
                    loss, d, count = verbatim_loss_ce(
                        probs[start:stop], targets[part], None if mask is None else mask[part]
                    )
                    assert (losses[i], counts[i]) == (loss, count)
                    want[start:stop] = d
                    at = part.stop
                assert np.array_equal(dprobs, want)

    @pytest.mark.parametrize("gaps", [False, True])
    def test_loss_bce_matches_verbatim(self, gaps):
        for rng, model, x in lean_cases(45):
            if model.head != nn.SIGMOID:
                continue
            probs = floored_probs(rng, nn.forward(model, x).probs)
            terms = split_terms(rng, len(probs), gaps)
            n_scored = sum(stop - start for start, stop in terms)
            targets = (rng.random((n_scored, probs.shape[1])) < 0.5).astype(float)
            mask = (rng.random(targets.shape) < 0.3).astype(float)
            if not gaps:  # one term over every row, unmasked
                (loss,), dprobs, (count,) = nn.loss_bce(probs, targets)
                want = verbatim_loss_bce(probs, targets)
                assert (loss, count) == (want[0], probs.size)
                assert np.array_equal(dprobs, want[1])
            for term_mask in (mask, np.ones(targets.shape)):
                losses, dprobs, counts = nn.loss_bce(probs, targets, terms, term_mask)
                want = np.zeros(probs.shape)
                at = 0
                for i, (start, stop) in enumerate(terms):
                    part = slice(at, at + stop - start)
                    loss, d, count = verbatim_loss_bce_masked(
                        probs[start:stop], targets[part], term_mask[part]
                    )
                    assert (losses[i], counts[i]) == (loss, count)
                    want[start:stop] = d
                    at = part.stop
                assert np.array_equal(dprobs, want)

    def test_softmax_rows_matches_reduced_copy(self):
        rng = np.random.default_rng(51)
        for cols in (2, 3, 9, *range(1, 13)):
            for rows in (1, 64, 240):
                logits = rng.normal(scale=10.0 ** rng.uniform(-2, 3), size=(rows, cols))
                logits[rng.random(logits.shape) < 0.1] = 0.0
                logits[rng.random(logits.shape) < 0.1] = -0.0
                logits[rng.random(rows) < 0.2] = 1.5  # rows of ties
                assert same_bits(nn.softmax_rows(logits), reduced_softmax_rows(logits))

    def test_sigmoid_matches_two_sided_copy(self):
        rng = np.random.default_rng(52)
        special = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 710.0, -710.0, 800.0, -800.0,
                   1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan]
        x = np.concatenate([special, rng.normal(scale=20.0, size=500)]).reshape(-1, 4)
        got = nn.sigmoid(x)
        assert same_bits(got, two_sided_sigmoid(x))
        nan = np.isnan(x)
        assert np.isnan(got[nan]).all() and np.array_equal(np.signbit(got[nan]), np.signbit(x[nan]))

    @pytest.mark.parametrize("gaps", [False, True])
    def test_loss_bce_matches_two_log_copy(self, gaps):
        rng = np.random.default_rng(53)
        eps = nn.PROB_EPS
        values = np.array([0.0, eps / 2, eps, 0.5, 1.0 - eps, 1.0])
        for with_nan in (False, True):
            probs = rng.choice(values, size=(240, 4))
            probs[rng.random(probs.shape) < 0.3] = rng.random()
            if with_nan:
                probs[rng.random(probs.shape) < 0.05] = np.nan
            terms = split_terms(rng, len(probs), gaps)
            n_scored = sum(stop - start for start, stop in terms)
            targets = (rng.random((n_scored, 4)) < 0.5).astype(float)
            mask = (rng.random(targets.shape) < 0.5).astype(float)
            calls = [(targets, terms, mask), (targets, terms, None)]
            if not gaps:  # one term over every row
                calls.append(((rng.random(probs.shape) < 0.5).astype(float), None, None))
            for args in calls:
                got, want = nn.loss_bce(probs, *args), two_log_loss_bce(probs, *args)
                assert [float.hex(x) for x in got[0]] == [float.hex(x) for x in want[0]]
                assert same_bits(got[1], want[1]) and got[2] == want[2]

    def test_backward_matches_reduced_copy(self):
        for rng, model, x in lean_cases(54):
            trace = nn.forward(model, x)
            probs = trace.probs
            terms = split_terms(rng, len(probs), gaps=True)
            n_scored = sum(stop - start for start, stop in terms)
            upstream = [rng.normal(size=probs.shape), np.zeros(probs.shape)]
            if model.head == nn.SOFTMAX:
                targets = rng.integers(0, probs.shape[1], size=n_scored)
                for mask in (None, (rng.random(n_scored) < 0.5).astype(float)):
                    upstream.append(nn.loss_ce(probs, targets, terms, mask)[1])
            else:
                targets = (rng.random((n_scored, probs.shape[1])) < 0.5).astype(float)
                upstream.append(nn.loss_bce(probs, targets, terms)[1])
            for dprobs in upstream:
                got = nn.backward(model, trace, dprobs)
                assert same_bits(got.flat, reduced_backward(model, trace, dprobs).flat)

    @pytest.mark.parametrize("head, dims", [(nn.SOFTMAX, [2, 1, 10, 3]), (nn.SIGMOID, [2, 10, 1])])
    def test_backward_with_a_one_wide_layer_matches_parent_copy(self, head, dims):
        # a 1-wide layer's bias sum stays np.add.reduce, which sums pairwise
        # there, where einsum sums in order (TestBitEqualityFacts)
        rng = np.random.default_rng(55)
        for case in range(12):
            model = make_model(dims, head=head, seed=55 + case)
            model.biases[0][:] = 1.0  # keeps a 1-wide ReLU layer open
            buffers = nn.StepBuffers(model)
            for rows in (1, 7, 9, 16, 64, 128, 176, 240, 300):
                x = rng.normal(scale=3.0, size=(rows, 2))
                dprobs = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(rows, dims[-1]))
                want = parent_backward(model, nn.forward(model, x), dprobs).flat
                got = nn.backward(model, nn.forward(model, x, buffers), dprobs, buffers).flat
                assert same_bits(got, want), (case, rows)
                assert same_bits(nn.backward(model, nn.forward(model, x), dprobs).flat, want)

    def test_loss_ce_rejects_out_of_range_targets(self):
        probs = np.full((6, 3), 1.0 / 3.0)
        for bad in (-1, 3, 7, np.iinfo(np.int64).min, np.iinfo(np.int64).max):
            targets = np.array([0, 1, 2, 0, bad, 1])
            with pytest.raises(ShapeError, match="class index out of range"):
                nn.loss_ce(probs, targets)
            with pytest.raises(ShapeError, match="class index out of range"):
                nn.loss_ce(probs, targets[3:], [(1, 2), (3, 5)])
        assert nn.loss_ce(probs, np.array([0, 1, 2, 2, 1, 0]))[2] == [6]
        assert nn.loss_ce(probs[:0], np.array([], dtype=np.int64))[2] == [0]

    def test_terms_must_be_ordered_and_disjoint(self):
        probs = np.full((6, 2), 0.5)
        for terms in ([(0, 3), (2, 6)], [(3, 6), (0, 3)], [(0, 7)], [(4, 2)]):
            with pytest.raises(ShapeError, match="ordered disjoint"):
                nn.loss_ce(probs, np.zeros(6, dtype=int), terms)

    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    @pytest.mark.parametrize("hidden", [[10, 10], [16, 10]])
    def test_train_supervised_matches_verbatim(self, head, hidden):
        from sdalab import adapt

        rng = np.random.default_rng(46)
        outputs = 3 if head == nn.SOFTMAX else 4
        points = rng.normal(scale=2.0, size=(240, 2))
        if head == nn.SOFTMAX:
            labels = rng.integers(0, outputs, size=240)
        else:
            labels = rng.integers(0, 2, size=(240, outputs))
        model = make_model([2, *hidden, outputs], head=head, seed=47)
        cfg = nn.SgdConfig(0.05, momentum=0.9)
        for batch_size in (1, 64, 240):
            got = adapt.train_supervised(
                model.copy(), points, labels, cfg, 2, batch_size, np.random.default_rng(48)
            )
            want = verbatim_train_supervised(
                model.copy(), points, labels, cfg, 2, batch_size, np.random.default_rng(48)
            )
            assert np.array_equal(got.params, want.params)

    def test_gradient_views_are_built_on_first_read(self):
        model = make_model([2, 10, 10, 3], seed=49)
        trace = nn.forward(model, np.random.default_rng(49).normal(size=(5, 2)))
        grads = nn.backward(model, trace, np.ones(trace.probs.shape))
        assert "weights" not in vars(grads) and "biases" not in vars(grads)
        weights, biases = grads.weights, grads.biases
        assert grads.weights is weights and grads.biases is biases
        weights[1][2, 3] = 7.0
        biases[2][1] = -7.0
        start = model._layout[0][1][0] + 2 * 10 + 3
        assert grads.flat[start] == 7.0 and grads.flat[model._layout[1][2][0] + 1] == -7.0
        grads.flat[:] = 0.5
        assert all(np.all(view == 0.5) for view in weights + biases)

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_sgd_names_the_layer_of_a_non_finite_backward_gradient(self, layer):
        model = make_model([2, 10, 10, 3], seed=50)
        trace = nn.forward(model, np.random.default_rng(50).normal(size=(5, 2)))
        grads = nn.backward(model, trace, np.ones(trace.probs.shape))
        start, stop = model._layout[1][layer]
        grads.flat[stop - 1] = np.nan
        with pytest.raises(NumericError, match=f"^non-finite bias gradient in layer {layer}$"):
            nn.sgd_step(model, grads, nn.SgdConfig(0.1), nn.SgdState.zeros_like(model))
        start, stop, _ = model._layout[0][layer]
        grads = nn.backward(model, trace, np.ones(trace.probs.shape))
        grads.flat[start] = np.inf
        with pytest.raises(NumericError, match=f"^non-finite weight gradient in layer {layer}$"):
            nn.sgd_step(model, grads, nn.SgdConfig(0.1), nn.SgdState.zeros_like(model))


class TestStepBuffers:
    """One StepBuffers per training loop gives the bits of unbuffered passes,
    and what it returns holds as the nn module docstring says."""

    @staticmethod
    def batches(head, outputs, counts, steps=25, seed=60):
        rng = np.random.default_rng(seed)
        for step in range(steps):
            n = counts[step % len(counts)]
            if head == nn.SOFTMAX:
                labels = rng.integers(0, outputs, size=n)
            else:
                labels = (rng.random((n, outputs)) < 0.5).astype(float)
            yield rng.normal(scale=2.0, size=(n, 2)), labels

    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    @pytest.mark.parametrize("counts", [[1], [16], [64], [128], [176], [240], [16, 176, 1, 240, 64, 128]])
    def test_buffered_steps_match_unbuffered(self, head, counts):
        # the buffered loop takes the gradient alone, as pretraining does;
        # the unbuffered one takes it from the loss function
        outputs = 3 if head == nn.SOFTMAX else 4
        loss = nn.loss_ce if head == nn.SOFTMAX else nn.loss_bce
        cfg = nn.SgdConfig(0.05, momentum=0.9, weight_decay=1e-3)
        runs = []
        for buffered in (False, True):
            model = make_model([2, 10, 10, outputs], head=head, seed=61)
            buffers = nn.StepBuffers(model) if buffered else None
            state = nn.SgdState.zeros_like(model)
            record = []
            for x, labels in self.batches(head, outputs, counts):
                trace = nn.forward(model, x, buffers)
                losses, dprobs, _ = loss(trace.probs, labels)
                if buffered:
                    width = outputs if head == nn.SOFTMAX else None
                    targets = nn._checked_targets(np.asarray(labels), width)
                    dprobs = nn._term_gradient(model, trace.probs, targets, buffers)
                grads = nn.backward(model, trace, dprobs, buffers)
                record += [[float(v).hex() for v in losses], trace.probs.tobytes(),
                           dprobs.tobytes(), grads.flat.tobytes()]
                nn.sgd_step(model, grads, cfg, state)
                record += [model.params.tobytes(), state.velocity.tobytes()]
            runs.append(record)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    def test_models_of_one_shape_may_share_buffers(self, head):
        # two models step in turn on one StepBuffers, each updated in place
        # between its calls; each gets its unbuffered bits, so the buffers
        # hold no view of either model (such as a weight transpose)
        outputs = 3 if head == nn.SOFTMAX else 4
        loss = nn.loss_ce if head == nn.SOFTMAX else nn.loss_bce
        cfg = nn.SgdConfig(0.05, momentum=0.9, weight_decay=1e-3)
        runs = []
        for shared in (False, True):
            models = [make_model([2, 10, 10, outputs], head=head, seed=s) for s in (66, 67)]
            states = [nn.SgdState.zeros_like(m) for m in models]
            buffers = nn.StepBuffers(models[0]) if shared else None
            records = [[], []]
            for x, labels in self.batches(head, outputs, [16, 176, 64, 1], steps=12, seed=68):
                width = outputs if head == nn.SOFTMAX else None
                targets = nn._checked_targets(np.asarray(labels), width)
                for model, state, record in zip(models, states, records):
                    trace = nn.forward(model, x, buffers)
                    if shared:
                        dprobs = nn._term_gradient(model, trace.probs, targets, buffers)
                    else:
                        dprobs = loss(trace.probs, labels)[1]
                    grads = nn.backward(model, trace, dprobs, buffers)
                    record += [trace.probs.tobytes(), dprobs.tobytes(), grads.flat.tobytes()]
                    nn.sgd_step(model, grads, cfg, state)
                    record.append(model.params.tobytes())
            assert records[0] != records[1]
            runs.append(records)
        assert runs[0] == runs[1]

    @staticmethod
    def results(trace, grads):
        return [trace.inputs, *trace.pre_activations, *trace.activations, trace.probs, grads.flat]

    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    def test_unbuffered_results_share_no_memory(self, head):
        model = make_model([2, 10, 10, 3], head=head, seed=62)
        x = np.random.default_rng(62).normal(size=(16, 2))
        passes = []
        for _ in range(2):
            trace = nn.forward(model, x)
            passes.append(self.results(trace, nn.backward(model, trace, np.ones((16, 3)))))
        first, second = passes
        assert not any(np.shares_memory(a, b) for a in first[1:] for b in second[1:])

    @pytest.mark.parametrize("head", [nn.SOFTMAX, nn.SIGMOID])
    def test_buffered_results_hold_until_the_next_call(self, head):
        model = make_model([2, 10, 10, 3], head=head, seed=63)
        rng = np.random.default_rng(63)
        buffers = nn.StepBuffers(model)
        trace = nn.forward(model, rng.normal(size=(16, 2)), buffers)
        grads = nn.backward(model, trace, rng.normal(size=(16, 3)), buffers)
        kept = [a.copy() for a in self.results(trace, grads)]
        other = nn.forward(model, rng.normal(size=(8, 2)), buffers)  # another row count
        assert same_arrays(self.results(trace, grads)[1:-1], kept[1:-1])
        again = nn.forward(model, rng.normal(size=(16, 2)), buffers)
        again_grads = nn.backward(model, again, rng.normal(size=(16, 3)), buffers)
        assert again_grads is grads and not np.shares_memory(other.probs, again.probs)
        now = zip(self.results(trace, grads), self.results(again, again_grads), kept)
        for old, new, before in list(now)[1:]:
            assert np.shares_memory(old, new) and not np.array_equal(old, before)

    @pytest.mark.parametrize("head, bad, error, message", [
        (nn.SOFTMAX, -1, ShapeError, "class index out of range"),
        (nn.SOFTMAX, 3, ShapeError, "class index out of range"),
        (nn.SIGMOID, 0.5, ConfigError, "binary targets must be 0 or 1"),
    ])
    def test_train_supervised_checks_labels_before_any_step(self, head, bad, error, message):
        from sdalab import adapt

        rng = np.random.default_rng(64)
        points = rng.normal(size=(240, 2))
        last = np.random.default_rng(65).permutation(240)[-1]  # in the first epoch's last batch
        if head == nn.SOFTMAX:
            labels = rng.integers(0, 3, size=240)
            labels[last] = bad
        else:
            labels = rng.integers(0, 2, size=(240, 3)).astype(float)
            labels[last, 2] = bad
        model = make_model([2, 10, 10, 3], head=head, seed=64)
        before = model.params.copy()
        with pytest.raises(error, match=message):
            adapt.train_supervised(
                model, points, labels, nn.SgdConfig(0.05), 2, 16, np.random.default_rng(65)
            )
        assert model.params.tobytes() == before.tobytes()


def loss_core_case(rng, head, n_terms_rows, skip, outputs=3):
    """probs over the terms' rows with `skip` unscored rows (FixMatch's weak
    view) after the first term, some cells at or below the floor, and a 0/1
    mask that masks whole terms and single cells."""
    rows = sum(n_terms_rows) + skip
    probs = rng.random((rows, outputs))
    probs[rng.random(probs.shape) < 0.1] = rng.choice([0.0, 1e-13, nn.PROB_EPS])
    if head == nn.SOFTMAX:
        probs /= probs.sum(axis=1, keepdims=True) + 1.0
    terms, at = [], 0
    for i, n in enumerate(n_terms_rows):
        terms.append((at, at + n))
        at += n + (skip if i == 0 else 0)
    return probs, terms


class TestLossCore:
    """The rules call the loss core on arrays checked once per epoch; it must
    give the bits of the public, checked loss_ce and loss_bce."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("skip", [0, 5])
    def test_ce_core_matches_loss_ce(self, masked, skip):
        rng = np.random.default_rng(81 + skip)
        negative_zeros = 0
        for case in range(60):
            sizes = [int(n) for n in rng.integers(0, 9, size=3)]
            probs, terms = loss_core_case(rng, nn.SOFTMAX, sizes, skip)
            rows = np.concatenate([np.arange(a, b) for a, b in terms]).astype(np.int64)
            targets = rng.integers(0, 3, size=len(rows))
            mask = None
            if masked:
                mask = (rng.random(len(rows)) < 0.6).astype(float)
                if case % 3 == 0:
                    mask[: sizes[0]] = 0.0  # a term whose count is 0
            want = nn.loss_ce(probs, targets, terms, mask)
            bounds = list(zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)))
            counts = [n if mask is None else int(np.count_nonzero(mask[a:b]))
                      for n, (a, b) in zip(sizes, bounds)]
            got = nn._ce_terms(probs, rows, targets, bounds, counts, mask)
            assert counts == want[2]
            assert [v.hex() for v in got[0]] == [v.hex() for v in want[0]]
            assert got[1].tobytes() == want[1].tobytes()
            negative_zeros += int(np.count_nonzero(np.signbit(got[1]) & (got[1] == 0.0)))
        # a masked cell of a term with a count has gradient -1/p * 0 = -0.0
        assert (negative_zeros > 0) == masked

    @pytest.mark.parametrize("masked", [False, True])
    def test_bce_core_matches_loss_bce(self, masked):
        rng = np.random.default_rng(83)
        for case in range(60):
            sizes = [int(n) for n in rng.integers(0, 9, size=3)]
            probs, terms = loss_core_case(rng, nn.SIGMOID, sizes, 0, outputs=4)
            targets = (rng.random(probs.shape) < 0.5).astype(float)
            mask = None
            if masked:
                mask = (rng.random(probs.shape) < 0.4).astype(float)
                if case % 3 == 0:
                    mask[sizes[0] : sizes[0] + sizes[1]] = 0.0  # a term whose count is 0
            want = nn.loss_bce(probs, targets, terms, mask)
            bounds = terms
            counts = [4 * (b - a) if mask is None else int(np.count_nonzero(mask[a:b]))
                      for a, b in bounds]
            got = nn._bce_terms(probs, targets == 1.0, bounds, counts, mask)
            assert counts == want[2]
            assert [v.hex() for v in got[0]] == [v.hex() for v in want[0]]
            assert got[1].tobytes() == want[1].tobytes()

