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


class TestLossCe:
    def test_one_hot_target_is_zero(self):
        probs = np.array([[0.0, 1.0, 0.0]])
        loss, dprobs, n = nn.loss_ce(probs, [1])
        assert loss == 0.0
        assert n == 1

    def test_uniform_two_class_is_ln2(self):
        loss, _, _ = nn.loss_ce(np.array([[0.5, 0.5]]), [0])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(7)
        probs = rng.uniform(0.05, 1.0, size=(4, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        targets = rng.integers(0, 3, size=4)
        expected = sum(-math.log(probs[i, targets[i]]) for i in range(4)) / 4.0
        loss, _, _ = nn.loss_ce(probs, targets)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_all_masked_batch_flags_empty(self):
        probs = np.full((3, 2), 0.5)
        loss, dprobs, n = nn.loss_ce(probs, [0, 1, 0], mask=[0, 0, 0])
        assert loss == 0.0 and n == 0
        assert np.all(dprobs == 0.0)

    def test_mask_restricts_mean_to_unmasked(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
        loss, _, n = nn.loss_ce(probs, [0, 1, 0], mask=[1, 1, 0])
        expected = (-math.log(0.5) - math.log(0.75)) / 2.0
        assert n == 2
        assert loss == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_loss_non_negative_and_zero_iff_mass_on_target(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4), size=5)
        targets = rng.integers(0, 4, size=5)
        loss, _, _ = nn.loss_ce(probs, targets)
        assert loss >= 0.0
        if loss == 0.0:
            assert np.all(probs[np.arange(5), targets] == 1.0)


class TestLossBce:
    def test_half_everywhere_is_ln2(self):
        probs = np.full((2, 3), 0.5)
        targets = np.array([[0, 1, 0], [1, 1, 0]])
        loss, _ = nn.loss_bce(probs, targets)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_is_tiny(self):
        targets = np.array([[1.0, 0.0]])
        loss, _ = nn.loss_bce(targets, targets)
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
        loss, _ = nn.loss_bce(probs, targets)
        assert loss == pytest.approx(acc / 6.0, abs=1e-12)

    def test_rejects_non_binary_targets(self):
        with pytest.raises(ConfigError):
            nn.loss_bce(np.full((1, 2), 0.5), np.array([[0.0, 0.3]]))


def ce_loss_of_model(model, x, targets):
    loss, _, _ = nn.loss_ce(nn.forward(model, x).probs, targets)
    return loss


def bce_loss_of_model(model, x, targets):
    loss, _ = nn.loss_bce(nn.forward(model, x).probs, targets)
    return loss


class TestBackward:
    def test_zero_upstream_gradient_gives_zero_grads(self):
        model = make_model([2, 5, 3], seed=1)
        trace = nn.forward(model, np.random.default_rng(1).normal(size=(4, 2)))
        grads = nn.backward(model, trace, np.zeros_like(trace.probs))
        for g in grads.weights + grads.biases:
            assert np.all(g == 0.0)

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
        _, dprobs = nn.loss_bce(trace.probs, targets)
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

    def test_confidence_softmax_max_prob(self):
        model = nn.MlpModel(
            [2, 2, 2],
            [np.zeros((2, 2)), np.zeros((2, 2))],
            [np.zeros(2), np.array([math.log(1.0), math.log(9.0)])],
        )
        conf = nn.confidence(model, np.zeros((1, 2)))
        assert conf[0] == pytest.approx(0.9, abs=1e-12)

    def test_confidence_uniform_is_one_over_c(self):
        model = nn.MlpModel(
            [2, 2, 4],
            [np.zeros((2, 2)), np.zeros((2, 4))],
            [np.zeros(2), np.zeros(4)],
        )
        conf = nn.confidence(model, np.zeros((2, 2)))
        np.testing.assert_allclose(conf, 0.25)

    def test_confidence_sigmoid_distance_from_threshold(self):
        model = make_model([2, 3, 1 + 1], head=nn.SIGMOID, seed=9)
        probs = nn.forward(model, np.ones((3, 2))).probs
        conf = nn.confidence(model, np.ones((3, 2)), thresholds=[0.5, 0.5])
        np.testing.assert_allclose(conf, np.abs(probs - 0.5), atol=1e-15)

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
