"""Tests for losses, models, and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.losses import l2_penalty, softmax, softmax_cross_entropy
from repro.nn.metrics import accuracy
from repro.nn.models import ClassifierModel, build_model


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        p = softmax(rng.normal(size=(5, 7)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_shift_invariance(self, rng):
        z = rng.normal(size=(3, 4))
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0), atol=1e-12)

    def test_no_overflow(self):
        p = softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(p))


class TestCrossEntropy:
    def test_uniform_logits_log_c(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 10)), np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(10))

    def test_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -50.0)
        logits[np.arange(2), [0, 1]] = 50.0
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_gradient_matches_finite_difference(self, rng):
        logits = rng.normal(size=(3, 4))
        y = np.array([0, 2, 3])
        _, grad = softmax_cross_entropy(logits, y)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                lp = logits.copy(); lp[i, j] += eps
                lm = logits.copy(); lm[i, j] -= eps
                num = (
                    softmax_cross_entropy(lp, y)[0]
                    - softmax_cross_entropy(lm, y)[0]
                ) / (2 * eps)
                assert grad[i, j] == pytest.approx(num, abs=1e-5)

    def test_gradient_rows_sum_to_zero(self, rng):
        _, grad = softmax_cross_entropy(rng.normal(size=(4, 5)), np.arange(4))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0]))


def softmax_cross_entropy_two_exp(logits, labels):
    """The two-``exp`` ``softmax_cross_entropy`` this repo shipped before the
    single-``exp`` one, verbatim (validation dropped) — the bit-identity
    oracle."""
    n, c = logits.shape
    y = np.asarray(labels)
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(logsumexp - z[np.arange(n), y]))
    probs = softmax(logits)
    probs[np.arange(n), y] -= 1.0
    return loss, probs / n


class TestCrossEntropySingleExp:
    @pytest.mark.parametrize("scale", [1.0, 30.0, 800.0, 1e6])
    @pytest.mark.parametrize("shape", [(1, 2), (7, 10), (33, 4), (64, 10)])
    def test_bit_identical_to_two_exp_version(self, rng, shape, scale):
        logits = rng.normal(size=shape) * scale
        y = rng.integers(0, shape[1], size=shape[0])
        before = logits.copy()
        loss, grad = softmax_cross_entropy(logits, y)
        ref_loss, ref_grad = softmax_cross_entropy_two_exp(logits, y)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(logits, before)  # caller's logits untouched

    def test_value_only_is_the_same_loss(self, rng):
        logits = rng.normal(size=(9, 5)) * 20.0
        y = rng.integers(0, 5, size=9)
        loss, grad = softmax_cross_entropy(logits, y, want_grad=False)
        assert grad is None
        assert loss == softmax_cross_entropy(logits, y)[0]

    def test_value_only_still_validates_labels(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]), want_grad=False)
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([-1, 0]), want_grad=False)


class TestL2Penalty:
    def test_value_and_grad(self):
        w = np.array([1.0, 2.0])
        val, grad = l2_penalty(w, 0.1)
        assert val == pytest.approx(0.05 * 5.0)
        np.testing.assert_allclose(grad, 0.1 * w)

    def test_rejects_negative_reg(self):
        with pytest.raises(ValueError):
            l2_penalty(np.ones(2), -1.0)


class TestClassifierModel:
    @pytest.fixture
    def model(self, rng):
        return build_model("mlp", 6, 3, rng, hidden=(5,), l2_reg=1e-3)

    def test_loss_grad_consistent_with_fd(self, model, rng):
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 3, size=8)
        w = model.get_params()
        loss, grad = model.loss_and_grad(w, x, y)
        idx = rng.choice(w.size, size=8, replace=False)
        eps = 1e-6
        for i in idx:
            wp = w.copy(); wp[i] += eps
            wm = w.copy(); wm[i] -= eps
            num = (model.loss(wp, x, y) - model.loss(wm, x, y)) / (2 * eps)
            assert grad[i] == pytest.approx(num, abs=1e-5)

    def test_loss_is_functional_in_w(self, model, rng):
        """loss(w) must not depend on current internal parameters."""
        x = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        w = model.get_params()
        l1 = model.loss(w, x, y)
        model.set_params(rng.normal(size=w.size))
        l2 = model.loss(w, x, y)
        assert l1 == pytest.approx(l2)

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("logreg", {}),
            ("mlp", {"hidden": (12, 7)}),
            ("cnn", {"image_shape": (8, 8, 1), "cnn_scale": 0.5}),
        ],
    )
    @pytest.mark.parametrize("l2_reg", [0.0, 1e-3])
    def test_loss_is_loss_and_grad_value_bit_for_bit(self, rng, name, kwargs, l2_reg):
        m = build_model(name, 64, 5, rng, l2_reg=l2_reg, **kwargs)
        for n in (1, 17, 40):
            x = rng.normal(size=(n, 64))
            y = rng.integers(0, 5, size=n)
            w = m.get_params() + 0.3 * rng.normal(size=m.num_params)
            assert m.loss(w, x, y) == m.loss_and_grad(w, x, y)[0]

    def test_loss_accepts_a_list_w(self, model, rng):
        x = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        w = model.get_params()
        assert model.loss(list(w), x, y) == model.loss(w, x, y)

    def test_loss_rejects_out_of_range_labels(self, model, rng):
        with pytest.raises(ValueError):
            model.loss(model.get_params(), rng.normal(size=(2, 6)), np.array([0, 3]))

    def test_predict_shape_and_range(self, model, rng):
        x = rng.normal(size=(10, 6))
        p = model.predict(model.get_params(), x)
        assert p.shape == (10,)
        assert set(np.unique(p)).issubset(range(3))

    def test_predict_proba_rows_sum_one(self, model, rng):
        probs = model.predict_proba(model.get_params(), rng.normal(size=(5, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_accuracy_bounds(self, model, rng):
        x = rng.normal(size=(20, 6))
        y = rng.integers(0, 3, size=20)
        a = model.accuracy(model.get_params(), x, y)
        assert 0.0 <= a <= 1.0

    def test_sgd_reduces_loss(self, model, rng):
        x = rng.normal(size=(32, 6))
        y = rng.integers(0, 3, size=32)
        w = model.get_params()
        l0, g = model.loss_and_grad(w, x, y)
        for _ in range(30):
            l, g = model.loss_and_grad(w, x, y)
            w = w - 0.1 * g
        assert model.loss(w, x, y) < l0


class TestBuildModel:
    def test_logreg_param_count(self, rng):
        m = build_model("logreg", 10, 4, rng)
        assert m.num_params == 10 * 4 + 4

    def test_cnn_requires_image_shape(self, rng):
        with pytest.raises(ValueError):
            build_model("cnn", 64, 10, rng)

    def test_cnn_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            build_model("cnn", 64, 10, rng, image_shape=(5, 5, 1))

    def test_cnn_forward_works(self, rng):
        m = build_model("cnn", 14 * 14, 10, rng, image_shape=(14, 14, 1), cnn_scale=0.5)
        x = rng.normal(size=(3, 196))
        assert m.predict(m.get_params(), x).shape == (3,)

    def test_cnn_cifar_shape(self, rng):
        m = build_model("cnn", 16 * 16 * 3, 10, rng, image_shape=(16, 16, 3), cnn_scale=0.5)
        x = rng.normal(size=(2, 768))
        assert m.predict(m.get_params(), x).shape == (2,)

    def test_unknown_model(self, rng):
        with pytest.raises(ValueError):
            build_model("vit", 10, 2, rng)

    def test_mlp_hidden_sizes(self, rng):
        m = build_model("mlp", 8, 2, rng, hidden=(16, 4))
        assert m.num_params == (8 * 16 + 16) + (16 * 4 + 4) + (4 * 2 + 2)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_accuracy_validation(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))
