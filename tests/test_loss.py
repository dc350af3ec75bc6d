"""Tests for loss functions, gradients and their bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gbdt.loss import (
    GRID_BITS,
    LogisticLoss,
    SquaredLoss,
    get_loss,
    grid_gradients,
    sigmoid,
)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_symmetry(self):
        x = np.linspace(-10, 10, 41)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)

    def test_extreme_values_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(out))


class TestLogisticLoss:
    loss = LogisticLoss()

    def test_gradient_sign_encodes_label(self):
        # Positive gradients for y=0, negative for y=1 — the leakage the
        # protocol must encrypt away (§2.3).
        preds = np.zeros(4)
        grad, _ = self.loss.gradients(np.array([0.0, 0.0, 1.0, 1.0]), preds)
        assert np.all(grad[:2] > 0)
        assert np.all(grad[2:] < 0)

    @given(st.floats(-8, 8), st.integers(0, 1))
    @settings(max_examples=40)
    def test_gradient_matches_numeric_derivative(self, pred, label):
        y = np.array([float(label)])
        p = np.array([pred])
        grad, hess = self.loss.gradients(y, p)
        eps = 1e-5
        numeric = (self.loss.loss(y, p + eps) - self.loss.loss(y, p - eps)) / (2 * eps)
        assert grad[0] == pytest.approx(numeric, abs=1e-4)

    @given(st.floats(-30, 30))
    @settings(max_examples=40)
    def test_bounds_hold(self, pred):
        y = np.array([0.0, 1.0])
        p = np.array([pred, pred])
        grad, hess = self.loss.gradients(y, p)
        assert np.all(np.abs(grad) <= self.loss.gradient_bound)
        assert np.all(hess >= 0)
        assert np.all(hess <= self.loss.hessian_bound)

    def test_loss_decreases_toward_correct_label(self):
        y = np.ones(1)
        assert self.loss.loss(y, np.array([2.0])) < self.loss.loss(y, np.array([0.0]))

    def test_base_score_matches_prior(self):
        labels = np.array([1.0, 1.0, 1.0, 0.0])
        base = self.loss.base_score(labels)
        assert sigmoid(np.array([base]))[0] == pytest.approx(0.75)

    def test_transform_is_probability(self):
        out = self.loss.transform(np.array([-3.0, 0.0, 3.0]))
        assert np.all((out > 0) & (out < 1))


class TestSquaredLoss:
    loss = SquaredLoss()

    def test_gradient_is_residual(self):
        grad, hess = self.loss.gradients(np.array([1.0]), np.array([3.0]))
        assert grad[0] == pytest.approx(2.0)
        assert hess[0] == pytest.approx(1.0)

    def test_base_score_is_mean(self):
        assert self.loss.base_score(np.array([1.0, 2.0, 3.0])) == pytest.approx(2.0)

    def test_loss_value(self):
        value = self.loss.loss(np.array([0.0, 2.0]), np.array([1.0, 2.0]))
        assert value == pytest.approx(0.25)

    def test_transform_identity(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(self.loss.transform(x), x)

    def test_bounds_exposed(self):
        assert self.loss.hessian_bound == 1.0
        assert self.loss.gradient_bound > 0


class TestGridGradients:
    @given(st.floats(-24, 24), st.sampled_from(["logistic", "squared"]))
    @settings(max_examples=40)
    def test_nearest_grid_values_within_bounds(self, pred, objective):
        loss = get_loss(objective)
        labels, preds = np.array([0.0, 1.0]), np.array([pred, pred]) / 8
        raw = loss.gradients(labels, preds)
        step = 2.0**-GRID_BITS
        for values, exact in zip(grid_gradients(loss, labels, preds), raw):
            assert np.array_equal(values / step, np.round(values / step))
            assert np.all(np.abs(values - exact) <= step / 2)
        grad, hess = grid_gradients(loss, labels, preds)
        assert np.all(np.abs(grad) <= loss.gradient_bound)
        assert np.all((hess >= 0) & (hess <= loss.hessian_bound))


class TestGetLoss:
    def test_known_names(self):
        assert isinstance(get_loss("logistic"), LogisticLoss)
        assert isinstance(get_loss("squared"), SquaredLoss)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_loss("hinge")
