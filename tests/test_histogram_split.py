"""Tests for histogram construction and split finding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gbdt.binning import bin_dataset
from repro.gbdt.histogram import Histogram, build_histogram
from repro.gbdt.params import GBDTParams
from repro.gbdt.split import find_best_split, gain_matrix, leaf_weight


def _toy(n=80, d=4, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    dataset = bin_dataset(features, 8)
    grads = rng.normal(size=n)
    hess = rng.uniform(0.1, 0.3, size=n)
    return dataset, grads, hess


class TestBuildHistogram:
    def test_totals_match_inputs(self):
        dataset, grads, hess = _toy()
        rows = np.arange(dataset.n_instances)
        hist = build_histogram(dataset, rows, grads, hess)
        assert hist.total_grad == pytest.approx(grads.sum())
        assert hist.total_hess == pytest.approx(hess.sum())
        assert hist.total_count == dataset.n_instances

    def test_every_feature_row_sums_identically(self):
        dataset, grads, hess = _toy()
        rows = np.arange(dataset.n_instances)
        hist = build_histogram(dataset, rows, grads, hess)
        per_feature = hist.grad.sum(axis=1)
        assert np.allclose(per_feature, per_feature[0])

    def test_subset_rows(self):
        dataset, grads, hess = _toy()
        rows = np.array([1, 3, 5, 7])
        hist = build_histogram(dataset, rows, grads, hess)
        assert hist.total_grad == pytest.approx(grads[rows].sum())
        assert hist.total_count == 4

    def test_empty_rows(self):
        dataset, grads, hess = _toy()
        hist = build_histogram(dataset, np.array([], dtype=np.int64), grads, hess)
        assert hist.total_count == 0
        assert np.all(hist.grad == 0)

    def test_manual_cell_check(self):
        dataset, grads, hess = _toy(n=20, d=2, seed=3)
        rows = np.arange(20)
        hist = build_histogram(dataset, rows, grads, hess)
        j = 1
        for k in range(dataset.n_bins):
            mask = dataset.codes[:, j] == k
            assert hist.grad[j, k] == pytest.approx(grads[mask].sum())
            assert hist.count[j, k] == mask.sum()


class TestHistogramAlgebra:
    def test_subtraction_trick(self):
        dataset, grads, hess = _toy(n=100)
        rows = np.arange(100)
        left, right = rows[:40], rows[40:]
        parent = build_histogram(dataset, rows, grads, hess)
        left_hist = build_histogram(dataset, left, grads, hess)
        right_hist = build_histogram(dataset, right, grads, hess)
        derived = parent.subtract(left_hist)
        assert np.allclose(derived.grad, right_hist.grad)
        assert np.allclose(derived.hess, right_hist.hess)
        assert np.array_equal(derived.count, right_hist.count)

    def test_zeros_and_copy(self):
        z = Histogram.zeros(3, 4)
        assert z.total_count == 0
        c = z.copy()
        c.grad[0, 0] = 1.0
        assert z.grad[0, 0] == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Histogram(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2)))

    def test_subtract_shape_mismatch_rejected(self):
        # (3, 4) - (1, 4) would numpy-broadcast without the guard,
        # silently corrupting sibling statistics.
        big = Histogram.zeros(3, 4)
        small = Histogram.zeros(1, 4)
        with pytest.raises(ValueError, match="cannot subtract .*\\(3, 4\\).*\\(1, 4\\)"):
            big.subtract(small)


class TestSplitFinding:
    params = GBDTParams(n_bins=8, reg_lambda=1.0, min_child_weight=1e-6)

    def test_perfect_split_found(self):
        # Feature 0 separates labels perfectly at value 0.
        n = 200
        rng = np.random.default_rng(1)
        features = rng.normal(size=(n, 3))
        labels = (features[:, 0] > 0).astype(float)
        grads = 0.5 - labels  # logistic grads at margin 0
        hess = np.full(n, 0.25)
        dataset = bin_dataset(features, 8)
        hist = build_histogram(dataset, np.arange(n), grads, hess)
        best = find_best_split(hist, self.params)
        assert best.is_valid
        assert best.feature == 0
        threshold = dataset.threshold_for(best.feature, best.bin_index)
        assert abs(threshold) < 0.5

    def test_no_split_on_pure_node(self):
        dataset, _, hess = _toy(n=50)
        zero_grads = np.zeros(50)
        hist = build_histogram(dataset, np.arange(50), zero_grads, hess)
        best = find_best_split(hist, self.params)
        assert not best.is_valid

    def test_gain_definition(self):
        dataset, grads, hess = _toy(n=120, seed=9)
        hist = build_histogram(dataset, np.arange(120), grads, hess)
        best = find_best_split(hist, self.params)
        lam = self.params.reg_lambda
        expected = 0.5 * (
            best.left_grad**2 / (best.left_hess + lam)
            + best.right_grad**2 / (best.right_hess + lam)
            - hist.total_grad**2 / (hist.total_hess + lam)
        ) - self.params.gamma
        assert best.gain == pytest.approx(expected)

    def test_children_stats_sum_to_parent(self):
        dataset, grads, hess = _toy(n=120, seed=10)
        hist = build_histogram(dataset, np.arange(120), grads, hess)
        best = find_best_split(hist, self.params)
        assert best.left_grad + best.right_grad == pytest.approx(hist.total_grad)
        assert best.left_count + best.right_count == hist.total_count

    def test_min_node_instances(self):
        dataset, grads, hess = _toy(n=20)
        hist = build_histogram(dataset, np.arange(20), grads, hess)
        params = self.params.replace(min_node_instances=50)
        assert not find_best_split(hist, params).is_valid

    def test_min_child_weight_blocks_tiny_children(self):
        dataset, grads, hess = _toy(n=40)
        hist = build_histogram(dataset, np.arange(40), grads, hess)
        params = self.params.replace(min_child_weight=1e9)
        assert not find_best_split(hist, params).is_valid

    def test_gamma_penalty_can_block(self):
        dataset, grads, hess = _toy(n=60, seed=12)
        hist = build_histogram(dataset, np.arange(60), grads, hess)
        unpenalized = find_best_split(hist, self.params)
        params = self.params.replace(gamma=unpenalized.gain + 1.0)
        assert not find_best_split(hist, params).is_valid

    def test_check_counts_false_path(self):
        dataset, grads, hess = _toy(n=60, seed=13)
        hist = build_histogram(dataset, np.arange(60), grads, hess)
        blind = Histogram(hist.grad, hist.hess, np.zeros_like(hist.count))
        best = find_best_split(blind, self.params, check_counts=False, node_instances=60)
        reference = find_best_split(hist, self.params)
        assert best.feature == reference.feature
        assert best.bin_index == reference.bin_index

    def test_empty_histogram(self):
        assert not find_best_split(Histogram.zeros(0, 8), self.params).is_valid

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_best_split_maximizes_gain_matrix(self, seed):
        dataset, grads, hess = _toy(n=80, seed=seed)
        hist = build_histogram(dataset, np.arange(80), grads, hess)
        best = find_best_split(hist, self.params)
        gains, _ = gain_matrix(hist, self.params)
        if best.is_valid:
            assert best.gain == pytest.approx(float(np.max(gains)))
        else:
            finite = gains[np.isfinite(gains)]
            assert finite.size == 0 or float(np.max(finite)) <= 0.0


class TestLeafWeight:
    def test_formula(self):
        assert leaf_weight(4.0, 3.0, 1.0) == pytest.approx(-1.0)

    def test_regularization_shrinks(self):
        assert abs(leaf_weight(4.0, 3.0, 10.0)) < abs(leaf_weight(4.0, 3.0, 0.0))
