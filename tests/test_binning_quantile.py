"""Tests for quantile sketching and dataset binning."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.gbdt.binning import BinnedDataset, bin_column, bin_dataset
from repro.gbdt.quantile import propose_cut_points


class TestProposeCutPoints:
    def test_cut_count_bounded(self):
        values = np.random.default_rng(0).normal(size=1000)
        cuts = propose_cut_points(values, 20)
        assert len(cuts) <= 19
        assert np.all(np.diff(cuts) > 0)

    def test_constant_column_yields_no_cuts(self):
        assert propose_cut_points(np.full(100, 3.0), 10).size == 0

    def test_two_distinct_values(self):
        values = np.array([0.0] * 50 + [1.0] * 50)
        cuts = propose_cut_points(values, 10)
        assert len(cuts) >= 1
        codes = bin_column(values, cuts)
        assert len(np.unique(codes)) == 2

    def test_nan_ignored(self):
        values = np.array([1.0, np.nan, 2.0, 3.0, np.nan])
        cuts = propose_cut_points(values, 4)
        assert np.all(np.isfinite(cuts))

    def test_empty_and_all_nan(self):
        assert propose_cut_points(np.array([]), 4).size == 0
        assert propose_cut_points(np.array([np.nan]), 4).size == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            propose_cut_points(np.zeros((2, 2)), 4)
        with pytest.raises(ValueError):
            propose_cut_points(np.zeros(4), 1)

    @given(st.lists(st.floats(-100, 100), min_size=5, max_size=200))
    @settings(max_examples=30)
    def test_top_bin_never_empty(self, raw):
        values = np.asarray(raw)
        cuts = propose_cut_points(values, 8)
        codes = bin_column(values, cuts)
        assert np.any(codes == len(cuts))  # someone lands in the top bin


class TestBinColumn:
    def test_boundary_inclusive_left(self):
        cuts = np.array([1.0, 2.0])
        codes = bin_column(np.array([0.5, 1.0, 1.5, 2.0, 3.0]), cuts)
        # (−inf,1] -> 0, (1,2] -> 1, (2,∞) -> 2 with side="left":
        assert codes.tolist() == [0, 0, 1, 1, 2]

    def test_dtype(self):
        codes = bin_column(np.array([1.0]), np.array([0.5]))
        assert codes.dtype == np.uint16


class TestBinDataset:
    def test_dense_shape_and_range(self):
        features = np.random.default_rng(1).normal(size=(100, 5))
        binned = bin_dataset(features, 8)
        assert binned.codes.shape == (100, 5)
        assert binned.n_instances == 100
        assert binned.n_features == 5
        assert binned.codes.max() < 8

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(2)
        dense = rng.normal(size=(60, 4))
        dense[rng.random(dense.shape) < 0.7] = 0.0
        sparse = sp.csr_matrix(dense)
        b_dense = bin_dataset(dense, 6)
        b_sparse = bin_dataset(sparse, 6)
        assert np.array_equal(b_dense.codes, b_sparse.codes)

    def test_dense_training_never_imports_scipy(self):
        # Every trainer imports this module; only a process that holds
        # a scipy matrix (and so has imported scipy itself) pays for it.
        probe = (
            "import sys, numpy as np, repro\n"
            "from repro.core.config import VF2BoostConfig\n"
            "from repro.core.trainer import FederatedTrainer\n"
            "from repro.gbdt.binning import bin_dataset\n"
            "from repro.gbdt.params import GBDTParams\n"
            "rng = np.random.default_rng(0)\n"
            "full = bin_dataset(rng.normal(size=(40, 4)), 4)\n"
            "parties = [full.subset_features(np.arange(2, 4)),\n"
            "           full.subset_features(np.arange(0, 2))]\n"
            "config = VF2BoostConfig.vf2boost(\n"
            "    params=GBDTParams(n_trees=1, n_layers=2, n_bins=4),\n"
            "    crypto_mode='counted')\n"
            "FederatedTrainer(config).fit(parties, rng.random(40).round())\n"
            "print('scipy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            check=True,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": ":".join(sys.path)},
        )
        assert out.stdout.strip() == "False"

    def test_threshold_for(self):
        features = np.arange(100, dtype=np.float64).reshape(-1, 1)
        binned = bin_dataset(features, 4)
        cuts = binned.cut_points[0]
        assert binned.threshold_for(0, 0) == cuts[0]
        assert binned.threshold_for(0, len(cuts)) == float("inf")

    def test_subset_features(self):
        features = np.random.default_rng(3).normal(size=(30, 6))
        binned = bin_dataset(features, 5)
        subset = binned.subset_features(np.array([1, 3]))
        assert subset.n_features == 2
        assert np.array_equal(subset.codes[:, 0], binned.codes[:, 1])
        assert np.array_equal(subset.cut_points[0], binned.cut_points[1])

    def test_subset_instances(self):
        features = np.random.default_rng(4).normal(size=(30, 3))
        binned = bin_dataset(features, 5)
        shard = binned.subset_instances(np.array([0, 5, 7]))
        assert shard.n_instances == 3
        assert np.array_equal(shard.codes[1], binned.codes[5])

    def test_binning_preserves_order(self):
        # Larger raw values never get a smaller bin code.
        values = np.sort(np.random.default_rng(5).normal(size=200))
        binned = bin_dataset(values.reshape(-1, 1), 10)
        codes = binned.codes[:, 0].astype(int)
        assert np.all(np.diff(codes) >= 0)

    def test_mismatched_cut_points_rejected(self):
        with pytest.raises(ValueError):
            BinnedDataset(np.zeros((2, 2), dtype=np.uint16), [np.array([])], 4)

    def test_nnz_per_row(self):
        features = np.array([[0.0, 1.0], [0.0, 0.0], [2.0, 3.0]])
        binned = bin_dataset(features, 4)
        assert binned.nnz_per_row() == pytest.approx(3 / 3)

