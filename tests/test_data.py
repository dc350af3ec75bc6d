"""Tests for synthetic generation, the dataset registry and partitioning."""

import numpy as np
import pytest

from repro.data.datasets import DATASETS, dataset_info, load_dataset
from repro.data.partition import split_features
from repro.data.synthetic import SyntheticSpec, generate_classification


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(0, 5)
        with pytest.raises(ValueError):
            SyntheticSpec(10, 5, density=0.0)

    def test_informative_defaults(self):
        assert SyntheticSpec(10, 8).informative == 4
        assert SyntheticSpec(10, 8, n_informative=100).informative == 8


class TestGenerateClassification:
    def test_shapes_and_balance(self):
        spec = SyntheticSpec(500, 12, seed=1)
        features, labels = generate_classification(spec)
        assert features.shape == (500, 12)
        assert set(np.unique(labels)) <= {0.0, 1.0}
        assert 0.4 < labels.mean() < 0.6  # median threshold balances

    def test_density_respected(self):
        spec = SyntheticSpec(400, 20, density=0.3, seed=2)
        features, _ = generate_classification(spec)
        density = np.count_nonzero(features) / features.size
        assert density == pytest.approx(0.3, abs=0.05)

    def test_deterministic(self):
        spec = SyntheticSpec(100, 6, seed=5)
        f1, l1 = generate_classification(spec)
        f2, l2 = generate_classification(spec)
        assert np.array_equal(f1, f2)
        assert np.array_equal(l1, l2)

    def test_signal_is_learnable(self):
        from repro.gbdt.boosting import GBDTTrainer
        from repro.gbdt.params import GBDTParams

        spec = SyntheticSpec(1500, 10, seed=3, noise=0.3)
        features, labels = generate_classification(spec)
        trainer = GBDTTrainer(GBDTParams(n_trees=10, n_layers=5))
        trainer.fit(features[:1200], labels[:1200], features[1200:], labels[1200:])
        assert trainer.history[-1].valid_auc > 0.65


class TestDatasetRegistry:
    def test_table3_shapes(self):
        census = dataset_info("census")
        assert census.n_instances == 22_000
        assert (census.features_a, census.features_b) == (78, 70)
        industry = dataset_info("industry")
        assert industry.n_instances == 55_000_000

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset_info("mnist")

    def test_all_seven_present(self):
        assert set(DATASETS) == {
            "census", "a9a", "susy", "epsilon", "rcv1", "synthesis", "industry",
        }

    def test_scaled_shapes(self):
        n, fa, fb = dataset_info("rcv1").scaled(0.01)
        assert n == 6970
        assert fa == fb == 2300

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            dataset_info("susy").scaled(0.0)

    def test_nnz_per_instance(self):
        info = dataset_info("susy")
        assert info.nnz_per_instance == pytest.approx(18.0)


class TestLoadDataset:
    def test_split_sizes(self):
        data = load_dataset("census", scale=0.05, seed=1)
        total = data.n_train + data.valid_features.shape[0]
        assert data.valid_features.shape[0] == pytest.approx(total * 0.2, abs=2)
        assert data.train_features.shape[1] == data.features_a + data.features_b

    def test_party_slices_cover_columns(self):
        data = load_dataset("a9a", scale=0.05)
        slice_a, slice_b = data.party_feature_slices()
        assert slice_a.stop == slice_b.start
        assert slice_b.stop == data.n_features

    def test_deterministic(self):
        d1 = load_dataset("census", scale=0.05, seed=3)
        d2 = load_dataset("census", scale=0.05, seed=3)
        assert np.array_equal(d1.train_features, d2.train_features)


class TestSplitFeatures:
    def test_contiguous_blocks(self):
        partition = split_features(10, [4, 6])
        assert partition.columns_of(0).tolist() == [0, 1, 2, 3]
        assert partition.columns_of(1).tolist() == [4, 5, 6, 7, 8, 9]
        assert partition.n_parties == 2
        assert partition.n_features == 10

    def test_shuffled_covers_all(self):
        partition = split_features(12, [4, 4, 4], shuffle=True, seed=1)
        combined = np.concatenate([partition.columns_of(p) for p in range(3)])
        assert sorted(combined.tolist()) == list(range(12))

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            split_features(10, [4, 4])

    def test_duplicate_columns_rejected(self):
        from repro.data.partition import VerticalPartition

        with pytest.raises(ValueError):
            VerticalPartition((np.array([0, 1]), np.array([1, 2])))

