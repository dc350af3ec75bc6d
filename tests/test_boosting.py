"""Tests for the plaintext GBDT trainer (XGBoost stand-in)."""

import numpy as np
import pytest

from repro.gbdt.boosting import GBDTTrainer
from repro.gbdt.binning import bin_dataset
from repro.gbdt.params import GBDTParams


class TestTrainingDynamics:
    def test_train_loss_monotonically_decreases(self, small_classification):
        features, labels = small_classification
        trainer = GBDTTrainer(GBDTParams(n_trees=8, n_layers=4))
        trainer.fit(features, labels)
        losses = [r.train_loss for r in trainer.history]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_learns_better_than_chance(self, small_classification):
        features, labels = small_classification
        trainer = GBDTTrainer(GBDTParams(n_trees=10, n_layers=5))
        model = trainer.fit(features[:300], labels[:300], features[300:], labels[300:])
        assert trainer.history[-1].valid_auc > 0.7

    def test_validation_tracked(self, small_classification):
        features, labels = small_classification
        trainer = GBDTTrainer(GBDTParams(n_trees=3, n_layers=3))
        trainer.fit(features[:300], labels[:300], features[300:], labels[300:])
        assert all(r.valid_loss is not None for r in trainer.history)

    def test_deterministic(self, small_classification):
        features, labels = small_classification
        params = GBDTParams(n_trees=3, n_layers=4)
        m1 = GBDTTrainer(params).fit(features, labels)
        m2 = GBDTTrainer(params).fit(features, labels)
        binned = bin_dataset(features, params.n_bins)
        assert np.array_equal(
            m1.predict_margin(binned.codes), m2.predict_margin(binned.codes)
        )


class TestModelStructure:
    def test_depth_respected(self, small_classification):
        features, labels = small_classification
        params = GBDTParams(n_trees=2, n_layers=3)
        model = GBDTTrainer(params).fit(features, labels)
        for tree in model.trees:
            assert tree.max_depth() <= params.max_depth

    def test_n_trees(self, small_classification):
        features, labels = small_classification
        model = GBDTTrainer(GBDTParams(n_trees=5, n_layers=3)).fit(features, labels)
        assert len(model.trees) == 5

    def test_regression_objective(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(300, 5))
        targets = features[:, 0] * 0.5 + rng.normal(scale=0.05, size=300)
        params = GBDTParams(n_trees=15, n_layers=4, objective="squared")
        trainer = GBDTTrainer(params)
        trainer.fit(features, targets)
        assert trainer.history[-1].train_loss < trainer.history[0].train_loss * 0.7


class TestInputValidation:
    def test_label_length_mismatch(self, small_classification):
        features, labels = small_classification
        with pytest.raises(ValueError):
            GBDTTrainer(GBDTParams(n_trees=1)).fit(features, labels[:-5])


class TestEvaluate:
    def test_evaluate_reports_loss_and_auc(self, small_classification):
        features, labels = small_classification
        params = GBDTParams(n_trees=3, n_layers=4)
        trainer = GBDTTrainer(params)
        model = trainer.fit(features, labels)
        binned = bin_dataset(features, params.n_bins)
        scores = trainer.evaluate(model, binned, labels)
        assert 0 < scores["loss"] < 1
        assert 0.5 < scores["auc"] <= 1.0


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GBDTParams(n_trees=0)
        with pytest.raises(ValueError):
            GBDTParams(n_layers=1)
        with pytest.raises(ValueError):
            GBDTParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            GBDTParams(n_bins=1)
        with pytest.raises(ValueError):
            GBDTParams(reg_lambda=-1)
        with pytest.raises(ValueError):
            GBDTParams(objective="gini")

    def test_derived_properties(self):
        params = GBDTParams(n_layers=7)
        assert params.max_depth == 6

    def test_replace(self):
        params = GBDTParams()
        other = params.replace(n_trees=3)
        assert other.n_trees == 3
        assert params.n_trees == 20
