"""Tests for model serialization, federated inference and CLI."""

import numpy as np
import pytest

from repro.core.config import VF2BoostConfig
from repro.core.inference import FederatedPredictor
from repro.core.serialization import (
    load_model,
    model_from_payloads,
    model_to_payloads,
    save_model,
)
from repro.core.trainer import FederatedTrainer
from repro.gbdt.binning import bin_dataset
from repro.gbdt.params import GBDTParams


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(17)
    n, d = 250, 8
    features = rng.normal(size=(n, d))
    labels = ((features @ rng.normal(size=d)) > 0).astype(float)
    params = GBDTParams(n_trees=3, n_layers=4, n_bins=8)
    full = bin_dataset(features, params.n_bins)
    parties = [
        full.subset_features(np.arange(4, 8)),
        full.subset_features(np.arange(0, 4)),
    ]
    config = VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
    result = FederatedTrainer(config).fit(parties, labels)
    codes = {0: parties[0].codes, 1: parties[1].codes}
    return result, codes, labels


class TestSerialization:
    def test_round_trip_predictions(self, trained, tmp_path):
        result, codes, __ = trained
        files = save_model(
            result.model, str(tmp_path / "shared.json"), str(tmp_path / "private")
        )
        assert len(files) >= 2
        sidecars = [f for f in files[1:]]
        loaded = load_model(files[0], sidecars)
        original = result.model.predict_margin(codes)
        restored = loaded.predict_margin(codes)
        assert np.allclose(original, restored)

    def test_shared_payload_leaks_no_split_details(self, trained):
        result, __, ___ = trained
        payloads = model_to_payloads(result.model)
        text = str(payloads["shared"])
        assert "feature" not in text
        assert "threshold" not in text

    def test_sidecars_partition_by_owner(self, trained):
        result, __, ___ = trained
        payloads = model_to_payloads(result.model)
        owners = result.model.split_counts_by_owner()
        assert set(payloads["private"]) == set(owners)
        for owner, sidecar in payloads["private"].items():
            assert len(sidecar["splits"]) == owners[owner]

    def test_partial_sidecar_loads(self, trained):
        result, __, ___ = trained
        payloads = model_to_payloads(result.model)
        # A party reconstructing with only its own sidecar still gets
        # the full skeleton (structure + weights).
        partial = model_from_payloads(
            payloads["shared"], {0: payloads["private"].get(0, {"splits": {}})}
        )
        assert len(partial.trees) == len(result.model.trees)

    def test_version_check(self, trained):
        result, __, ___ = trained
        payloads = model_to_payloads(result.model)
        payloads["shared"]["format_version"] = 999
        with pytest.raises(ValueError):
            model_from_payloads(payloads["shared"], payloads["private"])


class TestFederatedInference:
    def test_matches_local_prediction(self, trained):
        result, codes, __ = trained
        predictor = FederatedPredictor(result.model, codes, key_bits=256)
        assert np.allclose(
            predictor.predict_margin(), result.model.predict_margin(codes)
        )

    def test_routing_queries_counted(self, trained):
        result, codes, __ = trained
        predictor = FederatedPredictor(result.model, codes, key_bits=256)
        predictor.predict_margin()
        passive_splits = result.model.split_counts_by_owner().get(1, 0)
        assert predictor.routing_queries >= passive_splits * 0  # sanity
        if passive_splits:
            assert predictor.routing_queries > 0
            assert predictor.channel.total_bytes() > 0

    def test_no_queries_when_all_splits_active(self):
        from repro.core.trainer import FederatedModel
        from repro.gbdt.tree import DecisionTree

        tree = DecisionTree()
        tree.split_node(0, owner=0, feature=0, bin_index=1, threshold=0.5, gain=1.0)
        tree.set_leaf_weight(1, -1.0)
        tree.set_leaf_weight(2, 1.0)
        model = FederatedModel(trees=[tree], learning_rate=1.0, base_score=0.0)
        codes = {0: np.array([[0], [3]], dtype=np.uint16)}
        predictor = FederatedPredictor(model, codes, key_bits=256)
        out = predictor.predict_margin()
        assert out.tolist() == [-1.0, 1.0]
        assert predictor.routing_queries == 0


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig7" in out

    def test_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["tableX"]) == 2

    def test_run_table3(self, capsys):
        from repro.cli import main

        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "census" in out

    def test_run_table1(self, capsys):
        from repro.cli import main

        assert main(["table1"]) == 0
        assert "BlasterEnc" in capsys.readouterr().out
