"""End-to-end integration tests across all subsystems.

These walk the full pipeline a deployment would: PSI alignment ->
vertical partitioning -> binning -> federated training (real Paillier
crypto) -> federated prediction -> protocol scheduling of the run's
own trace.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.bench.costmodel import CostModel
from repro.core.config import VF2BoostConfig
from repro.core.protocol import ProtocolScheduler
from repro.core.trainer import FederatedTrainer
from repro.data.psi import psi_align
from repro.fed.cluster import ClusterSpec
from repro.gbdt.binning import bin_dataset
from repro.gbdt.boosting import GBDTTrainer
from repro.gbdt.metrics import auc
from repro.gbdt.params import GBDTParams


@pytest.fixture(scope="module")
def pipeline_result():
    """Run the full real-crypto pipeline once; several tests inspect it."""
    rng = np.random.default_rng(99)
    n_a, n_b, overlap = 70, 80, 60
    # Two enterprises with partially overlapping user bases.
    shared = [f"user{k}" for k in range(overlap)]
    keys_a = shared + [f"a-only{k}" for k in range(n_a - overlap)]
    keys_b = shared + [f"b-only{k}" for k in range(n_b - overlap)]
    rng.shuffle(keys_a)
    rng.shuffle(keys_b)

    raw_a = rng.normal(size=(n_a, 4))
    raw_b = rng.normal(size=(n_b, 5))
    # Labels live with enterprise B and depend on both parties' columns.
    label_map = {}
    for key in shared:
        ia, ib = keys_a.index(key), keys_b.index(key)
        score = raw_a[ia, 0] + raw_b[ib, 0] - 0.5 * raw_b[ib, 1]
        label_map[key] = float(score + rng.normal(scale=0.2) > 0)

    rows_a, rows_b = psi_align(keys_a, keys_b, group_bits=64, seed=5)
    aligned_a = raw_a[rows_a]
    aligned_b = raw_b[rows_b]
    labels = np.array([label_map[keys_a[i]] for i in rows_a])

    params = GBDTParams(n_trees=3, n_layers=3, n_bins=6)
    dataset_a = bin_dataset(aligned_a, params.n_bins)
    dataset_b = bin_dataset(aligned_b, params.n_bins)
    config = VF2BoostConfig.vf2boost(
        params=params, crypto_mode="real", key_bits=256,
        exponent_jitter=3, blaster_batch_size=32,
    )
    result = FederatedTrainer(config).fit([dataset_b, dataset_a], labels)
    return {
        "result": result,
        "labels": labels,
        "dataset_a": dataset_a,
        "dataset_b": dataset_b,
        "aligned_a": aligned_a,
        "aligned_b": aligned_b,
        "params": params,
        "config": config,
    }


class TestFullPipeline:
    def test_psi_alignment_size(self, pipeline_result):
        assert pipeline_result["labels"].shape[0] == 60

    def test_training_converges(self, pipeline_result):
        history = pipeline_result["result"].history
        assert history[-1].train_loss < history[0].train_loss

    def test_federated_prediction_beats_chance(self, pipeline_result):
        result = pipeline_result["result"]
        codes = {
            0: pipeline_result["dataset_b"].codes,
            1: pipeline_result["dataset_a"].codes,
        }
        margins = result.model.predict_margin(codes)
        assert auc(pipeline_result["labels"], margins) > 0.7

    def test_matches_colocated_plaintext(self, pipeline_result):
        joined = np.hstack(
            [pipeline_result["aligned_b"], pipeline_result["aligned_a"]]
        )
        plaintext = GBDTTrainer(pipeline_result["params"])
        plaintext.fit(joined, pipeline_result["labels"])
        federated_losses = [r.train_loss for r in pipeline_result["result"].history]
        reference = [r.train_loss for r in plaintext.history]
        assert federated_losses == pytest.approx(reference, abs=1e-4)

    def test_trace_feeds_scheduler(self, pipeline_result):
        trace = pipeline_result["result"].trace
        scheduler = ProtocolScheduler(
            pipeline_result["config"],
            CostModel.paper(),
            ClusterSpec(n_workers=1),
        )
        schedule = scheduler.schedule(trace)
        assert schedule.makespan > 0
        assert len(schedule.per_tree) == len(trace.trees)

    def test_channel_carried_real_ciphers(self, pipeline_result):
        channel = pipeline_result["result"].channel
        assert channel.by_type["EncryptedGradHessBatch"].messages > 0
        assert channel.total_bytes() > 0

    def test_blaster_batching_visible_on_channel(self, pipeline_result):
        # 60 instances / batch 32 -> 2 batches per tree per passive party.
        channel = pipeline_result["result"].channel
        batches = channel.by_type["EncryptedGradHessBatch"].messages
        assert batches == 2 * pipeline_result["params"].n_trees


class TestSchedulerOnRealTraces:
    """Counted-mode traces driven through every named system."""

    def test_systems_price_counted_trace(self, small_classification):
        from repro.baselines.systems import get_system
        from repro.gbdt.binning import bin_dataset as _bin

        features, labels = small_classification
        params = GBDTParams(n_trees=2, n_layers=4, n_bins=8)
        full = _bin(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(5, 10)),
            full.subset_features(np.arange(0, 5)),
        ]
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
        result = FederatedTrainer(config).fit(parties, labels)
        times = {
            name: get_system(name).seconds_per_tree(result.trace, params)
            for name in ("vf2boost", "vf_gbdt", "vf_mock", "secureboost")
        }
        assert times["vf2boost"] < times["vf_gbdt"] < times["secureboost"]
        # At this tiny scale the fixed per-layer coordination cost
        # dominates, so VF-MOCK only needs to beat the crypto baseline.
        assert times["vf_mock"] < times["vf_gbdt"]


def test_every_all_entry_resolves():
    """Each name a module lists in ``__all__`` is defined there."""
    modules = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    missing, listed = [], 0
    for module_name in modules:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            listed += 1
            if not hasattr(module, name):
                missing.append(f"{module_name}.{name}")
    assert missing == []
    assert listed > 0
