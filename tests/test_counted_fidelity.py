"""Counted-mode fidelity: the accounting must match the real run.

The paper-scale benchmarks rest on counted mode reporting *exactly*
the ciphers and bytes a real run would ship. These tests train the
same workload in both modes and compare the channel ledgers: a counted
payload is sized as the message it stands for, header included, so
every byte must agree.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import VF2BoostConfig
from repro.core.trainer import FederatedTrainer
from repro.fed.messages import (
    CountedCipherPayload,
    EncryptedGradHessBatch,
    EncryptedHistogramMessage,
    PackedHistogramMessage,
)
from repro.gbdt.binning import bin_dataset
from repro.gbdt.params import GBDTParams

SWEEP = json.loads(
    (Path(__file__).parent / "golden" / "party_sweep.json").read_text()
)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(23)
    n, d = 140, 8
    features = rng.normal(size=(n, d))
    labels = ((features @ rng.normal(size=d)) > 0).astype(float)
    params = GBDTParams(n_trees=2, n_layers=3, n_bins=6)
    full = bin_dataset(features, params.n_bins)
    parties = [
        full.subset_features(np.arange(4, 8)),
        full.subset_features(np.arange(0, 4)),
    ]
    return parties, labels, params


def _run(parties, labels, params, mode, **flags):
    config = VF2BoostConfig(
        params=params,
        crypto_mode=mode,
        key_bits=256,
        exponent_jitter=1,
        blaster_encryption=False,
        reordered_accumulation=True,
        optimistic_split=False,
        histogram_packing=False,
        **flags,
    )
    return FederatedTrainer(config).fit(parties, labels)


def _stand_ins(result, stands_for) -> list[CountedCipherPayload]:
    return [
        m
        for m in result.channel.log
        if isinstance(m, CountedCipherPayload) and m.stands_for is stands_for
    ]


def _bytes_per_direction(result) -> dict:
    return {key: stats.bytes for key, stats in result.channel.stats.items()}


class TestLedgerAgreement:
    def test_gradient_stream_bytes_match(self, workload):
        parties, labels, params = workload
        real = _run(parties, labels, params, "real")
        counted = _run(parties, labels, params, "counted")
        real_gh = real.channel.by_type["EncryptedGradHessBatch"].bytes
        counted_gh = sum(
            m.payload_bytes(256) for m in _stand_ins(counted, EncryptedGradHessBatch)
        )
        assert real_gh == counted_gh

    def test_histogram_bytes_match(self, workload):
        parties, labels, params = workload
        real = _run(parties, labels, params, "real")
        counted = _run(parties, labels, params, "counted")
        real_hist = real.channel.by_type["EncryptedHistogramMessage"].bytes
        counted_hist = sum(
            m.payload_bytes(256)
            for m in _stand_ins(counted, EncryptedHistogramMessage)
        )
        assert real_hist == counted_hist
        assert _bytes_per_direction(real) == _bytes_per_direction(counted)

    def test_models_identical(self, workload):
        parties, labels, params = workload
        real = _run(parties, labels, params, "real")
        counted = _run(parties, labels, params, "counted")
        for t_real, t_counted in zip(real.model.trees, counted.model.trees):
            assert set(t_real.nodes) == set(t_counted.nodes)
            for node_id, node in t_real.nodes.items():
                other = t_counted.nodes[node_id]
                assert node.is_leaf == other.is_leaf
                if node.is_leaf:
                    assert node.weight == other.weight
                else:
                    assert (node.owner, node.feature, node.bin_index) == (
                        other.owner, other.feature, other.bin_index,
                    )

    def test_encryption_count_matches_real_stats(self, workload):
        parties, labels, params = workload
        real = _run(parties, labels, params, "real")
        # 2 statistics per instance per tree (g and h).
        n = parties[0].n_instances
        expected = 2 * n * params.n_trees
        total_ciphers = sum(
            len(m.grads) + len(m.hesses)
            for m in real.channel.log
            if type(m).__name__ == "EncryptedGradHessBatch"
        )
        assert total_ciphers == expected


class TestPackedLedgerAgreement:
    """The default (packed) path: counted ships what real ships."""

    @staticmethod
    def _run(parties, labels, params, mode):
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode=mode, key_bits=256)
        return FederatedTrainer(config).fit(parties, labels)

    def test_packed_histogram_and_gradient_ciphers_match(self, workload):
        parties, labels, params = workload
        real = self._run(parties, labels, params, "real")
        counted = self._run(parties, labels, params, "counted")
        # Same messages, same ciphers in them, same headers: each
        # direction carries the same bytes in both modes.
        assert _bytes_per_direction(real) == _bytes_per_direction(counted)
        for message_type in (PackedHistogramMessage, EncryptedGradHessBatch):
            stats = real.channel.by_type[message_type.__name__]
            payloads = _stand_ins(counted, message_type)
            assert len(payloads) == stats.messages
            assert sum(m.payload_bytes(256) for m in payloads) == stats.bytes
        # 140 rows need 25 + 22 bits a slot; a 256-bit key (253 usable)
        # holds five 47-bit slots, so a node's 4 features x 5 shipped
        # bins (the sixth is B's own total) travel as 4 packs.
        cipher_bytes = 256 // 4
        built = sum(
            layer.built_nodes for tree in real.trace.trees for layer in tree.layers
        )
        packed = real.channel.by_type["PackedHistogramMessage"]
        header = PackedHistogramMessage.header_bytes
        assert packed.bytes - header * packed.messages == built * 4 * cipher_bytes

    def test_counted_ledger_ships_packs_per_node(self, ledger_workload):
        # ceil(D(s - 1) / t) per built node on the golden and the packed
        # benchmark shapes; test_pairing holds real and scheduler to the
        # same number.
        parties, labels, config = ledger_workload
        counted = FederatedTrainer(config.replace(crypto_mode="counted")).fit(
            parties, labels
        )
        layout = config.gradient_layout(len(labels))
        d_a, bins = parties[1].n_features, parties[1].n_bins
        per_node = -(-d_a * (bins - 1) // layout.capacity)
        assert layout.packs_per_node(d_a, bins) == per_node
        payloads = _stand_ins(counted, PackedHistogramMessage)
        built = [layer.built_nodes for layer in counted.trace.trees[0].layers]
        assert [m.n_ciphers for m in payloads] == [n * per_node for n in built]
        assert sum(m.payload_bytes(config.key_bits) for m in payloads) == (
            sum(built) * per_node * config.key_bits // 4
            + PackedHistogramMessage.header_bytes * len(payloads)
        )


@pytest.mark.parametrize(
    "variant",
    sorted(key[: -len("/counted")] for key in SWEEP if key.endswith("/counted")),
)
def test_golden_counted_ledger_equals_real_per_direction(variant):
    # Every recorded golden pair: counted and real ship the same bytes
    # in each direction (and the same messages).
    counted = SWEEP[f"{variant}/counted"]["directions"]
    real = SWEEP[f"{variant}/real"]["directions"]
    assert counted == real
