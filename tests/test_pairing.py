"""Tests for gradient-pair packing (crypto and protocol integration)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VF2BoostConfig
from repro.core.trainer import FederatedTrainer
from repro.crypto.ciphertext import PaillierContext
from repro.crypto.pairing import GradHessCodec
from repro.gbdt.binning import bin_dataset
from repro.gbdt.boosting import GBDTTrainer
from repro.gbdt.params import GBDTParams

CTX = PaillierContext.create(256, seed=51, jitter=1)


class TestCodec:
    codec = GradHessCodec(CTX, grad_bound=1.0, max_count=1000)

    def test_single_pair_round_trip(self):
        cipher = self.codec.encrypt_pair(0.75, 0.2)
        sums = self.codec.decode_sums(cipher)
        assert sums.grad_sum == pytest.approx(0.75, abs=1e-6)
        assert sums.hess_sum == pytest.approx(0.2, abs=1e-6)
        assert sums.count == 1

    def test_negative_gradient(self):
        sums = self.codec.decode_sums(self.codec.encrypt_pair(-0.9, 0.01))
        assert sums.grad_sum == pytest.approx(-0.9, abs=1e-6)

    @given(
        st.lists(
            st.tuples(st.floats(-1, 1), st.floats(0, 0.25)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_accumulated_sums(self, pairs):
        total = None
        for g, h in pairs:
            cipher = self.codec.encrypt_pair(g, h)
            total = cipher if total is None else self.codec.add(total, cipher)
        sums = self.codec.decode_sums(total)
        assert sums.count == len(pairs)
        assert sums.grad_sum == pytest.approx(sum(g for g, _ in pairs), abs=1e-4)
        assert sums.hess_sum == pytest.approx(sum(h for _, h in pairs), abs=1e-4)

    def test_accumulation_never_scales(self):
        ciphers = [self.codec.encrypt_pair(0.5, 0.1) for _ in range(10)]
        before = CTX.stats.snapshot()
        total = ciphers[0]
        for cipher in ciphers[1:]:
            total = self.codec.add(total, cipher)
        assert CTX.stats.diff(before).scalings == 0

    def test_one_encryption_per_pair(self):
        before = CTX.stats.snapshot()
        self.codec.encrypt_pair(0.1, 0.1)
        assert CTX.stats.diff(before).encryptions == 1

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            self.codec.encode_pair(1.5, 0.1)
        with pytest.raises(ValueError):
            self.codec.encode_pair(0.5, -0.1)

    def test_capacity_check(self):
        small = PaillierContext.create(64, seed=5)
        with pytest.raises(ValueError):
            GradHessCodec(small, grad_bound=1.0, max_count=10**9)

    def test_zero_cipher(self):
        sums = self.codec.decode_sums(self.codec.zero())
        assert sums.count == 0
        assert sums.grad_sum == 0.0
        assert sums.hess_sum == 0.0


class TestTrainerIntegration:
    def _setup(self):
        rng = np.random.default_rng(3)
        n, d = 120, 8
        features = rng.normal(size=(n, d))
        labels = ((features @ rng.normal(size=d)) > 0).astype(float)
        params = GBDTParams(n_trees=2, n_layers=3, n_bins=6)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(4, 8)),
            full.subset_features(np.arange(0, 4)),
        ]
        return full, parties, labels, params

    def test_pair_packed_training_is_lossless(self):
        full, parties, labels, params = self._setup()
        plaintext = GBDTTrainer(params)
        plaintext.fit_binned(full, labels)
        config = VF2BoostConfig(
            params=params, crypto_mode="real", key_bits=256,
            pair_packing=True, histogram_packing=False, exponent_jitter=1,
        )
        result = FederatedTrainer(config).fit(parties, labels)
        assert [r.train_loss for r in result.history] == pytest.approx(
            [r.train_loss for r in plaintext.history], abs=1e-4
        )

    def test_pair_packed_enc_reaches_every_counter(self):
        # encrypt_pair goes through the context's counted entry point, so
        # the registry mirror and the profiler see what OpStats sees.
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.profiler import HotPathProfiler

        __, parties, labels, params = self._setup()
        config = VF2BoostConfig(
            params=params.replace(n_trees=1, n_layers=2), crypto_mode="real",
            key_bits=256, pair_packing=True, histogram_packing=False,
            exponent_jitter=1,
        )
        registry = MetricsRegistry()
        result = FederatedTrainer(
            config, registry=registry, profiler=HotPathProfiler()
        ).fit(parties, labels)
        encryptions = sum(s.encryptions for s in result.crypto_stats.values())
        assert encryptions == len(labels)  # one cipher per instance
        assert registry.get("crypto.enc") == encryptions
        assert result.profile["ops"]["enc"]["count"] == encryptions

    def test_pair_packing_halves_gradient_stream(self):
        __, parties, labels, params = self._setup()
        base_config = VF2BoostConfig(
            params=params, crypto_mode="real", key_bits=256,
            pair_packing=False, histogram_packing=False, exponent_jitter=1,
        )
        pair_config = base_config.replace(pair_packing=True)
        base_bytes = (
            FederatedTrainer(base_config).fit(parties, labels).channel.total_bytes()
        )
        pair_bytes = (
            FederatedTrainer(pair_config).fit(parties, labels).channel.total_bytes()
        )
        assert pair_bytes < 0.6 * base_bytes

    def test_counted_mode_accounts_pairs(self):
        __, parties, labels, params = self._setup()
        config = VF2BoostConfig(
            params=params, crypto_mode="counted", pair_packing=True,
            histogram_packing=False,
        )
        result = FederatedTrainer(config).fit(parties, labels)
        base = FederatedTrainer(
            config.replace(pair_packing=False)
        ).fit(parties, labels)
        assert result.channel.total_bytes() < base.channel.total_bytes()

    def test_mutual_exclusion_with_histogram_packing(self):
        with pytest.raises(ValueError):
            VF2BoostConfig(
                crypto_mode="real", pair_packing=True, histogram_packing=True
            )


class TestSchedulerIntegration:
    def test_pair_packing_near_halves_makespan(self):
        from repro.bench.costmodel import CostModel
        from repro.core.profile import analytic_trace
        from repro.core.protocol import ProtocolScheduler
        from repro.fed.cluster import PAPER_CLUSTER

        trace = analytic_trace(1_000_000, 5000, [5000], 0.01, 20, 5)
        params = GBDTParams(n_layers=5, n_bins=20)
        base = ProtocolScheduler(
            VF2BoostConfig(params=params, histogram_packing=False),
            CostModel.paper(), PAPER_CLUSTER,
        ).schedule(trace)
        pair = ProtocolScheduler(
            VF2BoostConfig(
                params=params, histogram_packing=False, pair_packing=True
            ),
            CostModel.paper(), PAPER_CLUSTER,
        ).schedule(trace)
        assert 1.6 < base.makespan / pair.makespan < 2.4
        assert pair.bytes_per_tree < 0.6 * base.bytes_per_tree
