"""Tests for the federated trainer: losslessness, privacy, traces."""

import numpy as np
import pytest

import repro.gbdt.boosting as boosting
from repro.core.config import VF2BoostConfig
from repro.core.party import ActiveParty
from repro.core.trainer import FederatedTrainer, TrainingInterrupted
from repro.crypto.ciphertext import OpStats
from repro.fed.channel import _carries_floats
from repro.fed.faults import FaultPlan
from repro.fed.messages import (
    CountedCipherPayload,
    EncryptedGradHessBatch,
    EncryptedHistogramMessage,
    InstancePlacement,
    PackedHistogramMessage,
    SplitAnswer,
    SplitDecision,
)
from repro.gbdt.binning import bin_dataset
from repro.gbdt.boosting import GBDTTrainer
from repro.gbdt.params import GBDTParams
from repro.gbdt.split import gain_matrix
from repro.obs.forensics import diff_reports
from repro.obs.incident import IncidentBundle
from repro.obs.report import RunReport


class TestLosslessness:
    """The protocol must match co-located plaintext training exactly."""

    def test_counted_mode_matches_plaintext(
        self, small_classification, small_params, party_datasets, counted_config
    ):
        features, labels = small_classification
        plaintext = GBDTTrainer(small_params)
        plaintext.fit(features, labels)
        result = FederatedTrainer(counted_config).fit(*party_datasets)
        federated_losses = [r.train_loss for r in result.history]
        plaintext_losses = [r.train_loss for r in plaintext.history]
        assert federated_losses == pytest.approx(plaintext_losses, abs=1e-12)

    def test_real_crypto_matches_plaintext(
        self, small_classification, small_params, real_config
    ):
        features, labels = small_classification
        features, labels = features[:120], labels[:120]
        params = small_params.replace(n_trees=2, n_layers=3, n_bins=6)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(5, 10)),
            full.subset_features(np.arange(0, 5)),
        ]
        plaintext = GBDTTrainer(params)
        plaintext.fit_binned(full, labels)
        config = real_config.replace(params=params)
        result = FederatedTrainer(config).fit(parties, labels)
        federated = [r.train_loss for r in result.history]
        reference = [r.train_loss for r in plaintext.history]
        assert federated == pytest.approx(reference, abs=1e-4)

    def test_counted_equals_real_models(self, small_classification, small_params):
        features, labels = small_classification
        features, labels = features[:100], labels[:100]
        params = small_params.replace(n_trees=2, n_layers=3, n_bins=6)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(5, 10)),
            full.subset_features(np.arange(0, 5)),
        ]
        counted = FederatedTrainer(
            VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
        ).fit(parties, labels)
        real = FederatedTrainer(
            VF2BoostConfig.vf2boost(
                params=params, crypto_mode="real", key_bits=256, exponent_jitter=2
            )
        ).fit(parties, labels)
        for t_counted, t_real in zip(counted.model.trees, real.model.trees):
            for node_id, node in t_counted.nodes.items():
                other = t_real.nodes[node_id]
                assert node.is_leaf == other.is_leaf
                if not node.is_leaf:
                    assert (node.owner, node.feature, node.bin_index) == (
                        other.owner, other.feature, other.bin_index,
                    )

    @pytest.mark.parametrize("packing", [False, True])
    @pytest.mark.parametrize("reordered", [False, True])
    def test_real_crypto_flag_combinations(
        self, small_classification, packing, reordered
    ):
        features, labels = small_classification
        features, labels = features[:80], labels[:80]
        params = GBDTParams(n_trees=1, n_layers=3, n_bins=5)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(5, 10)),
            full.subset_features(np.arange(0, 5)),
        ]
        plaintext = GBDTTrainer(params)
        plaintext.fit_binned(full, labels)
        config = VF2BoostConfig(
            params=params,
            crypto_mode="real",
            key_bits=256,
            exponent_jitter=2,
            histogram_packing=packing,
            reordered_accumulation=reordered,
        )
        result = FederatedTrainer(config).fit(parties, labels)
        assert result.history[0].train_loss == pytest.approx(
            plaintext.history[0].train_loss, abs=1e-4
        )


class TestFederatedGainOverSingleParty:
    def test_federated_beats_party_b_only(self, small_classification, small_params):
        features, labels = small_classification
        train_f, valid_f = features[:300], features[300:]
        train_l, valid_l = labels[:300], labels[300:]
        params = small_params.replace(n_trees=8, n_layers=5)
        # Party B alone (columns 5..9).
        b_only = GBDTTrainer(params)
        b_only.fit(train_f[:, 5:], train_l, valid_f[:, 5:], valid_l)
        # Federated over both parties.
        full = bin_dataset(train_f, params.n_bins)
        parties = [
            full.subset_features(np.arange(5, 10)),
            full.subset_features(np.arange(0, 5)),
        ]
        from repro.bench.experiments import _bin_with_reference

        valid_codes_full = _bin_with_reference(valid_f, full)
        valid_codes = {0: valid_codes_full[:, 5:], 1: valid_codes_full[:, :5]}
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
        result = FederatedTrainer(config).fit(parties, train_l, valid_codes, valid_l)
        assert result.history[-1].valid_auc > b_only.history[-1].valid_auc


class TestPrivacyInvariants:
    """What crosses the channel must never expose labels or features."""

    def test_real_mode_gradient_stream_is_ciphertext(
        self, small_classification, real_config
    ):
        features, labels = small_classification
        features, labels = features[:60], labels[:60]
        params = real_config.params.replace(n_trees=1, n_layers=3, n_bins=5)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(5, 10)),
            full.subset_features(np.arange(0, 5)),
        ]
        result = FederatedTrainer(real_config.replace(params=params)).fit(
            parties, labels
        )
        for message in result.channel.log:
            if message.receiver != 0 and isinstance(
                message,
                (EncryptedGradHessBatch, EncryptedHistogramMessage, PackedHistogramMessage),
            ):
                assert message.disclosure == "ciphertext"
                assert not _carries_floats(message)

    def test_passive_split_disclosed_as_bin_index_only(
        self, party_datasets, counted_config
    ):
        result = FederatedTrainer(counted_config).fit(*party_datasets)
        decisions = [
            m for m in result.channel.log if isinstance(m, SplitDecision)
        ]
        assert decisions, "some splits should belong to Party A"
        for decision in decisions:
            # The only payload toward the owner is a flat bin index.
            assert decision.bin_flat_index >= 0
            assert not hasattr(decision, "threshold")

    def test_thresholds_of_passive_splits_unknown_to_model_consumers(
        self, party_datasets, counted_config
    ):
        result = FederatedTrainer(counted_config).fit(*party_datasets)
        owners = result.model.split_counts_by_owner()
        assert 1 in owners, "Party A should win some splits"
        # Placement crosses as bitmaps (one bit per instance).
        placements = [
            m
            for m in result.channel.log
            if isinstance(m, (InstancePlacement, SplitAnswer))
        ]
        assert placements
        for message in placements:
            assert message.placement.dtype == np.bool_

    def test_counted_mode_sends_only_counters(self, party_datasets, counted_config):
        result = FederatedTrainer(counted_config).fit(*party_datasets)
        bulk = [
            m for m in result.channel.log if isinstance(m, CountedCipherPayload)
        ]
        assert bulk
        assert all(m.n_ciphers > 0 for m in bulk)


class TestTraceRecording:
    def test_trace_shapes(self, party_datasets, counted_config):
        result = FederatedTrainer(counted_config).fit(*party_datasets)
        trace = result.trace
        assert len(trace.trees) == counted_config.params.n_trees
        assert trace.n_instances == party_datasets[0][0].n_instances
        assert trace.n_parties == 2

    def test_dirty_flags_match_owners(self, party_datasets, counted_config):
        result = FederatedTrainer(counted_config).fit(*party_datasets)
        for tree in result.trace.trees:
            for layer in tree.layers:
                for node in layer.nodes:
                    if node.is_split:
                        assert node.dirty == (node.owner != 0)

    def test_split_ratio_tracks_feature_share(self, small_classification):
        # With B owning 8 of 10 informative columns, B should win most splits.
        features, labels = small_classification
        params = GBDTParams(n_trees=4, n_layers=4, n_bins=10)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(2, 10)),  # B: 8 columns
            full.subset_features(np.arange(0, 2)),  # A: 2 columns
        ]
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
        result = FederatedTrainer(config).fit(parties, labels)
        assert result.trace.split_ratio_of_active() > 0.5

    def test_bytes_accounted(self, party_datasets, counted_config):
        result = FederatedTrainer(counted_config).fit(*party_datasets)
        assert result.channel.total_bytes() > 0

    def test_packing_reduces_counted_bytes(self, party_datasets, small_params):
        packed_cfg = VF2BoostConfig.vf2boost(
            params=small_params, crypto_mode="counted"
        )
        raw_cfg = packed_cfg.replace(histogram_packing=False)
        a_to_b = [
            FederatedTrainer(config).fit(*party_datasets).channel.stats[(1, 0)].bytes
            for config in (packed_cfg, raw_cfg)
        ]
        assert a_to_b[0] < a_to_b[1]


class TestMultiParty:
    def test_three_party_training(self, small_classification):
        features, labels = small_classification
        params = GBDTParams(n_trees=2, n_layers=4, n_bins=8)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(6, 10)),  # B
            full.subset_features(np.arange(0, 3)),  # A1
            full.subset_features(np.arange(3, 6)),  # A2
        ]
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
        result = FederatedTrainer(config).fit(parties, labels)
        assert len(result.model.trees) == 2
        assert result.trace.n_parties == 3
        # Matches plaintext co-located training.
        plaintext = GBDTTrainer(params)
        plaintext.fit(features, labels)
        assert [r.train_loss for r in result.history] == pytest.approx(
            [r.train_loss for r in plaintext.history], abs=1e-10
        )


class TestValidation:
    def test_misaligned_instances_rejected(self, party_datasets, counted_config):
        parties, labels = party_datasets
        truncated = parties[1].subset_instances(np.arange(10))
        with pytest.raises(ValueError):
            FederatedTrainer(counted_config).fit([parties[0], truncated], labels)

    def test_label_mismatch_rejected(self, party_datasets, counted_config):
        parties, labels = party_datasets
        with pytest.raises(ValueError):
            FederatedTrainer(counted_config).fit(parties, labels[:-1])

    def test_single_party_rejected(self, party_datasets, counted_config):
        parties, labels = party_datasets
        with pytest.raises(ValueError):
            FederatedTrainer(counted_config).fit(parties[:1], labels)


class TestHistogramSubtraction:
    """Below the root only the smaller child of each split is built."""

    @staticmethod
    def _soft_problem(n=72, d=9, seed=11):
        # Probabilities, not 0/1 labels: every instance has its own
        # gradient (TestHardLabels covers the tied case).
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, d))
        weights = rng.normal(size=d)
        score = features @ weights / np.linalg.norm(weights)
        labels = 1.0 / (1.0 + np.exp(-(score + rng.normal(scale=0.3, size=n))))
        return features, labels

    @staticmethod
    def _built_nodes(result):
        return sum(
            layer.built_nodes for tree in result.trace.trees for layer in tree.layers
        )

    @pytest.mark.parametrize("preset", ["vf2boost", "vf_gbdt"])
    def test_deep_three_party_real_counted_colocated_agree(self, preset):
        features, labels = self._soft_problem()
        params = GBDTParams(n_trees=2, n_layers=5, n_bins=4)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(0, 3)),
            full.subset_features(np.arange(3, 6)),
            full.subset_features(np.arange(6, 9)),
        ]
        codes = {p: ds.codes for p, ds in enumerate(parties)}
        plaintext = GBDTTrainer(params)
        plaintext.fit_binned(full, labels)
        config = getattr(VF2BoostConfig, preset)(
            params=params, crypto_mode="real", key_bits=256
        )
        real = FederatedTrainer(config).fit(parties, labels)
        counted = FederatedTrainer(config.replace(crypto_mode="counted")).fit(
            parties, labels
        )
        reference = [r.train_loss for r in plaintext.history]
        assert [r.train_loss for r in real.history] == reference
        assert [r.train_loss for r in counted.history] == reference
        assert np.array_equal(
            real.model.predict_margin(codes), counted.model.predict_margin(codes)
        )
        # Derived nodes were themselves split into a built and a derived
        # child: subtraction is applied to an already-derived parent.
        for tree in real.trace.trees:
            marks = {
                node.node_id: node.derived
                for layer in tree.layers
                for node in layer.nodes
            }
            assert any(
                derived and marks[(node_id - 1) // 2]
                for node_id, derived in marks.items()
                if node_id
            )
        # Exact counts: every histogram cipher B received it decrypted,
        # and both passive parties shipped built nodes only.
        built = self._built_nodes(real)
        assert built == self._built_nodes(counted)
        by_type = real.channel.by_type
        if config.histogram_packing:
            message = by_type["PackedHistogramMessage"]
            header = 32
        else:
            message = by_type["EncryptedHistogramMessage"]
            header = 16
        wire_ciphers = (message.bytes - header * message.messages) // (256 // 4)
        assert real.crypto_stats[0].decryptions == wire_ciphers
        assert wire_ciphers % built == 0  # a whole per-node figure
        if not config.histogram_packing:
            assert wire_ciphers == 2 * built * 2 * 3 * params.n_bins

    def test_built_set_is_root_plus_smaller_child(self, party_datasets, counted_config):
        result = FederatedTrainer(counted_config).fit(*party_datasets)
        for tree in result.trace.trees:
            assert not tree.layers[0].nodes[0].derived
            for upper, lower in zip(tree.layers, tree.layers[1:]):
                sizes = {node.node_id: node for node in lower.nodes}
                for parent in upper.nodes:
                    if not parent.is_split:
                        continue
                    left = sizes[2 * parent.node_id + 1]
                    right = sizes[2 * parent.node_id + 2]
                    assert left.derived != right.derived
                    small, large = (right, left) if left.derived else (left, right)
                    assert small.n_instances <= large.n_instances

    def test_size_tie_builds_the_left_child(self):
        # One feature per party; B's column separates the classes
        # perfectly and evenly, so the root splits 8 | 8.
        column = np.repeat([0.0, 1.0], 8)
        features = np.column_stack([column, np.tile([0.0, 1.0, 2.0, 3.0], 4)])
        labels = column.copy()
        params = GBDTParams(n_trees=1, n_layers=3, n_bins=4)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(0, 1)),
            full.subset_features(np.arange(1, 2)),
        ]
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
        result = FederatedTrainer(config).fit(parties, labels)
        root, children = result.trace.trees[0].layers
        assert [node.n_instances for node in children.nodes] == [8, 8]
        assert [node.derived for node in children.nodes] == [False, True]
        assert (children.built_nodes, children.built_instances) == (1, 8)

    @pytest.mark.parametrize("mode", ["counted", "mock"])
    def test_counted_payload_counts_built_nodes_only(self, party_datasets, mode):
        parties, labels = party_datasets
        params = GBDTParams(n_trees=1, n_layers=4, n_bins=10)
        config = VF2BoostConfig.vf_gbdt(params=params, crypto_mode=mode)
        result = FederatedTrainer(config).fit(parties, labels)
        shipped = sum(
            m.n_ciphers
            for m in result.channel.log
            if isinstance(m, CountedCipherPayload) and m.kind == "histograms"
        )
        per_node = 2 * parties[1].n_features * params.n_bins
        assert shipped == self._built_nodes(result) * per_node
        all_nodes = sum(len(l.nodes) for l in result.trace.trees[0].layers)
        assert self._built_nodes(result) == (all_nodes + 1) // 2

    def test_packed_derived_sums_are_exact(self, monkeypatch):
        features, labels = self._soft_problem(n=60, d=6, seed=5)
        params = GBDTParams(n_trees=1, n_layers=4, n_bins=4)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(0, 3)),
            full.subset_features(np.arange(3, 6)),
        ]
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode="real", key_bits=256)
        plaintext = GBDTTrainer(params)
        plaintext.fit_binned(full, labels)
        seen = []
        search = ActiveParty._global_best_split

        def spy(active, node_id):
            seen.append(active.hists[1][node_id])
            return search(active, node_id)

        monkeypatch.setattr(ActiveParty, "_global_best_split", spy)
        result = FederatedTrainer(config).fit(parties, labels)
        assert [r.train_loss for r in result.history] == [
            r.train_loss for r in plaintext.history
        ]
        derived = sum(
            node.derived for layer in result.trace.trees[0].layers for node in layer.nodes
        )
        assert derived >= 2
        # Every feature's bins partition the node's instances, and the
        # fixed-exponent sums are exact multiples of B**-e well below
        # 2**53: built or derived by parent - child, each feature's bins
        # add up to the very same float.  No count reaches Party B.
        for hist in seen:
            assert not hist.count.any()
            for totals in (hist.grad.sum(axis=1), hist.hess.sum(axis=1)):
                assert (totals == totals[0]).all()


class TestHardLabels:
    """0/1 labels give the first tree two gradient values, so candidates
    tie in gain; on the 2**-16 grid every path sums the same exact
    integers and breaks ties alike: argmax-first within a party, strict
    ``>`` across parties — the co-located ``(party, feature, bin)`` order."""

    #: the benchmark's ``train-unopt`` shape: rows, B's / A's columns, bins
    ROWS, D_B, D_A, BINS = 120, 4, 24, 8

    def _problem(self, seed):
        rng = np.random.default_rng(seed)
        width = self.D_B + self.D_A
        features = rng.normal(size=(self.ROWS, width))
        weights = rng.normal(size=width)
        noise = rng.normal(scale=0.3, size=self.ROWS)
        score = features @ weights / np.linalg.norm(weights) + noise
        return bin_dataset(features, self.BINS), (score > 0).astype(float)

    @pytest.mark.parametrize("n_passive", [1, 2])
    @pytest.mark.parametrize("preset", ["vf2boost", "vf_gbdt"])
    def test_real_counted_colocated_bit_equal(self, preset, n_passive, monkeypatch):
        params = GBDTParams(n_trees=1, n_layers=3, n_bins=self.BINS)
        config = getattr(VF2BoostConfig, preset)(
            params=params, crypto_mode="real", key_bits=256
        )
        search = boosting.find_best_split
        top_ties = []

        def colocated_search(histogram, params, **kwargs):
            gains, _ = gain_matrix(histogram, params)
            top_ties.append(int((gains == gains.max()).sum()) - 1)
            return search(histogram, params, **kwargs)

        monkeypatch.setattr(boosting, "find_best_split", colocated_search)
        # Seeds 3 and 5 failed this oracle at the 2**32 fixed-point scale.
        for seed in (3, 5):
            full, labels = self._problem(seed)
            cuts = [0, self.D_B]
            cuts += [self.D_B + self.D_A * (p + 1) // n_passive for p in range(n_passive)]
            parties = [full.subset_features(np.arange(a, b)) for a, b in zip(cuts, cuts[1:])]
            codes = {p: ds.codes for p, ds in enumerate(parties)}
            plaintext = GBDTTrainer(params)
            colocated = plaintext.fit_binned(full, labels)
            real = FederatedTrainer(config).fit(parties, labels)
            counted = FederatedTrainer(config.replace(crypto_mode="counted")).fit(
                parties, labels
            )
            reference = [r.train_loss for r in plaintext.history]
            assert [r.train_loss for r in real.history] == reference, seed
            assert [r.train_loss for r in counted.history] == reference, seed
            margins = colocated.predict_margin(full.codes)
            assert np.array_equal(real.model.predict_margin(codes), margins), seed
            assert np.array_equal(counted.model.predict_margin(codes), margins), seed
        assert sum(top_ties) > 0  # the tie rule was exercised


class TestPhaseProfile:
    """``TrainResult.profile``: the run's OpStats split by protocol phase."""

    ZERO = OpStats().to_dict()

    @staticmethod
    def _problem(preset, n_passive):
        rng = np.random.default_rng(9)
        features = rng.normal(size=(40, 2 * (n_passive + 1)))
        labels = 1.0 / (1.0 + np.exp(-features[:, 0] - features[:, 2]))
        params = GBDTParams(n_trees=2, n_layers=3, n_bins=4)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(2 * p, 2 * p + 2))
            for p in range(n_passive + 1)
        ]
        config = getattr(VF2BoostConfig, preset)(
            params=params, crypto_mode="real", key_bits=256
        )
        return config, parties, labels

    @pytest.mark.parametrize("n_passive", [1, 2])
    @pytest.mark.parametrize("preset", ["vf2boost", "vf_gbdt"])
    def test_phase_rows_add_up_to_crypto_stats(self, preset, n_passive, tmp_path):
        config, parties, labels = self._problem(preset, n_passive)
        result = FederatedTrainer(config).fit(parties, labels)
        ops, phases = result.profile["ops"], result.profile["phases"]
        assert set(phases) == {"GradEnc", "Histogram", "Split", "Leaf"}
        for name in self.ZERO:
            counted = sum(getattr(s, name) for s in result.crypto_stats.values())
            assert ops[name] == counted == sum(row[name] for row in phases.values())
        # Enc is all GradEnc, everything else all Histogram.
        assert phases["GradEnc"] == {**self.ZERO, "encryptions": ops["encryptions"]}
        assert phases["Histogram"] == {**ops, "encryptions": 0}
        assert phases["Split"] == phases["Leaf"] == self.ZERO
        assert min(ops["encryptions"], ops["additions"], ops["decryptions"]) > 0
        # The table rides on the saved report unchanged.
        path = tmp_path / "run.report.json"
        result.run_report(label=preset).save(str(path))
        assert RunReport.load(str(path)).profile == result.profile

    def test_counted_mode_has_no_profile(self, party_datasets, counted_config):
        assert FederatedTrainer(counted_config).fit(*party_datasets).profile == {}

    def test_crash_bundle_and_report_diff_carry_the_table(self, tmp_path):
        config, parties, labels = self._problem("vf2boost", 1)
        trainer = FederatedTrainer(config, incident_dir=str(tmp_path / "incidents"))
        with pytest.raises(TrainingInterrupted):
            trainer.fit(
                parties,
                labels,
                fault_plan=FaultPlan(seed=1, crash_after_trees=(0,)),
                checkpoint_dir=str(tmp_path / "ckpts"),
            )
        (bundle_path,) = trainer.incidents
        crashed = IncidentBundle.load(bundle_path).profile
        # One tree in: one pair cipher per instance, all of it GradEnc.
        assert crashed["phases"]["GradEnc"]["encryptions"] == len(labels)
        assert crashed["ops"]["decryptions"] > 0
        full = FederatedTrainer(config).fit(parties, labels)
        rows = diff_reports({"profile": crashed}, full.run_report()).sections["profile"]
        moved = {row.name: row.delta for row in rows}
        assert moved["phase.GradEnc.encryptions"] == len(labels)
        assert moved["ops.encryptions"] == len(labels)
