"""Tests for the protocol scheduler: overlap semantics and ablations."""

import numpy as np
import pytest

from repro.bench.costmodel import CostModel
from repro.core.config import VF2BoostConfig
from repro.core.profile import analytic_trace
from repro.core.protocol import ProtocolScheduler
from repro.core.trainer import FederatedTrainer
from repro.fed.cluster import PAPER_CLUSTER, ClusterSpec
from repro.gbdt.binning import bin_dataset
from repro.gbdt.params import GBDTParams

COST = CostModel.paper()
PARAMS = GBDTParams(n_layers=5, n_bins=20)


def _trace(n=1_000_000, fa=5000, fb=5000, layers=5, ratio=None, trees=1):
    return analytic_trace(
        n, fb, [fa], density=0.01, n_bins=20, n_layers=layers,
        n_trees=trees, active_split_ratio=ratio,
    )


def _schedule(trace, **flags):
    config = VF2BoostConfig(params=PARAMS, **flags)
    return ProtocolScheduler(config, COST, PAPER_CLUSTER).schedule(trace)


class TestAblationDirections:
    """Each §4/§5 optimization must speed the schedule up."""

    def test_blaster_speeds_up_root(self):
        trace = _trace()
        base = _schedule(
            trace, blaster_encryption=False, reordered_accumulation=False,
            optimistic_split=False, histogram_packing=False,
        )
        blaster = _schedule(
            trace, blaster_encryption=True, reordered_accumulation=False,
            optimistic_split=False, histogram_packing=False,
        )
        seq_root = (
            base.root_breakdown["Enc"]
            + base.root_breakdown["Comm"]
            + base.root_breakdown["HAdd"]
        )
        assert blaster.root_breakdown["RootMakespan"] < seq_root
        # Pipelined root cannot beat its slowest stage.
        slowest = max(
            blaster.root_breakdown["Enc"],
            blaster.root_breakdown["Comm"],
            blaster.root_breakdown["HAdd"],
        )
        assert blaster.root_breakdown["RootMakespan"] >= slowest * 0.99

    def test_reordered_speeds_up(self):
        trace = _trace()
        slow = _schedule(
            trace, reordered_accumulation=False, optimistic_split=False,
            histogram_packing=False, blaster_encryption=False,
        )
        fast = _schedule(
            trace, reordered_accumulation=True, optimistic_split=False,
            histogram_packing=False, blaster_encryption=False,
        )
        assert fast.makespan < slow.makespan

    def test_packing_speeds_up_and_saves_bytes(self):
        trace = _trace()
        raw = _schedule(trace, histogram_packing=False, optimistic_split=False)
        packed = _schedule(trace, histogram_packing=True, optimistic_split=False)
        assert packed.makespan < raw.makespan
        assert packed.bytes_per_tree < raw.bytes_per_tree

    def test_optimistic_speeds_up(self):
        trace = _trace()
        sync = _schedule(trace, optimistic_split=False, histogram_packing=False)
        optimistic = _schedule(trace, optimistic_split=True, histogram_packing=False)
        assert optimistic.makespan < sync.makespan

    def test_all_optimizations_best(self):
        trace = _trace()
        base = _schedule(
            trace, blaster_encryption=False, reordered_accumulation=False,
            optimistic_split=False, histogram_packing=False,
        )
        full = _schedule(trace)
        assert full.makespan < base.makespan
        assert base.makespan / full.makespan > 1.5


class TestOptimisticSensitivity:
    def test_more_active_splits_help_optimism(self):
        # Failure probability D_A/(D_A+D_B): optimism gains more when B
        # owns more splits (§4.2 Discussion, Table 2).
        gains = []
        for ratio in (0.2, 0.8):
            trace = _trace(ratio=ratio)
            sync = _schedule(trace, optimistic_split=False, histogram_packing=False)
            optimistic = _schedule(
                trace, optimistic_split=True, histogram_packing=False
            )
            gains.append(sync.makespan / optimistic.makespan)
        assert gains[1] > gains[0]

    def test_zero_dirty_case(self):
        trace = _trace(ratio=1.0)
        optimistic = _schedule(trace, optimistic_split=True, histogram_packing=False)
        sync = _schedule(trace, optimistic_split=False, histogram_packing=False)
        assert optimistic.makespan <= sync.makespan


class TestMockMode:
    def test_mock_much_faster_than_crypto(self):
        trace = _trace()
        crypto = _schedule(
            trace, blaster_encryption=False, reordered_accumulation=False,
            optimistic_split=False, histogram_packing=False,
        )
        mock = _schedule(
            trace, blaster_encryption=False, reordered_accumulation=False,
            optimistic_split=False, histogram_packing=False, crypto_mode="mock",
        )
        assert crypto.makespan / mock.makespan > 10

    def test_mock_ships_plaintext_bytes(self):
        trace = _trace()
        crypto = _schedule(trace, histogram_packing=False, optimistic_split=False)
        mock = _schedule(
            trace, histogram_packing=False, optimistic_split=False,
            crypto_mode="mock",
        )
        assert mock.bytes_per_tree < crypto.bytes_per_tree / 10


class TestScaling:
    def test_makespan_grows_with_instances(self):
        small = _schedule(_trace(n=100_000))
        large = _schedule(_trace(n=1_000_000))
        assert large.makespan > small.makespan * 3

    def test_more_workers_faster(self):
        trace = _trace()
        config = VF2BoostConfig(params=PARAMS)
        slow = ProtocolScheduler(
            config, COST, PAPER_CLUSTER.scaled_workers(4)
        ).schedule(trace)
        fast = ProtocolScheduler(
            config, COST, PAPER_CLUSTER.scaled_workers(16)
        ).schedule(trace)
        assert fast.makespan < slow.makespan
        # ... but sublinearly.
        assert slow.makespan / fast.makespan < 4.0

    def test_multi_party_slightly_slower(self):
        two = analytic_trace(500_000, 500, [500], 0.1, 20, 5)
        three = analytic_trace(500_000, 333, [333, 333], 0.1, 20, 5)
        config = VF2BoostConfig(params=PARAMS)
        t2 = ProtocolScheduler(config, COST, PAPER_CLUSTER).schedule(two).makespan
        t3 = ProtocolScheduler(config, COST, PAPER_CLUSTER).schedule(three).makespan
        assert t3 == pytest.approx(t2, rel=0.35)

    def test_per_tree_lengths(self):
        trace = _trace(trees=3)
        result = _schedule(trace)
        assert len(result.per_tree) == 3
        assert result.makespan == pytest.approx(sum(result.per_tree))


class TestReporting:
    def test_phase_totals_cover_known_phases(self):
        result = _schedule(_trace())
        for phase in ("Enc", "CipherComm", "BuildHistA", "FindSplitA", "FindSplitB"):
            assert phase in result.phase_totals

    def test_utilization_bounded(self):
        result = _schedule(_trace())
        for value in result.utilization.values():
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_gantt_nonempty(self):
        result = _schedule(_trace())
        assert "A1" in result.gantt


class TestHistogramSubtractionPricing:
    """A-side terms follow the trace's built nodes; B derives the rest."""

    A_SIDE = ("BuildHistA", "Aggregate", "Pack", "CipherComm", "FindSplitA")

    @pytest.mark.parametrize(
        "flags, passive, makespan, build_hist_a, find_split_a",
        [
            (
                # Packed path: re-pinned when (g, h) became one cipher
                # (half of BuildHistA's additions, no workspace merge),
                # and again when Party A stopped handling the last bin
                # (BuildHistA x 19/20) and packs filled across features
                # (10 000 -> 5 278 ciphers a node at t = 18), and when
                # slots became exactly as wide as their sums (5 278 ->
                # 4 524 at t = 21: FindSplitA x 6/7; BuildHistA's work is
                # the same, its sum of end - start moved one ulp), and
                # when the build took two features per HAdd: a pair saves
                # (joined instances - non-empty cells), and at density
                # 0.01 x 20 bins a cell is hit 2.5e-7 times per instance,
                # so it almost never holds two; and when (g, h) moved onto
                # the 2**-16 grid: a slot of N = 100 000 went 50 + 47 = 97
                # -> 34 + 31 = 65 bits, t = 21 -> 31, 4 524 -> 3 065 packs
                # a node.
                {},
                [5000],
                # 42.256 -> 40.852: Pack and FindSplitA below, on the path
                "0x1.46d0b3837838fp+5",
                # x 1: the build adds the same pair ciphers
                "0x1.eb04dd1a91b36p+4",
                # 3.2357 -> 2.1936: the Dec term x 3 065 / 4 524
                "0x1.18c6f2d593bf4p+1",
            ),
            (
                dict(
                    incremental_dirty_redo=True,
                    histogram_packing=False,
                ),
                [2500, 2500],
                "0x1.90a8d824eb8c7p+7",
                "0x1.2827027027026p+6",
                "0x1.1dbb3ee721a54p+7",
            ),
        ],
    )
    def test_unmarked_trace_schedules_as_before(
        self, flags, passive, makespan, build_hist_a, find_split_a
    ):
        # The two-cipher pattern was recorded at the commit before
        # subtraction landed: analytic traces mark no node derived and
        # must price identically (Tables 1-2/4-6 reproduce the paper's
        # published protocol).
        trace = analytic_trace(
            100_000, 5000, passive, density=0.01, n_bins=20, n_layers=5, n_trees=2
        )
        assert not any(
            node.derived
            for tree in trace.trees
            for layer in tree.layers
            for node in layer.nodes
        )
        result = _schedule(trace, **flags)
        assert result.makespan.hex() == makespan
        assert result.phase_totals["BuildHistA"].hex() == build_hist_a
        assert result.phase_totals["FindSplitA"].hex() == find_split_a

    @staticmethod
    def _mark_larger_siblings(trace):
        for tree in trace.trees:
            for layer in tree.layers[1:]:
                for node in layer.nodes[1::2]:
                    node.derived = True

    @pytest.mark.parametrize(
        "flags",
        [
            {},
            dict(optimistic_split=False, histogram_packing=False),
            dict(incremental_dirty_redo=True),
        ],
    )
    def test_marked_trace_is_cheaper_on_the_a_side_only(self, flags):
        plain = _trace(n=100_000)
        marked = _trace(n=100_000)
        self._mark_larger_siblings(marked)
        before = _schedule(plain, **flags)
        after = _schedule(marked, **flags)
        for phase in self.A_SIDE:
            if phase in before.phase_totals:
                assert after.phase_totals[phase] < before.phase_totals[phase], phase
        for phase in ("Enc", "FindSplitB", "SplitNode"):
            # busy time is end - start of shifted tasks: equal up to rounding
            assert after.phase_totals[phase] == pytest.approx(
                before.phase_totals[phase], rel=1e-9
            ), phase
        assert after.bytes_per_tree < before.bytes_per_tree
        assert after.makespan < before.makespan

    def test_dense_pairs_price_one_hadd_per_joined_instance(self):
        # Where the pairing pays: dense columns, many instances a cell.
        dense = analytic_trace(100_000, 8, [8], density=1.0, n_bins=4, n_layers=3)
        paired = _schedule(dense).phase_totals["BuildHistA"]
        per_feature = _schedule(dense, histogram_packing=False).phase_totals["BuildHistA"]
        # Unpacked: 2 ciphers x 8 values, re-ordered, same HAdd price.
        # Packed: 4 pairs x (1 - 1/16) per instance, + 4 x 9 cells a node.
        assert paired / per_feature == pytest.approx(4 * 15 / 16 / 16, rel=1e-3)

    def test_build_addends_are_the_hadds_the_real_build_made(
        self, monkeypatch
    ):
        import dataclasses

        import repro.core.enc_histogram as enc_histogram
        from repro.bench.scenario import GOLDEN, GOLDEN_DIMS

        builds = []
        build = enc_histogram.build_encrypted_histogram

        def counted_build(context, *args, **kwargs):
            before = context.stats.additions
            histogram = build(context, *args, **kwargs)
            builds.append((context.stats.additions - before, histogram))
            return histogram

        monkeypatch.setattr(enc_histogram, "build_encrypted_histogram", counted_build)
        config = GOLDEN.config(crypto_mode="real")
        result = FederatedTrainer(config).fit(*GOLDEN.parties())
        real_hadds = sum(adds for adds, _ in builds)
        first_touches = sum(
            cell is not None
            for _, histogram in builds
            for bins in histogram.grad_bins
            for cell in bins
        )
        # One second per HAdd on one lane: BuildHistA *is* the addends.
        hadd_only = CostModel(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, cipher_bytes=64)
        cluster = ClusterSpec(n_workers=1, cores_per_worker=1, parallel_efficiency=1.0)
        # The run's own nodes under the scenario's dense shape (a
        # recorded shape's `d` leaves the zero bin out).
        trace = dataclasses.replace(
            result.trace, passive_shapes=GOLDEN_DIMS.analytic_trace().passive_shapes
        )
        priced = ProtocolScheduler(config, hadd_only, cluster).schedule(trace)
        # The scheduler does not model the free first cipher of a
        # non-empty bin (joint cells' first ciphers it does): one HAdd
        # per non-empty bin apart, to the evenness of quantile bins.
        assert (real_hadds, first_touches) == (236, 36)
        assert priced.phase_totals["BuildHistA"] == pytest.approx(
            real_hadds + first_touches, rel=0.01
        )

    def test_recorded_trace_prices_the_decryptions_the_run_made(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(60, 6))
        labels = (features @ rng.normal(size=6) > 0).astype(float)
        params = GBDTParams(n_trees=2, n_layers=4, n_bins=4)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(0, 3)),
            full.subset_features(np.arange(3, 6)),
        ]
        config = VF2BoostConfig.vf_gbdt(
            params=params, crypto_mode="real", key_bits=256
        )
        result = FederatedTrainer(config).fit(parties, labels)
        # One second per Dec, nothing else costs: FindSplitA *is* the count.
        dec_only = CostModel(
            t_enc=0.0, t_dec=1.0, t_hadd=0.0, t_scale=0.0, t_smul=0.0,
            t_smul_small=0.0, t_plain_accum=0.0, t_split_bin=0.0, cipher_bytes=64,
        )
        cluster = ClusterSpec(n_workers=1, cores_per_worker=1, parallel_efficiency=1.0)
        schedule = ProtocolScheduler(config, dec_only, cluster).schedule(result.trace)
        assert schedule.phase_totals["FindSplitA"] == result.crypto_stats[0].decryptions
