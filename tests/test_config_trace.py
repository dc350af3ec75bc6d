"""Tests for VF2BoostConfig presets and the workload trace schema."""

import pytest

from repro.core.config import VF2BoostConfig
from repro.core.profile import analytic_trace
from repro.core.trace import LayerTrace, NodeTrace, PartyShape, TraceLog, TreeTrace
from repro.gbdt.params import GBDTParams


class TestConfigPresets:
    def test_vf2boost_all_on(self):
        config = VF2BoostConfig.vf2boost()
        assert config.blaster_encryption
        assert config.reordered_accumulation
        assert config.optimistic_split
        assert config.histogram_packing

    def test_vf_gbdt_all_off(self):
        config = VF2BoostConfig.vf_gbdt()
        assert not config.blaster_encryption
        assert not config.reordered_accumulation
        assert not config.optimistic_split
        assert not config.histogram_packing
        assert config.crypto_mode == "counted"

    def test_replace(self):
        config = VF2BoostConfig.vf2boost().replace(key_bits=512)
        assert config.key_bits == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            VF2BoostConfig(crypto_mode="plain")
        # VF-MOCK is a price list (CostModel.mocked), not a crypto mode.
        with pytest.raises(ValueError):
            VF2BoostConfig(crypto_mode="mock")
        with pytest.raises(ValueError):
            VF2BoostConfig(key_bits=32)
        with pytest.raises(ValueError):
            VF2BoostConfig(exponent_jitter=0)
        with pytest.raises(ValueError):
            VF2BoostConfig(blaster_batch_size=0)


class TestTraceSchema:
    def _trace(self):
        shape = PartyShape(n_features=4, nnz_per_instance=2.0, n_bins=8)
        trace = TraceLog(100, shape, [shape])
        tree = TreeTrace(tree_index=0, n_instances=100, n_exponents=4)
        layer = LayerTrace(depth=0, nodes=[NodeTrace(0, 100, owner=0)])
        layer2 = LayerTrace(
            depth=1,
            nodes=[
                NodeTrace(1, 60, owner=1, dirty=True),
                NodeTrace(2, 40, owner=0),
            ],
        )
        tree.layers = [layer, layer2]
        trace.trees = [tree]
        return trace

    def test_party_shape_bins(self):
        shape = PartyShape(5, 1.0, 10)
        assert shape.histogram_bins == 100

    def test_layer_aggregates(self):
        trace = self._trace()
        layer2 = trace.trees[0].layers[1]
        assert layer2.n_instances == 100
        assert layer2.n_split_nodes == 2
        assert layer2.n_dirty == 1
        assert layer2.dirty_instances == 60

    def test_split_counts_and_ratios(self):
        trace = self._trace()
        assert trace.trees[0].split_counts_by_owner() == {0: 2, 1: 1}
        assert trace.split_ratio_of_active() == pytest.approx(2 / 3)
        assert trace.dirty_ratio() == pytest.approx(1 / 3)

    def test_n_parties(self):
        assert self._trace().n_parties == 2


class TestAnalyticProfile:
    def test_structure(self):
        trace = analytic_trace(
            1000, 30, [70], density=0.5, n_bins=8, n_layers=4, n_trees=2
        )
        assert len(trace.trees) == 2
        assert len(trace.trees[0].layers) == 3
        assert [len(layer.nodes) for layer in trace.trees[0].layers] == [1, 2, 4]

    def test_split_ratio_matches_expectation(self):
        trace = analytic_trace(
            10_000, 30, [70], density=0.5, n_bins=8, n_layers=8, n_trees=1
        )
        assert trace.split_ratio_of_active() == pytest.approx(0.3, abs=0.05)

    def test_dirty_nodes_are_passive_owned(self):
        trace = analytic_trace(1000, 50, [50], density=1.0, n_bins=8, n_layers=5)
        for tree in trace.trees:
            for layer in tree.layers:
                for node in layer.nodes:
                    assert node.dirty == (node.owner != 0)

    def test_instances_conserved_per_layer(self):
        trace = analytic_trace(1024, 10, [10], density=1.0, n_bins=8, n_layers=6)
        for layer in trace.trees[0].layers:
            assert layer.n_instances == 1024

    def test_explicit_ratio_override(self):
        trace = analytic_trace(
            1000, 10, [10], density=1.0, n_bins=8, n_layers=6,
            active_split_ratio=1.0,
        )
        assert trace.split_ratio_of_active() == 1.0
        assert trace.dirty_ratio() == 0.0

    def test_multi_party_spread(self):
        trace = analytic_trace(
            1000, 25, [25, 25, 25], density=1.0, n_bins=8, n_layers=7
        )
        owners = set()
        for layer in trace.trees[0].layers:
            owners.update(node.owner for node in layer.nodes)
        assert owners.issuperset({0, 1, 2, 3})

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic_trace(10, 5, [5], 1.0, 8, n_layers=1)
        with pytest.raises(ValueError):
            analytic_trace(10, 5, [5], 1.0, 8, 4, active_split_ratio=1.5)
