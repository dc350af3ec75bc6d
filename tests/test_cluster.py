"""Tests for the cluster/topology model."""

import pytest

from repro.fed.cluster import PAPER_CLUSTER, ClusterSpec


class TestValidation:
    def test_defaults_match_paper(self):
        assert PAPER_CLUSTER.n_workers == 8
        assert PAPER_CLUSTER.cores_per_worker == 16
        assert PAPER_CLUSTER.wan_bandwidth == pytest.approx(300e6 / 8)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_workers=0)
        with pytest.raises(ValueError):
            ClusterSpec(wan_bandwidth=0)
        with pytest.raises(ValueError):
            ClusterSpec(parallel_efficiency=0)


class TestComputeLanes:
    def test_lanes_grow_with_workers(self):
        assert (
            ClusterSpec(n_workers=16).compute_lanes
            > ClusterSpec(n_workers=8).compute_lanes
            > ClusterSpec(n_workers=4).compute_lanes
        )

    def test_sublinear_scaling(self):
        # Efficiency decay: doubling workers yields < 2x lanes.
        four = ClusterSpec(n_workers=4).compute_lanes
        sixteen = ClusterSpec(n_workers=16).compute_lanes
        assert sixteen < 4 * four

    def test_minimum_one_lane(self):
        tiny = ClusterSpec(n_workers=1, cores_per_worker=1, parallel_efficiency=0.01)
        assert tiny.compute_lanes == 1


class TestScaledWorkers:
    def test_copy_semantics(self):
        scaled = PAPER_CLUSTER.scaled_workers(4)
        assert scaled.n_workers == 4
        assert PAPER_CLUSTER.n_workers == 8
        assert scaled.wan_bandwidth == PAPER_CLUSTER.wan_bandwidth


class TestAggregation:
    def test_single_worker_free(self):
        assert ClusterSpec(n_workers=1).aggregation_seconds(1e9) == 0.0

    def test_grows_with_workers(self):
        a = ClusterSpec(n_workers=4).aggregation_seconds(1e9)
        b = ClusterSpec(n_workers=16).aggregation_seconds(1e9)
        assert b > a > 0

    def test_nnz_bound_caps_traffic(self):
        spec = ClusterSpec(n_workers=8)
        unbounded = spec.aggregation_seconds(1e9)
        bounded = spec.aggregation_seconds(1e9, nnz_bytes=1e6)
        assert bounded < unbounded
        assert bounded == spec.aggregation_seconds(1e6)
