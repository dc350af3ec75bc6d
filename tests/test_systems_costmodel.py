"""Tests for the baseline system registry and cost models."""

import pytest

from repro.baselines.systems import SYSTEMS, get_system, simulate_plaintext_gbdt
from repro.bench.costmodel import CostModel
from repro.core.profile import analytic_trace
from repro.fed.cluster import PAPER_CLUSTER
from repro.gbdt.params import GBDTParams

PARAMS = GBDTParams(n_layers=5, n_bins=20)
TRACE = analytic_trace(500_000, 1000, [1000], 0.1, 20, 5, n_trees=1)


class TestRegistry:
    def test_all_papers_systems_present(self):
        assert set(SYSTEMS) == {
            "xgboost", "xgboost_b", "vf_mock", "vf_gbdt", "vf2boost",
            "secureboost", "fedlearner",
        }

    def test_unknown_system(self):
        with pytest.raises(KeyError):
            get_system("lightgbm")

    def test_non_federated_schedule_rejected(self):
        with pytest.raises(ValueError):
            get_system("xgboost").schedule(TRACE, PARAMS)
        # A plaintext system builds no protocol config: none is read.
        for name, spec in SYSTEMS.items():
            plaintext = name in ("xgboost", "xgboost_b")
            assert (spec.make_config is None) == plaintext
            assert spec.federated == (not plaintext)


class TestOrderings:
    """The paper's headline orderings must hold on any workload."""

    def test_speed_ordering(self):
        seconds = {
            name: get_system(name).seconds_per_tree(TRACE, PARAMS)
            for name in ("xgboost", "vf_mock", "vf_gbdt", "vf2boost", "secureboost")
        }
        # XGBoost < VF-MOCK < VF2Boost < VF-GBDT < SecureBoost.
        assert seconds["xgboost"] < seconds["vf_mock"]
        assert seconds["vf_mock"] < seconds["vf2boost"]
        assert seconds["vf2boost"] < seconds["vf_gbdt"]
        assert seconds["vf_gbdt"] < seconds["secureboost"]

    def test_fedlearner_between(self):
        single = PAPER_CLUSTER.scaled_workers(1)
        fate = get_system("secureboost").seconds_per_tree(TRACE, PARAMS, single)
        fedlearner = get_system("fedlearner").seconds_per_tree(TRACE, PARAMS, single)
        vf_gbdt = get_system("vf_gbdt").seconds_per_tree(TRACE, PARAMS, single)
        assert vf_gbdt < fedlearner < fate

    def test_competitor_multipliers(self):
        # On one machine the modeled competitors slow down by their
        # measured factors (12.11-12.85x and 8.61-9.20x in §6.3).
        single = PAPER_CLUSTER.scaled_workers(1)
        vf_gbdt = get_system("vf_gbdt").seconds_per_tree(TRACE, PARAMS, single)
        fate = get_system("secureboost").seconds_per_tree(TRACE, PARAMS, single)
        assert 8 < fate / vf_gbdt < 14


class TestPlaintextSimulation:
    def test_scales_with_work(self):
        small = simulate_plaintext_gbdt(
            analytic_trace(100_000, 100, [100], 1.0, 20, 5),
            PARAMS, CostModel.paper(), PAPER_CLUSTER,
        )
        large = simulate_plaintext_gbdt(
            analytic_trace(1_000_000, 100, [100], 1.0, 20, 5),
            PARAMS, CostModel.paper(), PAPER_CLUSTER,
        )
        assert large > small * 5


class TestCostModel:
    def test_paper_constants_positive(self):
        cost = CostModel.paper()
        assert cost.t_enc > cost.t_hadd
        assert cost.t_dec > cost.t_hadd
        assert cost.cipher_bytes == 512

    def test_scaled_multiplier(self):
        cost = CostModel.paper().scaled(10)
        assert cost.enc() == pytest.approx(CostModel.paper().enc() * 10)
        assert cost.t_enc == CostModel.paper().t_enc  # raw unchanged

    def test_naive_add_expectation(self):
        cost = CostModel.paper()
        assert cost.naive_add(1) == cost.hadd()
        assert cost.naive_add(6) == pytest.approx(
            cost.hadd() + (5 / 6) * cost.scale()
        )

    def test_fate_slower_than_fedlearner(self):
        assert (
            CostModel.fate_like().compute_multiplier
            > CostModel.fedlearner_like().compute_multiplier
        )

    def test_measured_model_sane(self):
        from repro.bench.calibrate import calibrate

        cost = CostModel.from_profile(calibrate(key_bits=256, samples=8))
        assert cost.t_enc > 0
        assert cost.t_dec > 0
        assert cost.t_hadd > 0
        assert cost.t_enc > cost.t_hadd  # exponentiation beats one multiply
        assert cost.cipher_bytes == 64
