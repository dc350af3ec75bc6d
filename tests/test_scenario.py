"""Tier-1 tests for the fixed workloads (:mod:`repro.bench.scenario`)
and for the tie between the perf-DB scenarios and the committed
``BENCH_perf.json``."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.bench.perfdb import (
    PerfDB,
    counted_scenario,
    faults_scenario,
    serve_fleet_scenario,
)
from repro.bench.scenario import GOLDEN, GOLDEN_DIMS, PERF
from repro.core.config import VF2BoostConfig

REPO = Path(__file__).parent.parent


class TestCommittedBaselines:
    """Each scenario reproduces the newest committed entry of its series.

    ``test_perf_gate.py`` and ``test_faults.py`` check that two runs
    agree with each other; this is the one place a run is held against
    the database the ``bench-gate`` CI step gates on.
    """

    @pytest.mark.parametrize(
        "scenario", [counted_scenario, faults_scenario, serve_fleet_scenario]
    )
    def test_exact_scalars_equal_newest_entry(self, scenario):
        entry = scenario()
        committed = PerfDB.load(REPO / "BENCH_perf.json").history(entry.name)[-1]

        def exact(scalars):
            return {
                key: scalar.value
                for key, scalar in scalars.items()
                if scalar.kind == "exact"
            }

        assert exact(entry.scalars) == exact(committed.scalars)
        assert sorted(entry.scalars) == sorted(committed.scalars)


class TestScenario:
    def test_golden_parties_bit_identical_to_pr20(self):
        """Codes, cut points and labels of ``GOLDEN.parties()``, pinned by
        the SHA-256 ``obs.golden._golden_dataset()`` had at PR 20."""
        parties, labels = GOLDEN.parties()
        digest = hashlib.sha256()
        for party in parties:
            digest.update(np.ascontiguousarray(party.codes).tobytes())
            for cuts in party.cut_points:
                digest.update(np.ascontiguousarray(cuts).tobytes())
        digest.update(np.ascontiguousarray(labels).tobytes())
        assert digest.hexdigest() == (
            "4eb243f2eb5ccd876a035eba9979066ad550b64c074f4356c5609056c5502b92"
        )

    def test_active_party_holds_the_first_half(self):
        parties, labels = PERF.parties()
        assert [party.n_features for party in parties] == [2, 2]
        assert labels.shape == (PERF.n_instances,)
        trace = PERF.analytic_trace()
        assert trace.n_instances == PERF.n_instances
        assert trace.active_shape.n_features == parties[0].n_features
        assert len(trace.trees) == PERF.n_trees

    def test_config_carries_the_crypto_fields_and_takes_overrides(self):
        config = GOLDEN.config("vf_gbdt", crypto_mode="real")
        assert (config.key_bits, config.blaster_batch_size, config.seed) == (
            256, 16, 20210614,
        )
        assert config.params == GOLDEN.params()
        assert config.crypto_mode == "real" and not config.histogram_packing
        assert GOLDEN.config(key_bits=512).key_bits == 512

    def test_dimension_only_scenario_is_a_bare_config(self):
        assert GOLDEN_DIMS.dims() == GOLDEN.dims()
        assert GOLDEN_DIMS.config() == VF2BoostConfig.vf2boost(
            params=GOLDEN.params()
        )
        assert set(GOLDEN.to_dict()) - set(GOLDEN.dims()) == {
            "key_bits", "blaster_batch_size", "seed",
        }
