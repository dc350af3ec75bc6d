"""Tests for fleet serving (repro.serve.fleet) and canary rollout
(repro.serve.canary): consistent-hash routing stability, global event
loop determinism, bit-parity with a single runtime, burn-rate load
shedding, and the canary promote/rollback state machine."""

import numpy as np
import pytest

from repro.core.config import VF2BoostConfig
from repro.core.trainer import FederatedTrainer
from repro.gbdt.binning import bin_dataset
from repro.gbdt.params import GBDTParams
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve.canary import CanaryConfig, CanaryController, golden_margins
from repro.serve.fleet import (
    FleetConfig,
    FleetRouter,
    ServingFleet,
    ShedPolicy,
)
from repro.serve.loadgen import LoadgenConfig, make_requests, run_open_loop
from repro.serve.registry import ModelRegistry
from repro.serve.session import ServeConfig, ServingRuntime
from repro.serve.slo import SLOPolicy


def _train(seed):
    rng = np.random.default_rng(seed)
    n, d = 220, 8
    features = rng.normal(size=(n, d))
    labels = ((features @ rng.normal(size=d)) > 0).astype(float)
    params = GBDTParams(n_trees=3, n_layers=4, n_bins=8)
    full = bin_dataset(features, params.n_bins)
    parties = [
        full.subset_features(np.arange(4, 8)),  # Party B (active)
        full.subset_features(np.arange(0, 4)),  # Party A (passive)
    ]
    config = VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
    result = FederatedTrainer(config).fit(parties, labels)
    return result.model, parties


@pytest.fixture(scope="module")
def trained():
    return _train(23)


@pytest.fixture(scope="module")
def trained_other():
    # A second model over the same feature split — the "bad" canary.
    return _train(29)


def _make_registry(model, parties):
    registry = ModelRegistry()
    registry.register(
        "v1",
        model,
        bin_edges={k: p.cut_points for k, p in enumerate(parties)},
        calibration_codes={k: p.codes for k, p in enumerate(parties)},
    )
    registry.activate("v1")
    return registry


def _feature_dims(parties):
    return {k: p.n_features for k, p in enumerate(parties)}


def _load(parties, **overrides):
    kwargs = dict(
        n_requests=96,
        feature_dims=_feature_dims(parties),
        seed=11,
        mode="open",
        rate=400.0,
        n_sessions=12,
        session_skew=1.0,
    )
    kwargs.update(overrides)
    return LoadgenConfig(**kwargs)


class TestRouter:
    def test_routing_is_deterministic_and_seeded(self):
        a = FleetRouter(4, seed=3)
        b = FleetRouter(4, seed=3)
        c = FleetRouter(4, seed=4)
        keys = list(range(500))
        assert [a.route(k) for k in keys] == [b.route(k) for k in keys]
        assert [a.route(k) for k in keys] != [c.route(k) for k in keys]

    def test_all_replicas_receive_traffic(self):
        router = FleetRouter(4, seed=0)
        owners = {router.route(k) for k in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_add_moves_at_most_k_over_n_sessions(self):
        router = FleetRouter(4, seed=0)
        keys = list(range(1000))
        before = {k: router.route(k) for k in keys}
        router.add(4)
        after = {k: router.route(k) for k in keys}
        moved = [k for k in keys if before[k] != after[k]]
        # Consistent hashing: every moved key moves TO the new replica,
        # and in expectation only K/N of them move at all.
        assert all(after[k] == 4 for k in moved)
        assert 0 < len(moved) <= len(keys) // 4

    def test_remove_then_readd_restores_mapping(self):
        router = FleetRouter(3, seed=5)
        keys = list(range(300))
        before = {k: router.route(k) for k in keys}
        router.remove(1)
        assert all(router.route(k) != 1 for k in keys)
        router.add(1)
        assert {k: router.route(k) for k in keys} == before

    def test_membership_errors(self):
        router = FleetRouter(2, seed=0)
        with pytest.raises(ValueError, match="already on the ring"):
            router.add(1)
        with pytest.raises(ValueError, match="not on the ring"):
            router.remove(7)
        assert router.members() == [0, 1]

    def test_empty_ring_refuses_routing(self):
        router = FleetRouter(1, seed=0)
        router.remove(0)
        with pytest.raises(LookupError, match="ring is empty"):
            router.route(0)


class TestPolicies:
    def test_shed_policy_validation(self):
        with pytest.raises(ValueError):
            ShedPolicy(burn_threshold=0.0)
        with pytest.raises(ValueError):
            ShedPolicy(min_window=0)

    def test_fleet_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(n_replicas=0)
        with pytest.raises(ValueError):
            FleetConfig(vnodes=0)


class TestFleetParity:
    def test_fleet_margins_bit_identical_to_single_runtime(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        requests = make_requests(_load(parties))

        single = ServingRuntime(registry)
        baseline = {
            o.request_id: o for o in run_open_loop(single, requests)
        }

        fleet = ServingFleet(
            registry, FleetConfig(n_replicas=3, seed=1, shed=None)
        )
        for request in requests:
            fleet.submit(request)
        completions = fleet.run()

        assert len(completions) == len(requests)
        for outcome in completions:
            reference = baseline[outcome.request_id]
            assert not outcome.shed
            assert np.array_equal(outcome.margins, reference.margins)
            assert np.array_equal(
                outcome.probabilities, reference.probabilities
            )

    def test_sessions_stick_to_one_replica(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        requests = make_requests(_load(parties))
        fleet = ServingFleet(
            registry, FleetConfig(n_replicas=3, seed=1, shed=None)
        )
        by_session = {}
        for request in requests:
            replica = fleet.router.route(request.session_key())
            by_session.setdefault(request.session_id, set()).add(replica)
        assert all(len(replicas) == 1 for replicas in by_session.values())

    def test_two_runs_are_byte_identical(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        requests = make_requests(_load(parties))

        def run_once():
            fleet = ServingFleet(registry, FleetConfig(n_replicas=2, seed=9))
            for request in requests:
                fleet.submit(request)
            return fleet.run()

        first, second = run_once(), run_once()
        assert [o.request_id for o in first] == [o.request_id for o in second]
        assert [o.finished for o in first] == [o.finished for o in second]
        assert all(
            np.array_equal(a.margins, b.margins)
            for a, b in zip(first, second)
        )

    def test_replica_tracks_are_prefixed(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        tracer = Tracer()
        fleet = ServingFleet(
            registry,
            FleetConfig(n_replicas=2, seed=1, shed=None),
            tracer=tracer,
        )
        for request in make_requests(_load(parties, n_requests=24)):
            fleet.submit(request)
        fleet.run()
        tracks = {span.track for span in tracer.spans}
        assert any(track.startswith("replica0.") for track in tracks)
        assert any(track.startswith("replica1.") for track in tracks)
        assert not any(track == "requests" for track in tracks)


class TestShedding:
    def _overloaded_fleet(self, registry, n_replicas=1):
        # 20 req/s of admission capacity per replica vs. a sustained
        # 3x overload trace at a nominal 20 req/s offered (60 req/s).
        # The slow nominal rate stretches arrivals over seconds so
        # completion feedback lands while the overload is still
        # arriving — shedding needs breach evidence in the window.
        return ServingFleet(
            registry,
            FleetConfig(
                n_replicas=n_replicas,
                seed=2,
                shed=ShedPolicy(burn_threshold=1.0, min_window=4),
                slo=SLOPolicy(
                    latency_slo=0.15,
                    window=8,
                    error_budget=0.5,
                    burn_alert=4.0,
                ),
            ),
            serve_config=ServeConfig(admission_cost=0.05, max_queue=4096),
        )

    def test_overload_sheds_and_counts(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        requests = make_requests(
            _load(parties, n_requests=200, rate=20.0, trace="overload")
        )
        fleet = self._overloaded_fleet(registry)
        for request in requests:
            fleet.submit(request)
        completions = fleet.run()

        shed = [o for o in completions if o.shed]
        served = [o for o in completions if not o.rejected]
        assert shed, "sustained overload must trigger shedding"
        assert len(shed) + len(served) == len(requests)
        counters = fleet.metrics.counters("fleet.")
        assert counters["shed"] == len(shed)
        assert counters["routed"] == len(served)
        assert counters["completed"] == len(served)
        # Shed outcomes are rejections with no fabricated prediction.
        assert all(o.rejected and o.margins.size == 0 for o in shed)
        assert fleet.summary()["shed"] == len(shed)
        # Built without a log, the fleet records every shed in its own.
        assert [
            e.payload["request_id"]
            for e in fleet.event_log.filter("serve.fleet", "shed")
        ] == [o.request_id for o in shed]

    def test_replicas_built_without_a_log_share_one(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        fleet = self._overloaded_fleet(registry, n_replicas=2)
        for request in make_requests(
            _load(parties, n_requests=200, rate=20.0, trace="overload")
        ):
            fleet.submit(request)
        fleet.run()
        log = fleet.event_log
        assert all(watcher.event_log is log for watcher in fleet.watchers)
        events = log.events()
        assert {e.labels["replica"] for e in events} == {0, 1}
        # One global order across replicas: seq and the simulated clock
        # both follow the fleet's event loop.
        assert [e.seq for e in events] == list(range(len(events)))
        assert [e.time for e in events] == sorted(e.time for e in events)
        # Each watcher's exact tally is its share of the shared log.
        for i, watcher in enumerate(fleet.watchers):
            for kind, count in watcher.summary()["events"].items():
                mine = [
                    e for e in log.filter("serve.slo", kind)
                    if e.labels["replica"] == i
                ]
                assert len(mine) == count
        assert len(log.filter("serve.fleet", "shed")) == fleet.summary()["shed"]

    def test_more_replicas_shed_less(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        requests = make_requests(
            _load(parties, n_requests=200, rate=20.0, trace="overload")
        )

        def shed_count(n_replicas):
            fleet = self._overloaded_fleet(registry, n_replicas)
            for request in requests:
                fleet.submit(request)
            fleet.run()
            return fleet.metrics.get("fleet.shed")

        assert shed_count(4) < shed_count(1)

    def test_shedding_disabled_serves_everything(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        requests = make_requests(
            _load(parties, n_requests=64, rate=20.0, trace="overload")
        )
        fleet = ServingFleet(
            registry,
            FleetConfig(n_replicas=1, seed=2, shed=None),
            serve_config=ServeConfig(admission_cost=0.05, max_queue=4096),
        )
        for request in requests:
            fleet.submit(request)
        completions = fleet.run()
        assert len(completions) == len(requests)
        assert not any(o.shed for o in completions)


class TestFleetMetrics:
    def test_rollup_lands_in_shared_registry(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        shared = MetricsRegistry()
        fleet = ServingFleet(
            registry,
            FleetConfig(n_replicas=2, seed=1, shed=None),
            metrics_registry=shared,
        )
        for request in make_requests(_load(parties, n_requests=48)):
            fleet.submit(request)
        fleet.run()
        snapshot = shared.snapshot()
        assert snapshot["counters"]["fleet.routed"] == 48
        assert snapshot["counters"]["fleet.completed"] == 48
        assert "fleet.p99_max" in snapshot["gauges"]
        assert "fleet.replica0.burn_rate" in snapshot["gauges"]
        # Per-replica routed counters partition the total.
        per_replica = sum(
            snapshot["counters"].get(f"fleet.replica{i}.routed", 0)
            for i in range(2)
        )
        assert per_replica == 48
        # Replica runtimes keep private serve.* sinks: no collision.
        assert not any(
            name.startswith("serve.") for name in snapshot["counters"]
        )


class TestCanary:
    def test_identical_model_auto_promotes(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        registry.register(
            "v2", model, {k: p.cut_points for k, p in enumerate(parties)}
        )
        controller = CanaryController(
            registry,
            CanaryConfig(
                candidate="v2",
                traffic_fraction=0.5,
                decision_after=10,
                seed=3,
            ),
        )
        fleet = ServingFleet(
            registry,
            FleetConfig(n_replicas=2, seed=3, shed=None),
            canary=controller,
        )
        for request in make_requests(_load(parties)):
            fleet.submit(request)
        fleet.run()
        assert controller.state == "promoted"
        assert controller.mismatches == 0
        assert registry.active().version == "v2"
        assert controller.canary_served >= 10

    def test_bad_canary_rolls_back_with_zero_promoted_traffic(
        self, trained, trained_other
    ):
        model, parties = trained
        bad_model, bad_parties = trained_other
        registry = _make_registry(model, parties)
        registry.register(
            "v2-bad",
            bad_model,
            {k: p.cut_points for k, p in enumerate(bad_parties)},
        )
        controller = CanaryController(
            registry,
            CanaryConfig(
                candidate="v2-bad",
                traffic_fraction=0.5,
                decision_after=50,
                seed=3,
            ),
        )
        fleet = ServingFleet(
            registry,
            FleetConfig(n_replicas=2, seed=3, shed=None),
            canary=controller,
        )
        for request in make_requests(_load(parties)):
            fleet.submit(request)
        completions = fleet.run()

        assert controller.state == "rolled_back"
        assert controller.mismatches == 1
        # The hot-swap pointer never left the incumbent: zero promoted
        # traffic. Candidate-served completions are exactly the canary
        # slice's in-flight requests admitted before the rollback fired
        # — never a non-slice session, never a post-rollback admission.
        assert registry.active().version == "v1"
        by_id = {r.request_id: r for r in make_requests(_load(parties))}
        candidate_served = [
            o for o in completions if o.version == "v2-bad"
        ]
        assert candidate_served
        assert all(
            controller._in_slice(by_id[o.request_id].session_key())
            for o in candidate_served
        )
        rollback_time = controller.event_log.filter(
            "serve.canary", "rolled_back"
        )[0].time
        assert all(o.admitted <= rollback_time for o in candidate_served)

    def test_banded_mode_promotes_comparable_model(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        registry.register(
            "v2", model, {k: p.cut_points for k, p in enumerate(parties)}
        )
        controller = CanaryController(
            registry,
            CanaryConfig(
                candidate="v2",
                traffic_fraction=0.5,
                decision_after=10,
                seed=3,
                expect_identical=False,
                p99_band=2.0,
                min_baseline=5,
            ),
        )
        fleet = ServingFleet(
            registry,
            FleetConfig(n_replicas=2, seed=3, shed=None),
            canary=controller,
        )
        for request in make_requests(_load(parties)):
            fleet.submit(request)
        fleet.run()
        assert controller.state == "promoted"
        assert registry.active().version == "v2"

    def test_candidate_must_differ_from_active(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        with pytest.raises(ValueError, match="already the active version"):
            CanaryController(registry, CanaryConfig(candidate="v1"))

    def test_golden_margins_match_serving_runtime(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        requests = make_requests(_load(parties, n_requests=16))
        runtime = ServingRuntime(registry)
        outcomes = run_open_loop(runtime, requests)
        version = registry.active()
        by_id = {r.request_id: r for r in requests}
        for outcome in outcomes:
            golden = golden_margins(version, by_id[outcome.request_id].rows)
            assert np.array_equal(outcome.margins, golden)

    def test_slice_is_deterministic(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        registry.register(
            "v2", model, {k: p.cut_points for k, p in enumerate(parties)}
        )
        config = CanaryConfig(candidate="v2", traffic_fraction=0.3, seed=5)
        a = CanaryController(registry, config)
        b = CanaryController(registry, config)
        keys = list(range(200))
        assert [a._in_slice(k) for k in keys] == [b._in_slice(k) for k in keys]
        fraction = sum(a._in_slice(k) for k in keys) / len(keys)
        assert 0.15 < fraction < 0.45
