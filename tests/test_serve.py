"""Tests for the online serving subsystem (repro.serve)."""

import json
import os

import numpy as np
import pytest

from repro.core.config import VF2BoostConfig
from repro.core.inference import FederatedPredictor
from repro.core.serialization import (
    ModelFormatError,
    load_model,
    model_from_payloads,
    model_to_payloads,
    save_model,
)
from repro.core.trainer import FederatedTrainer
from repro.fed.cluster import ClusterSpec
from repro.gbdt.binning import bin_dataset
from repro.gbdt.loss import sigmoid
from repro.gbdt.params import GBDTParams
from repro.serve import bench as serve_bench
from repro.serve.batcher import MicroBatcher, RouteWork
from repro.serve.loadgen import (
    LoadgenConfig,
    make_party_delay,
    make_requests,
    run_closed_loop,
    run_open_loop,
)
from repro.obs.metrics import Histogram, nearest_rank
from repro.serve.registry import ModelRegistry, majority_directions
from repro.fed.retry import RetryPolicy
from repro.serve.session import Request, ServeConfig, ServingRuntime


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(23)
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


COMMITTED_BENCH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "BENCH_serve.json"
)


def _key_structure(value):
    """Recursive key skeleton of a JSON value; a list is summarized by
    the union of its items' skeletons so its length does not matter."""
    if isinstance(value, dict):
        return {key: _key_structure(item) for key, item in value.items()}
    if isinstance(value, list):
        merged: dict = {}
        for item in value:
            skeleton = _key_structure(item)
            if isinstance(skeleton, dict):
                merged.update(skeleton)
        return [merged]
    return None


class TestRegistry:
    def test_duplicate_version_rejected(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(
                "v1", model, {k: p.cut_points for k, p in enumerate(parties)}
            )

    def test_missing_bin_edges_rejected(self, trained):
        model, parties = trained
        registry = ModelRegistry()
        # Party 1 owns passive splits but gets no edges.
        with pytest.raises(ModelFormatError, match="bin edges"):
            registry.register("v1", model, {0: parties[0].cut_points})

    def test_skeleton_without_sidecar_rejected(self, trained):
        model, parties = trained
        payloads = model_to_payloads(model)
        skeleton_only = model_from_payloads(payloads["shared"], {})
        registry = ModelRegistry()
        with pytest.raises(ModelFormatError, match="sidecar not applied"):
            registry.register(
                "v1",
                skeleton_only,
                {k: p.cut_points for k, p in enumerate(parties)},
            )

    def test_hot_swap_and_rollback(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        registry.register(
            "v2", model, {k: p.cut_points for k, p in enumerate(parties)}
        )
        assert registry.active().version == "v1"
        registry.activate("v2")
        assert registry.active().version == "v2"
        assert registry.versions() == ["v1", "v2"]
        assert registry.rollback().version == "v1"
        with pytest.raises(LookupError):
            registry.rollback()  # nothing earlier than v1

    def test_register_from_files(self, trained, tmp_path):
        model, parties = trained
        files = save_model(
            model, str(tmp_path / "shared.json"), str(tmp_path / "private")
        )
        registry = ModelRegistry()
        entry = registry.register_from_files(
            "v1",
            files[0],
            files[1:],
            bin_edges={k: p.cut_points for k, p in enumerate(parties)},
        )
        codes = {k: p.codes for k, p in enumerate(parties)}
        assert np.array_equal(
            entry.model.predict_margin(codes), model.predict_margin(codes)
        )

    def test_register_from_files_missing_sidecar(self, trained, tmp_path):
        model, parties = trained
        files = save_model(
            model, str(tmp_path / "shared.json"), str(tmp_path / "private")
        )
        # Drop every passive sidecar: registration must fail, naming
        # the missing owner.
        keep = [f for f in files[1:] if f.endswith("party0.json")]
        registry = ModelRegistry()
        with pytest.raises(ModelFormatError, match="sidecar"):
            registry.register_from_files(
                "v1",
                files[0],
                keep,
                bin_edges={k: p.cut_points for k, p in enumerate(parties)},
            )


class TestSerializationErrors:
    def test_format_version_mismatch(self, trained, tmp_path):
        model, _ = trained
        files = save_model(
            model, str(tmp_path / "shared.json"), str(tmp_path / "private")
        )
        payload = json.loads(open(files[0]).read())
        payload["format_version"] = 999
        with open(files[0], "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(ModelFormatError, match="format version"):
            load_model(files[0], files[1:])

    def test_missing_owner_sidecar_named(self, trained, tmp_path):
        model, _ = trained
        files = save_model(
            model, str(tmp_path / "shared.json"), str(tmp_path / "private")
        )
        keep = [f for f in files[1:] if f.endswith("party0.json")]
        with pytest.raises(ModelFormatError, match=r"\b1\b"):
            load_model(files[0], keep, require_complete=True)
        # Without the completeness requirement a partial load is legal
        # (a party inspecting its own sidecar).
        load_model(files[0], keep)

    def test_model_format_error_is_value_error(self):
        assert issubclass(ModelFormatError, ValueError)


class TestMicroBatcher:
    def _work(self, request_id=0):
        rows = np.arange(2)
        return RouteWork(
            request_id=request_id,
            tree_index=0,
            node_id=1,
            rows=rows,
            instance_ids=rows,
        )

    def test_size_triggered_flush(self):
        batcher = MicroBatcher(max_batch_size=3, max_delay=1.0)
        assert batcher.add(1, self._work(0), now=0.0)[0] == "timer"
        assert batcher.add(1, self._work(1), now=0.0) is None
        verdict = batcher.add(1, self._work(2), now=0.0)
        assert verdict[0] == "flush"
        assert [w.request_id for w in verdict[1]] == [0, 1, 2]
        assert batcher.pending(1) == 0

    def test_stale_timer_ignored(self):
        batcher = MicroBatcher(max_batch_size=2, max_delay=1.0)
        kind, _, generation = batcher.add(1, self._work(0), now=0.0)
        assert kind == "timer"
        batcher.add(1, self._work(1), now=0.0)  # size flush drains
        assert batcher.on_timer(1, generation) is None

    def test_timer_flush_drains(self):
        batcher = MicroBatcher(max_batch_size=10, max_delay=0.5)
        kind, deadline, generation = batcher.add(1, self._work(0), now=2.0)
        assert kind == "timer" and deadline == 2.5
        items = batcher.on_timer(1, generation)
        assert [w.request_id for w in items] == [0]
        assert batcher.on_timer(1, generation) is None

    def test_parties_batched_independently(self):
        batcher = MicroBatcher(max_batch_size=2, max_delay=1.0)
        batcher.add(1, self._work(0), now=0.0)
        batcher.add(2, self._work(1), now=0.0)
        assert batcher.pending(1) == 1 and batcher.pending(2) == 1
        assert batcher.add(1, self._work(2), now=0.0)[0] == "flush"
        assert batcher.pending(2) == 1
        assert [w.request_id for w in batcher.force_flush(2)] == [1]


class TestRuntimeParity:
    def _run(self, trained, config=None, **load_kwargs):
        model, parties = trained
        registry = _make_registry(model, parties)
        runtime = ServingRuntime(
            registry, cluster=ClusterSpec(), config=config or ServeConfig()
        )
        load = LoadgenConfig(
            n_requests=load_kwargs.pop("n_requests", 24),
            feature_dims=_feature_dims(parties),
            seed=load_kwargs.pop("seed", 5),
            **load_kwargs,
        )
        requests = make_requests(load)
        outcomes = run_closed_loop(
            runtime, requests, load_kwargs.get("concurrency", 8)
        )
        return registry.active(), requests, outcomes, runtime

    def _reference_margins(self, version, request):
        codes = {
            party: version.bin_rows(party, block)
            for party, block in sorted(request.rows.items())
        }
        offline = FederatedPredictor(version.model, codes, key_bits=256)
        return offline.predict_margin(), version.model.predict_margin(codes)

    def test_batched_margins_bit_identical(self, trained):
        version, requests, outcomes, _ = self._run(trained)
        by_id = {r.request_id: r for r in requests}
        assert len(outcomes) == len(requests)
        for outcome in outcomes:
            assert not outcome.degraded
            offline, centralized = self._reference_margins(
                version, by_id[outcome.request_id]
            )
            assert np.array_equal(outcome.margins, offline)
            assert np.array_equal(outcome.margins, centralized)
            assert np.array_equal(outcome.probabilities, sigmoid(outcome.margins))

    def test_cached_margins_bit_identical(self, trained):
        version, requests, outcomes, runtime = self._run(
            trained, n_requests=30, duplicate_fraction=0.5, concurrency=1
        )
        snapshot = runtime.snapshot()
        assert snapshot["counters"]["cache_hits"] > 0
        by_id = {r.request_id: r for r in requests}
        hits = 0
        for outcome in outcomes:
            hits += outcome.cache_hits
            offline, centralized = self._reference_margins(
                version, by_id[outcome.request_id]
            )
            assert np.array_equal(outcome.margins, offline)
            assert np.array_equal(outcome.margins, centralized)
        assert hits == snapshot["counters"]["cache_hits"]

    def test_degraded_off_late_answers_stay_exact(self, trained):
        # With degraded routing disabled, a slow party's answers arrive
        # late but are still exact: parity must hold bit-for-bit.
        model, parties = trained
        registry = _make_registry(model, parties)
        load = LoadgenConfig(
            n_requests=12,
            feature_dims=_feature_dims(parties),
            seed=11,
            slow_party=1,
            slow_probability=0.6,
            slow_delay=1.0,
        )
        runtime = ServingRuntime(
            registry,
            cluster=ClusterSpec(),
            config=ServeConfig(degraded_enabled=False, deadline=60.0),
            retry=RetryPolicy(timeout=0.25),
            party_delay=make_party_delay(load),
        )
        requests = make_requests(load)
        outcomes = run_closed_loop(runtime, requests, 4)
        by_id = {r.request_id: r for r in requests}
        version = registry.active()
        assert len(outcomes) == len(requests)
        for outcome in outcomes:
            assert not outcome.degraded
            codes = {
                party: version.bin_rows(party, block)
                for party, block in sorted(by_id[outcome.request_id].rows.items())
            }
            assert np.array_equal(
                outcome.margins, version.model.predict_margin(codes)
            )

    def test_open_loop_completes(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        runtime = ServingRuntime(registry, cluster=ClusterSpec())
        load = LoadgenConfig(
            n_requests=16,
            feature_dims=_feature_dims(parties),
            seed=3,
            mode="open",
            rate=500.0,
        )
        outcomes = run_open_loop(runtime, make_requests(load))
        assert len(outcomes) == 16
        assert all(o.finished >= o.admitted for o in outcomes)


class TestDegradedMode:
    def test_degraded_requests_flagged_and_counted(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        load = LoadgenConfig(
            n_requests=32,
            feature_dims=_feature_dims(parties),
            seed=104,
            slow_party=1,
            slow_probability=0.6,
            slow_delay=1.0,
        )
        runtime = ServingRuntime(
            registry,
            cluster=ClusterSpec(),
            retry=RetryPolicy(timeout=0.25, max_retries=2),
            party_delay=make_party_delay(load),
        )
        outcomes = run_closed_loop(runtime, make_requests(load), 8)
        degraded = [o for o in outcomes if o.degraded]
        healthy = [o for o in outcomes if not o.degraded]
        assert degraded, "fault injection produced no degraded requests"
        assert healthy, "every request degraded; scenario too aggressive"
        assert all(o.degraded_rows > 0 for o in degraded)
        snapshot = runtime.snapshot()
        assert snapshot["counters"]["degraded_requests"] == len(degraded)
        assert snapshot["counters"]["timeouts"] > 0
        assert snapshot["rates"]["degraded_rate"] > 0
        # Degraded margins are still finite, sane predictions.
        for outcome in degraded:
            assert np.all(np.isfinite(outcome.margins))

    def test_majority_directions_match_calibration(self, trained):
        model, parties = trained
        codes = {k: p.codes for k, p in enumerate(parties)}
        directions = majority_directions(model, codes)
        for (t, node_id), goes_left in directions.items():
            node = model.trees[t].nodes[node_id]
            assert node.owner != 0
            column = codes[node.owner][:, node.feature]
            left = int((column <= node.bin_index).sum())
            assert goes_left == (left * 2 >= column.size)

    def test_retry_backoff_monotone(self):
        policy = RetryPolicy(timeout=0.2, max_retries=3)
        waits = [policy.backoff(a) for a in range(1, 4)]
        assert waits == sorted(waits)
        assert policy.worst_case_wait() >= policy.timeout


class TestOfflineCoalescing:
    def test_coalesced_fewer_round_trips_same_margins(self, trained):
        model, parties = trained
        codes = {k: p.codes for k, p in enumerate(parties)}
        batched = FederatedPredictor(model, codes, key_bits=256, coalesce=True)
        naive = FederatedPredictor(model, codes, key_bits=256, coalesce=False)
        margins_batched = batched.predict_margin()
        margins_naive = naive.predict_margin()
        assert np.array_equal(margins_batched, margins_naive)
        passive_splits = model.split_counts_by_owner().get(1, 0)
        assert passive_splits > 1
        assert naive.round_trips >= passive_splits
        assert batched.round_trips < naive.round_trips
        # One round trip per (owner, layer) with remote work, at most.
        assert batched.round_trips <= len(model.trees) * 4
        assert batched.bytes_on_wire > 0
        assert naive.bytes_on_wire > 0


class TestMetrics:
    def test_histogram_quantiles(self):
        hist = Histogram(bounds=(0.1, 1.0, 10.0))
        for value in [0.05, 0.5, 0.5, 2.0, 20.0]:
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["max"] == 20.0
        assert snap["p50"] == 0.5
        assert hist.quantile(0.0) == 0.05
        assert hist.quantile(1.0) == 20.0
        assert abs(snap["mean"] - (23.05 / 5)) < 1e-12

    def test_nearest_rank_is_the_ceil_qn_th_smallest(self):
        assert nearest_rank([], 0.99) == 0.0
        values = [float(v) for v in range(400, 0, -1)]  # unsorted input
        # n a multiple of 100: rank ceil(0.99 n) = 396, not 397.
        assert nearest_rank(values, 0.99) == 396.0
        assert nearest_rank(values, 0.50) == 200.0  # lower median, even n
        assert nearest_rank(iter(values[:48]), 0.99) == 400.0
        hist = Histogram()
        for value in values:
            hist.observe(value)
        assert hist.quantile(0.99) == nearest_rank(values, 0.99)

    def test_snapshot_shape(self, trained):
        # Golden for the fixed-seed runtime of TestRuntimeParity:
        # snapshot() is a view of the runtime's registry and the
        # channel ledger, so none of it may move.
        model, parties = trained
        runtime = ServingRuntime(
            _make_registry(model, parties), cluster=ClusterSpec()
        )
        load = LoadgenConfig(
            n_requests=24, feature_dims=_feature_dims(parties), seed=5
        )
        run_closed_loop(runtime, make_requests(load), 8)

        def counts(**occupied):
            bounds = (1, 2, 4, 8, 16, 32, 64, 128, 256)
            buckets = {f"le_{b}": occupied.get(f"le_{b}", 0) for b in bounds}
            return {**buckets, "overflow": 0}

        batches = {
            "count": 5, "mean": 19.6, "p50": 20.0, "p95": 24.0, "p99": 24.0,
            "max": 24.0, "buckets": counts(le_16=2, le_32=3),
        }
        assert runtime.snapshot() == {
            "counters": {
                "cache_lookups": 24, "completed": 24, "predictions": 24,
                "requests": 24, "round_trips": 5,
            },
            "rates": {
                "cache_hit_rate": 0.0, "degraded_rate": 0.0,
                "rejection_rate": 0.0,
            },
            "per_1k_predictions": {
                "round_trips": 208.33333333333334,
                "wire_bytes": 125083.33333333333,
            },
            "wire_bytes": 3002,
            "latency": {
                "count": 24, "mean": 0.07131518105555555, "p50": 0.0900348,
                "p95": 0.09013869133333333, "p99": 0.09013869333333333,
                "max": 0.09013869333333333,
                "buckets": {
                    "le_0.01": 0, "le_0.025": 0, "le_0.05": 10, "le_0.1": 14,
                    "le_0.25": 0, "le_0.5": 0, "le_1": 0, "le_2.5": 0,
                    "le_5": 0, "overflow": 0,
                },
            },
            "batch_occupancy": batches,
            "batch_rows": batches,
            "queue_depth": {
                "count": 24, "mean": 4.5, "p50": 5.0, "p95": 7.0, "p99": 7.0,
                "max": 7.0, "buckets": counts(le_1=2, le_2=1, le_4=8, le_8=13),
            },
        }
        assert runtime.snapshot()["wire_bytes"] == runtime.channel.total_bytes()
        # Counters live in the registry under serve.*; wire bytes and
        # messages live in the channel ledger and are not mirrored.
        registry = runtime.metrics.snapshot()
        assert registry["counters"]["serve.requests"] == 24
        assert registry["gauges"] == {}
        assert not any(
            name.startswith("channel.") for name in registry["counters"]
        )


class TestAdmission:
    def test_queue_overflow_rejects(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        runtime = ServingRuntime(
            registry,
            cluster=ClusterSpec(),
            config=ServeConfig(max_queue=4),
        )
        load = LoadgenConfig(
            n_requests=24, feature_dims=_feature_dims(parties), seed=9
        )
        outcomes = run_open_loop(runtime, make_requests(load))
        rejected = [o for o in outcomes if o.rejected]
        assert rejected
        assert runtime.snapshot()["counters"]["rejected"] == len(rejected)

    def test_bad_row_shape_rejected(self, trained):
        model, parties = trained
        registry = _make_registry(model, parties)
        version = registry.active()
        with pytest.raises(ValueError, match="2-D"):
            version.bin_rows(0, np.zeros(4))


class TestBenchSmoke:
    def test_smoke_meets_acceptance(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        assert serve_bench.main(["--smoke", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["parity"]["margins_bit_identical"]
        assert report["config"]["concurrency"] >= 16
        assert report["ratios"]["round_trip_reduction"] >= 5.0
        assert report["degraded_scenario"]["degraded_requests"] > 0
        assert report["batched"]["snapshot"]["counters"]["requests"] > 0
        # The committed full-run report must not go stale: same
        # recursive key structure as a fresh run (list lengths aside).
        with open(COMMITTED_BENCH) as handle:
            assert _key_structure(json.load(handle)) == _key_structure(report)

    def test_smoke_emits_obs_artifacts(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        trace_out = tmp_path / "serve.trace.json"
        report_out = tmp_path / "serve.report.json"
        rc = serve_bench.main(
            [
                "--smoke",
                "--out", str(out),
                "--trace-out", str(trace_out),
                "--report-out", str(report_out),
            ]
        )
        assert rc == 0
        trace = json.loads(trace_out.read_text())
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert events
        run_report = json.loads(report_out.read_text())
        assert run_report["kind"] == "serve"
        assert run_report["channels"]["total_messages"] > 0
        # The trace and the report must agree on per-phase totals.
        by_cat: dict = {}
        for event in events:
            by_cat[event["cat"]] = by_cat.get(event["cat"], 0.0) + event["dur"]
        for phase, seconds in run_report["phases"].items():
            assert by_cat[phase] / 1_000_000 == pytest.approx(
                seconds, abs=1e-5
            )
