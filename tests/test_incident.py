"""Tests for incident post-mortem bundles (repro.obs.incident) and the
``repro incidents`` / ``repro events`` CLIs: bundle round-trips and
fingerprints, store naming, diffs, byte-identical bundles from a
crash-and-resume training rerun and a bad-canary serve rerun, and the
tier-1 ``--smoke`` wiring."""

import json

import numpy as np
import pytest

from repro.cli import _synthetic_parties, main
from repro.core.config import VF2BoostConfig
from repro.core.trainer import FederatedTrainer
from repro.fed.faults import FaultPlan
from repro.fed.retry import RetryPolicy
from repro.gbdt.binning import bin_dataset
from repro.gbdt.params import GBDTParams
from repro.obs.events import EventLog
from repro.obs.incident import (
    BUNDLE_VERSION,
    IncidentBundle,
    IncidentStore,
    TRIGGERS,
    diff_bundles,
    snapshot_incident,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.canary import CanaryConfig, CanaryController
from repro.serve.fleet import FleetConfig, ServingFleet
from repro.serve.loadgen import LoadgenConfig, make_requests
from repro.serve.registry import ModelRegistry


class TestBundle:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown incident kind"):
            IncidentBundle(kind="meteor_strike")

    def test_round_trip_and_fingerprint(self, tmp_path):
        bundle = IncidentBundle(
            kind="slo_burn",
            label="burn",
            time=2.5,
            events=[{"kind": "x", "subsystem": "s", "time": 1.0}],
            metrics={"counters": {"a": 3}},
            context={"rule": "burn"},
        )
        path = str(tmp_path / "b.json")
        bundle.save(path)
        back = IncidentBundle.load(path)
        assert back.to_dict() == bundle.to_dict()
        assert back.fingerprint() == bundle.fingerprint()
        assert back.to_json() == bundle.to_json()

    def test_future_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        data = IncidentBundle(kind="slo_burn").to_dict()
        data["version"] = BUNDLE_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema version"):
            IncidentBundle.load(str(path))

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"kind": "slo_burn", "label"', "not valid JSON"),
            ("[1, 2]", "not an IncidentBundle JSON object"),
            ('{"kind": "slo_burn", "meteor": 1}', r"unknown field\(s\): \['meteor'\]"),
            ('{"kind": "slo_burn", "version": 99}', "schema version 99"),
        ],
        ids=["truncated", "non-object", "unknown-field", "newer-version"],
    )
    def test_damaged_bundle_fails_loudly(self, tmp_path, capsys, text, reason):
        path = tmp_path / "incident-0001-slo-burn.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=reason) as caught:
            IncidentBundle.load(str(path))
        assert str(path) in str(caught.value)
        for argv in (["list"], ["show", "1"]):
            assert main(["incidents", *argv, "--dir", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: bundle ") and str(path) in err

    def test_headline_mentions_kind_and_fingerprint(self):
        bundle = IncidentBundle(kind="canary_rollback", label="v2-bad")
        headline = bundle.headline()
        assert "canary_rollback" in headline
        assert "v2-bad" in headline
        assert bundle.fingerprint() in headline

    def test_snapshot_collects_every_surface(self):
        log = EventLog()
        log.emit(1.0, "serve.slo", "timeout", rid=1)
        registry = MetricsRegistry()
        registry.inc("serve.requests", 4)
        plan = FaultPlan(seed=1, drop_rate=0.1)
        bundle = snapshot_incident(
            "fault_recovery",
            label="train",
            time=3.0,
            event_log=log,
            registry=registry,
            fault_plan=plan,
            context={"drops": 2},
        )
        assert bundle.kind in TRIGGERS
        assert bundle.events == log.to_dicts()
        assert bundle.metrics["counters"]["serve.requests"] == 4
        assert bundle.fault_plan["plan"] == plan.to_dict()
        assert bundle.context == {"drops": 2}

    def test_snapshot_tail_is_bounded(self):
        log = EventLog()
        for i in range(10):
            log.emit(float(i), "s", "k", index=i)
        bundle = snapshot_incident("fault_recovery", event_log=log, tail=3)
        assert [e["index"] for e in bundle.events] == [7, 8, 9]


class TestStore:
    def test_deterministic_names_and_load_by_ref(self, tmp_path):
        store = IncidentStore(str(tmp_path))
        store.save(IncidentBundle(kind="slo_burn", label="one"))
        store.save(IncidentBundle(kind="canary_rollback", label="two"))
        names = [path.rsplit("/", 1)[-1] for path in store.paths()]
        assert names == [
            "incident-0001-slo-burn.json",
            "incident-0002-canary-rollback.json",
        ]
        assert store.load(1).label == "one"
        assert store.load("2").label == "two"
        assert store.load("incident-0002-canary-rollback.json").label == "two"
        with pytest.raises(LookupError, match="out of range"):
            store.load(3)

    def test_rows_summarize_each_bundle(self, tmp_path):
        store = IncidentStore(str(tmp_path))
        store.save(IncidentBundle(kind="slo_burn", label="x", time=1.5))
        (row,) = store.rows()
        assert row["kind"] == "slo_burn"
        assert row["label"] == "x"
        assert row["time"] == 1.5
        assert row["fingerprint"] == store.load(1).fingerprint()


class TestDiff:
    def test_diff_surfaces_field_changes(self):
        a = IncidentBundle(
            kind="slo_burn",
            time=1.0,
            metrics={"counters": {"drops": 2}},
            events=[{"subsystem": "s", "kind": "x"}],
            open_alerts=[{"rule": "burn"}],
            context={"resends": 1},
        )
        b = IncidentBundle(
            kind="slo_burn",
            time=2.0,
            metrics={"counters": {"drops": 5}},
            events=[{"subsystem": "s", "kind": "x"}] * 2,
            open_alerts=[],
            context={"resends": 3},
        )
        lines = "\n".join(diff_bundles(a, b))
        assert "time: 1.000000 -> 2.000000" in lines
        assert "metrics.counters.drops: 2 -> 5" in lines
        assert "events.s/x: 1 -> 2" in lines
        assert "open_alerts: -burn" in lines
        assert "context.resends: 1.0 -> 3.0" in lines

    def test_identical_bundles_diff_clean(self):
        a = IncidentBundle(kind="slo_burn", time=1.0)
        b = IncidentBundle(kind="slo_burn", time=1.0)
        assert diff_bundles(a, b) == [
            "bundles are identical in every compared field"
        ]


def _crash_train(incident_dir, checkpoint_dir):
    parties, labels = _synthetic_parties(120, 6, 8, seed=3)
    config = VF2BoostConfig.vf2boost(
        params=GBDTParams(n_trees=2, n_layers=3, n_bins=8),
        crypto_mode="counted",
    )
    trainer = FederatedTrainer(config, incident_dir=str(incident_dir))
    return trainer.fit_resilient(
        parties,
        labels,
        fault_plan=FaultPlan(seed=3, drop_rate=0.05, crash_after_trees=(0,)),
        retry_policy=RetryPolicy(max_retries=8),
        checkpoint_dir=str(checkpoint_dir),
    )


class TestTrainingIncidents:
    def test_crash_produces_byte_identical_bundles_across_reruns(
        self, tmp_path
    ):
        result_a = _crash_train(tmp_path / "inc-a", tmp_path / "ck-a")
        result_b = _crash_train(tmp_path / "inc-b", tmp_path / "ck-b")
        assert result_a.incidents
        assert len(result_a.incidents) == len(result_b.incidents)
        for path_a, path_b in zip(result_a.incidents, result_b.incidents):
            with open(path_a, "rb") as a, open(path_b, "rb") as b:
                assert a.read() == b.read()
        crash = IncidentBundle.load(result_a.incidents[0])
        assert crash.kind == "training_interrupted"
        assert crash.context["completed_trees"] == 1
        assert crash.events  # the crash captured the event tail
        assert any(e["kind"] == "crash" for e in crash.events)
        assert crash.wire_ledger  # channel traffic at the crash instant
        assert crash.fault_plan["plan"]["crash_after_trees"] == [0]


def _train_for_serving(seed):
    rng = np.random.default_rng(seed)
    n, d = 220, 8
    features = rng.normal(size=(n, d))
    labels = ((features @ rng.normal(size=d)) > 0).astype(float)
    params = GBDTParams(n_trees=3, n_layers=4, n_bins=8)
    full = bin_dataset(features, params.n_bins)
    parties = [
        full.subset_features(np.arange(4, 8)),
        full.subset_features(np.arange(0, 4)),
    ]
    config = VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
    return FederatedTrainer(config).fit(parties, labels).model, parties


@pytest.fixture(scope="module")
def serving_models():
    return _train_for_serving(23), _train_for_serving(29)


def _bad_canary_run(serving_models, incident_dir, shared_log=True):
    (model, parties), (bad_model, bad_parties) = serving_models
    log = EventLog() if shared_log else None
    registry = ModelRegistry(event_log=log)
    edges = {k: p.cut_points for k, p in enumerate(parties)}
    registry.register("v1", model, edges)
    registry.activate("v1")
    registry.register(
        "v2-bad", bad_model, {k: p.cut_points for k, p in enumerate(bad_parties)}
    )
    controller = CanaryController(
        registry,
        CanaryConfig(
            candidate="v2-bad", traffic_fraction=0.5, decision_after=50, seed=3
        ),
        event_log=log,
        incident_store=IncidentStore(str(incident_dir)),
    )
    fleet = ServingFleet(
        registry,
        FleetConfig(n_replicas=2, seed=3, shed=None),
        canary=controller,
        event_log=log,
    )
    load = LoadgenConfig(
        n_requests=96,
        feature_dims={k: p.n_features for k, p in enumerate(parties)},
        seed=11,
        mode="open",
        rate=400.0,
        n_sessions=12,
        session_skew=1.0,
    )
    for request in make_requests(load):
        fleet.submit(request)
    fleet.run()
    return controller


class TestCanaryIncidents:
    def test_bad_canary_drops_byte_identical_bundle(
        self, serving_models, tmp_path
    ):
        controller_a = _bad_canary_run(serving_models, tmp_path / "a")
        controller_b = _bad_canary_run(serving_models, tmp_path / "b")
        assert controller_a.state == "rolled_back"
        assert len(controller_a.incidents) == 1
        with open(controller_a.incidents[0], "rb") as a:
            with open(controller_b.incidents[0], "rb") as b:
                assert a.read() == b.read()
        bundle = IncidentBundle.load(controller_a.incidents[0])
        assert bundle.kind == "canary_rollback"
        assert bundle.label == "v2-bad"
        assert bundle.context["candidate"] == "v2-bad"
        assert bundle.context["incumbent"] == "v1"
        assert bundle.context["mismatches"] == 1
        kinds = {e["kind"] for e in bundle.events}
        assert "golden_mismatch" in kinds
        assert "rolled_back" in kinds
        assert "hot_swap" in kinds  # the registry activations are in the tail

    def test_rollback_bundle_is_never_event_less(self, serving_models, tmp_path):
        # No shared log anywhere: the controller records in its own,
        # so the post-mortem still holds the transitions that led to it.
        controller = _bad_canary_run(serving_models, tmp_path, shared_log=False)
        bundle = IncidentBundle.load(controller.incidents[0])
        assert [e["kind"] for e in bundle.events] == [
            "golden_mismatch",
            "rolled_back",
        ]
        assert bundle.events == controller.event_log.to_dicts()
        assert controller.summary()["events"] == {
            "golden_mismatch": 1,
            "rolled_back": 1,
        }


class TestCLI:
    def test_incidents_smoke_is_green(self, capsys):
        assert main(["incidents", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "incident smoke OK" in out
        assert "training-interrupted" in out

    def test_incidents_list_show_diff(self, tmp_path, capsys):
        store = IncidentStore(str(tmp_path))
        store.save(IncidentBundle(kind="slo_burn", label="one", time=1.0))
        store.save(IncidentBundle(kind="slo_burn", label="two", time=2.0))
        assert main(["incidents", "list", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "slo_burn" in out and "incident-0001-slo-burn.json" in out
        assert main(["incidents", "show", "1", "--dir", str(tmp_path)]) == 0
        assert "slo_burn [one]" in capsys.readouterr().out
        assert main(["incidents", "diff", "1", "2", "--dir", str(tmp_path)]) == 0
        assert "time: 1.000000 -> 2.000000" in capsys.readouterr().out

    def test_incidents_show_requires_one_ref(self, tmp_path, capsys):
        assert main(["incidents", "show", "--dir", str(tmp_path)]) == 2

    def test_events_cli_filters_jsonl(self, tmp_path, capsys):
        log = EventLog()
        log.emit(0.5, "serve.slo", "timeout", labels={"scenario": "s"}, rid=1)
        log.emit(1.5, "trainer", "tree_end", tree=0)
        path = str(tmp_path / "events.jsonl")
        log.write_jsonl(path)
        assert main(["events", path, "--subsystem", "trainer"]) == 0
        out = capsys.readouterr().out
        assert "tree_end" in out
        assert "timeout" not in out
        assert "(1 of 2 events shown)" in out

    def test_events_cli_reads_run_report(self, tmp_path, capsys):
        log = EventLog()
        log.emit(0.5, "obs.alerts", "alert_open", labels={"rule": "burn"})
        report = {"events": log.to_dicts()}
        path = str(tmp_path / "report.json")
        with open(path, "w") as handle:
            json.dump(report, handle)
        assert main(["events", path, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records == log.to_dicts()
