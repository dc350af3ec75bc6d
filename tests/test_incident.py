"""Tests for incident post-mortems (repro.obs.incident) and the
``repro incidents`` / ``repro events`` CLIs: an incident is a RunReport
whose kind is its trigger — store naming and trigger check, round trips
and fingerprints, the report differ on incident sections, byte-identical
incidents from a crash-and-resume training rerun, and the bench-gate
trigger."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.bench.perfdb import PerfDB, PerfEntry
from repro.cli import _synthetic_parties, main
from repro.core.config import VF2BoostConfig
from repro.core.trainer import FederatedTrainer
from repro.fed.channel import RecordingChannel
from repro.fed.faults import FaultPlan
from repro.fed.messages import SplitDecision
from repro.fed.retry import RetryPolicy
from repro.gbdt.params import GBDTParams
from repro.obs.events import EventLog
from repro.obs.forensics import diff_reports
from repro.obs.incident import EVENT_TAIL, TRIGGERS, IncidentStore, snapshot_incident
from repro.obs.report import REPORT_VERSION, RunReport


class TestBundle:
    def test_unknown_kind_rejected(self, tmp_path):
        store = IncidentStore(str(tmp_path))
        for kind in ("meteor_strike", "train", "slo_burn", "canary_rollback"):
            with pytest.raises(ValueError, match="unknown incident kind"):
                store.save(RunReport(kind=kind))
        assert store.paths() == []
        assert TRIGGERS == ("training_interrupted", "fault_recovery", "bench_regression")

    def test_round_trip_and_fingerprint(self, tmp_path):
        report = RunReport(
            kind="fault_recovery",
            label="train",
            events=[{"kind": "x", "subsystem": "s", "time": 1.0}],
            context={"drops": 3, "time": 2.5},
        )
        path = IncidentStore(str(tmp_path)).save(report)
        back = RunReport.load(path)
        assert back == report
        assert back.fingerprint() == report.fingerprint()
        assert back.to_json() == report.to_json()
        moved = dataclasses.replace(report, context={"drops": 4, "time": 2.5})
        assert moved.fingerprint() != report.fingerprint()

    def test_future_schema_version_rejected(self, tmp_path):
        store = IncidentStore(str(tmp_path))
        path = store.save(RunReport(kind="fault_recovery"))
        data = json.loads(open(path).read())
        data["version"] = REPORT_VERSION + 1
        with open(path, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(ValueError, match="schema version"):
            store.load(1)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"kind": "fault_recovery", "label"', "not valid JSON"),
            ("[1, 2]", "not a RunReport JSON object"),
            ('{"kind": "fault_recovery", "meteor": 1}', r"unknown field\(s\): \['meteor'\]"),
            ('{"kind": "fault_recovery", "version": 99}', "schema version 99"),
        ],
        ids=["truncated", "non-object", "unknown-field", "newer-version"],
    )
    def test_damaged_bundle_fails_loudly(self, tmp_path, capsys, text, reason):
        path = tmp_path / "incident-0001-fault-recovery.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=reason) as caught:
            IncidentStore(str(tmp_path)).load(1)
        assert str(path) in str(caught.value)
        for argv in (["list"], ["show", "1"]):
            assert main(["incidents", *argv, "--dir", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: report ") and str(path) in err

    def test_version_1_bundle_file_is_refused(self, tmp_path, capsys):
        # The file an IncidentBundle (schema version 1) wrote: its own
        # clock, ledger, plan and alert fields are not report fields.
        path = tmp_path / "incident-0001-fault-recovery.json"
        path.write_text(json.dumps({
            "version": 1, "kind": "fault_recovery", "label": "", "time": 0.3,
            "events": [], "metrics": {}, "profile": {}, "critical_path": {},
            "wire_ledger": {}, "fault_plan": {}, "open_alerts": [], "context": {},
        }))
        store = IncidentStore(str(tmp_path))
        for read in (lambda: store.load(1), store.rows):
            with pytest.raises(ValueError, match="unknown field") as caught:
                read()
            assert str(path) in str(caught.value)
            for field in ("fault_plan", "open_alerts", "time", "wire_ledger"):
                assert field in str(caught.value)
        assert main(["incidents", "list", "--dir", str(tmp_path)]) == 1
        assert str(path) in capsys.readouterr().err

    def test_headline_mentions_kind_and_fingerprint(self, tmp_path, capsys):
        store = IncidentStore(str(tmp_path))
        store.save(RunReport(kind="bench_regression", label="perf.json"))
        assert main(["incidents", "show", "1", "--dir", str(tmp_path)]) == 0
        headline = capsys.readouterr().out.splitlines()[0]
        assert "bench_regression [perf.json]" in headline
        assert store.load(1).fingerprint() in headline

    def test_snapshot_collects_every_surface(self):
        log = EventLog()
        log.emit(1.0, "fed.reliable", "drop", seq_no=1)
        channel = RecordingChannel(256, active_party=0)
        channel.send(SplitDecision(0, 1, node_id=0, owner=1, bin_flat_index=3))
        faults = {"plan": FaultPlan(seed=1, drop_rate=0.1).to_dict(), "drops": 2}
        report = snapshot_incident(
            "fault_recovery",
            label="train",
            time=3.0,
            event_log=log,
            profile={"ops": {"encryptions": 4}},
            channel=channel,
            faults=faults,
            context={"drops": 2},
        )
        assert report.kind in TRIGGERS
        assert report.events == log.to_dicts()
        assert report.profile == {"ops": {"encryptions": 4}}
        assert report.channels["by_type"] == channel.wire_ledger()
        assert report.faults == faults
        assert report.context == {"drops": 2, "time": 3.0}

    def test_snapshot_tail_is_bounded(self):
        log = EventLog(capacity=EVENT_TAIL + 8)
        for i in range(EVENT_TAIL + 3):
            log.emit(float(i), "s", "k", index=i)
        report = snapshot_incident("fault_recovery", event_log=log)
        assert len(report.events) == EVENT_TAIL
        assert [e["index"] for e in report.events[:2]] == [3, 4]


class TestStore:
    def test_deterministic_names_and_load_by_ref(self, tmp_path):
        store = IncidentStore(str(tmp_path))
        store.save(RunReport(kind="training_interrupted", label="one"))
        store.save(RunReport(kind="bench_regression", label="two"))
        names = [path.rsplit("/", 1)[-1] for path in store.paths()]
        assert names == [
            "incident-0001-training-interrupted.json",
            "incident-0002-bench-regression.json",
        ]
        assert store.load(1).label == "one"
        assert store.load("2").label == "two"
        assert store.load("incident-0002-bench-regression.json").label == "two"
        assert store.load(store.paths()[0]).label == "one"
        by_name = store.load("incident-0001-training-interrupted.json")
        assert store.load(1).fingerprint() == by_name.fingerprint()
        with pytest.raises(LookupError, match="out of range"):
            store.load(3)

    def test_numbering_continues_past_a_deleted_incident(self, tmp_path):
        store = IncidentStore(str(tmp_path))
        for label in ("one", "two", "three"):
            store.save(RunReport(kind="fault_recovery", label=label))
        third = tmp_path / "incident-0003-fault-recovery.json"
        before = third.read_bytes()
        (tmp_path / "incident-0001-fault-recovery.json").unlink()
        path = store.save(RunReport(kind="bench_regression", label="four"))
        assert path.endswith("incident-0004-bench-regression.json")
        assert third.read_bytes() == before
        assert [store.load(i).label for i in (2, 3, 4)] == ["two", "three", "four"]
        with pytest.raises(LookupError, match="no incident-0001-"):
            store.load(1)

    def test_only_save_creates_the_directory(self, tmp_path):
        missing = tmp_path / "incidents"
        store = IncidentStore(str(missing))
        assert store.paths() == [] and store.rows() == []
        with pytest.raises(LookupError, match="out of range"):
            store.load(1)
        assert not missing.exists()
        store.save(RunReport(kind="fault_recovery"))
        assert [p.name for p in missing.iterdir()] == ["incident-0001-fault-recovery.json"]

    def test_rows_summarize_each_bundle(self, tmp_path):
        store = IncidentStore(str(tmp_path))
        store.save(snapshot_incident("fault_recovery", label="x", time=1.5))
        (row,) = store.rows()
        assert row["kind"] == "fault_recovery"
        assert row["label"] == "x"
        assert row["time"] == 1.5
        assert row["events"] == 0
        assert row["fingerprint"] == store.load(1).fingerprint()


class TestDiff:
    def test_diff_surfaces_field_changes(self):
        a = RunReport(
            kind="training_interrupted",
            events=[{"subsystem": "s", "kind": "x"}],
            context={"completed_trees": 1, "checkpoint": "c1", "time": 1.0},
        )
        b = RunReport(
            kind="fault_recovery",
            events=[{"subsystem": "s", "kind": "x"}] * 2,
            context={"resends": 3, "checkpoint": "c2", "time": 2.0},
        )
        diff = diff_reports(a, b)
        moved = {c.name: (c.baseline, c.value) for c in diff.sections["context"]}
        assert moved == {
            "context.completed_trees": (1.0, 0.0),
            "context.resends": (0.0, 3.0),
            "context.time": (1.0, 2.0),
        }
        (events,) = diff.sections["events"]
        assert (events.name, events.group, events.delta) == ("events.s/x", "event", 1.0)
        lines = "\n".join(diff.lines())
        assert "makespan" not in lines  # it did not move
        assert "events.s/x [event]: 1 -> 2" in lines

    def test_identical_bundles_diff_clean(self):
        a = RunReport(kind="fault_recovery", context={"time": 1.0})
        assert diff_reports(a, a).lines() == ["no compared quantity moved"]


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
        crash = RunReport.load(result_a.incidents[0])
        assert crash.kind == "training_interrupted"
        # Loaded by number or by file name, and reloaded: one fingerprint.
        store = IncidentStore(str(tmp_path / "inc-a"))
        by_name = store.load(os.path.basename(result_a.incidents[0]))
        assert store.load(1).fingerprint() == by_name.fingerprint()
        assert RunReport.load(result_a.incidents[0]).fingerprint() == crash.fingerprint()
        assert crash.context["completed_trees"] == 1
        assert any(e["kind"] == "crash" for e in crash.events)
        assert crash.channels["by_type"]  # channel traffic at the crash instant
        assert crash.faults["plan"]["crash_after_trees"] == [0]


@pytest.fixture(scope="module")
def crash_and_recovery(tmp_path_factory):
    """The flight-recorder transcript of EXPERIMENTS.md: a 10% drop
    schedule with a crash after tree 1 leaves a crash and a recovery."""
    root = tmp_path_factory.mktemp("flight")
    argv = [
        "train", "--rows", "240", "--features", "8", "--trees", "3",
        "--layers", "3", "--bins", "8", "--fault-seed", "7",
        "--drop-rate", "0.1", "--crash-after", "1",
        "--checkpoint-dir", str(root / "ckpts"),
        "--incident-dir", str(root / "incidents"),
    ]
    assert main(argv) == 0
    return root / "incidents"


class TestCLI:
    def test_incidents_list_show_diff(self, tmp_path, capsys):
        store = IncidentStore(str(tmp_path))
        store.save(snapshot_incident("fault_recovery", label="one", time=1.0))
        store.save(snapshot_incident("fault_recovery", label="two", time=2.0))
        assert main(["incidents", "list", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fault_recovery" in out and "incident-0001-fault-recovery.json" in out
        assert main(["incidents", "show", "1", "--dir", str(tmp_path)]) == 0
        assert "fault_recovery [one]" in capsys.readouterr().out
        assert main(["incidents", "diff", "1", "2", "--dir", str(tmp_path)]) == 0
        assert "context.time [context]: 1 -> 2" in capsys.readouterr().out
        assert main(["incidents", "diff", "1", "2", "--dir", str(tmp_path), "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["sections"]["context"]
        assert (row["name"], row["delta"]) == ("context.time", 1.0)

    def test_incident_numbers_are_file_numbers(self, tmp_path, capsys):
        store = IncidentStore(str(tmp_path))
        for label in ("one", "two", "three"):
            store.save(RunReport(kind="fault_recovery", label=label))
        (tmp_path / "incident-0001-fault-recovery.json").unlink()
        assert main(["incidents", "list", "--dir", str(tmp_path)]) == 0
        numbers = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert numbers == ["2", "3"]
        assert main(["incidents", "show", "2", "--dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("fault_recovery [two]")
        assert main(["incidents", "show", "1", "--dir", str(tmp_path)]) == 1
        assert "error: incident 1 out of range" in capsys.readouterr().err

    def test_incidents_diff_names_moved_context_and_event_kinds(
        self, crash_and_recovery, capsys
    ):
        capsys.readouterr()
        argv = ["incidents", "diff", "1", "2", "--dir", str(crash_and_recovery)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("training_interrupted -> fault_recovery\n")
        for moved in (
            "context.completed_trees [context]: 2 -> 0",
            "context.drops [context]: 0 -> 1",
            "context.recovery_seconds [context]: 0 -> 0.3",
            "context.time [context]: 0.9 -> 0.3",
            "events.trainer/checkpoint_resumed [event]: 0 -> 1",
            "events.trainer/tree_end [event]: 2 -> 3",
        ):
            assert moved in out

    def test_bench_regression_drops_an_incident(self, tmp_path, capsys):
        db_path = str(tmp_path / "perf.json")
        assert main(["bench-gate", "--db", db_path]) == 0
        tampered = PerfDB.load(db_path)
        last = tampered.entries[-1]
        scalars = dict(last.scalars)
        scalars["ops.enc"] = dataclasses.replace(
            scalars["ops.enc"], value=scalars["ops.enc"].value + 7
        )
        tampered.entries[-1] = PerfEntry(name=last.name, scalars=scalars, meta=last.meta)
        tampered.save(db_path)
        incident_dir = tmp_path / "incidents"
        argv = ["bench-gate", "--db", db_path, "--incident-dir", str(incident_dir)]
        assert main(argv) == 1
        assert "wrote incident " in capsys.readouterr().out
        (path,) = IncidentStore(str(incident_dir)).paths()
        report = RunReport.load(path)
        assert (report.kind, report.label) == ("bench_regression", db_path)
        assert "ops.enc" in {f["scalar"] for f in report.context["failures"]}
        assert {e["subsystem"] for e in report.events} == {"bench.gate"}

    def test_incidents_list_of_a_missing_dir_creates_nothing(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["incidents", "list", "--dir", str(missing)]) == 0
        assert capsys.readouterr().out == f"no incidents in {missing}\n"
        assert not missing.exists()

    def test_closed_stdout_ends_without_a_traceback(self):
        # The child blocks on stdin until the parent has closed its end
        # of the stdout pipe, so the first write meets a closed pipe.
        script = (
            "import sys; from repro.cli import main; sys.stdin.read(); "
            "raise SystemExit(main(['list']))"
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": ":".join(sys.path)},
        )
        child.stdout.close()
        _, err = child.communicate(b"", timeout=120)
        assert "Traceback" not in err.decode()
        assert "BrokenPipeError" not in err.decode()
        assert child.returncode == 1

    def test_incidents_show_requires_one_ref(self, tmp_path, capsys):
        assert main(["incidents", "show", "--dir", str(tmp_path)]) == 2

    def test_events_cli_filters_a_report(self, tmp_path, capsys):
        log = EventLog()
        log.emit(0.5, "serve.slo", "timeout", labels={"scenario": "s"}, rid=1)
        log.emit(1.5, "trainer", "tree_end", tree=0)
        path = str(tmp_path / "run.report.json")
        RunReport(kind="serve", events=log.to_dicts()).save(path)
        assert main(["events", path, "--subsystem", "trainer"]) == 0
        out = capsys.readouterr().out
        assert "tree_end" in out
        assert "timeout" not in out
        assert "(1 of 2 events shown)" in out

    def test_events_cli_reads_run_report(self, tmp_path, capsys):
        # Any RunReport, an incident included; a bare JSON object with
        # an `events` list is not a report.
        log = EventLog()
        log.emit(0.5, "serve.slo", "burn_alert_start", labels={"scenario": "s"})
        path = IncidentStore(str(tmp_path)).save(
            RunReport(kind="fault_recovery", events=log.to_dicts())
        )
        assert main(["events", path, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records == log.to_dicts()
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"events": log.to_dicts()}))
        assert main(["events", str(bare)]) == 1
        assert "not a RunReport" in capsys.readouterr().err
        assert main(["events", str(tmp_path / "missing.json")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_events_cli_refuses_a_record_without_kind(self, tmp_path, capsys):
        path = tmp_path / "run.report.json"
        events = [{"kind": "timeout", "time": 0.5}, {"event": "drop"}]
        RunReport(kind="serve", events=events).save(str(path))
        assert main(["events", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: event record has no 'kind'")
        assert '"drop"' in err
