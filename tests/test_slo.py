"""Tests for the serving SLO watcher (:mod:`repro.serve.slo`): window
statistics, the transitions it records in its event log, the gauges it
publishes, and its integration with the serve bench."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.serve.slo import SLOPolicy, SLOWatcher


def records(watcher):
    """The watcher's transitions, oldest first, in the flat wire shape."""
    return [event.to_dict() for event in watcher.event_log.filter("serve.slo")]


def ok_outcome(request_id=0, latency=0.1):
    return SimpleNamespace(
        request_id=request_id, latency=latency, rejected=False, degraded=False
    )


def degraded_outcome(request_id=0, latency=0.1, rows=3):
    return SimpleNamespace(
        request_id=request_id,
        latency=latency,
        rejected=False,
        degraded=True,
        degraded_rows=np.ones(rows, dtype=bool),
    )


def rejected_outcome(request_id=0):
    return SimpleNamespace(request_id=request_id, rejected=True)


class TestPolicy:
    def test_defaults(self):
        policy = SLOPolicy()
        assert policy.latency_slo == 0.5
        assert policy.window == 64
        assert policy.to_dict()["error_budget"] == 0.01

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            SLOPolicy(window=0)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            SLOPolicy(error_budget=0.0)
        with pytest.raises(ValueError):
            SLOPolicy(error_budget=1.5)


class TestWindowStats:
    def test_empty_window(self):
        watcher = SLOWatcher()
        assert watcher.window_p99() == 0.0
        assert watcher.breach_fraction() == 0.0
        assert watcher.burn_rate() == 0.0

    def test_p99_nearest_rank(self):
        watcher = SLOWatcher(SLOPolicy(window=100, latency_slo=10.0))
        for i in range(100):
            watcher.on_completion(ok_outcome(i, latency=float(i + 1)), now=float(i))
        assert watcher.window_p99() == 99.0

    def test_window_slides(self):
        watcher = SLOWatcher(SLOPolicy(window=4, latency_slo=0.5))
        for i in range(4):
            watcher.on_completion(ok_outcome(i, latency=1.0), now=float(i))
        assert watcher.breach_fraction() == 1.0
        # Four fast completions push all breaches out of the window.
        for i in range(4, 8):
            watcher.on_completion(ok_outcome(i, latency=0.1), now=float(i))
        assert watcher.breach_fraction() == 0.0
        assert watcher.breaches == 4  # lifetime total is not windowed

    def test_burn_rate_is_budget_scaled(self):
        watcher = SLOWatcher(SLOPolicy(window=4, error_budget=0.5, burn_alert=9.0))
        watcher.on_completion(ok_outcome(0, latency=1.0), now=0.0)
        watcher.on_completion(ok_outcome(1, latency=0.1), now=1.0)
        assert watcher.breach_fraction() == 0.5
        assert watcher.burn_rate() == 1.0


class TestBurnAlert:
    def test_episode_opens_and_closes(self):
        watcher = SLOWatcher(
            SLOPolicy(window=4, latency_slo=0.5, error_budget=0.5, burn_alert=1.0)
        )
        for i in range(4):  # all breach -> burn rate 2.0
            watcher.on_completion(ok_outcome(i, latency=1.0), now=float(i))
        assert watcher.alert_open
        assert watcher.alerts == 1
        for i in range(4, 8):  # all fast -> burn rate 0.0
            watcher.on_completion(ok_outcome(i, latency=0.1), now=float(i))
        assert not watcher.alert_open
        events = [record["kind"] for record in records(watcher)]
        assert events.count("burn_alert_start") == 1
        assert events.count("burn_alert_end") == 1
        # Start precedes end; one episode, not re-opened per breach.
        assert events.index("burn_alert_start") < events.index("burn_alert_end")

    def test_alert_carries_posture(self):
        watcher = SLOWatcher(
            SLOPolicy(window=2, latency_slo=0.5, error_budget=0.5, burn_alert=1.0)
        )
        watcher.on_completion(ok_outcome(0, latency=2.0), now=5.0)
        start = watcher.event_log.filter(kind="burn_alert_start")[0].to_dict()
        assert start["time"] == 5.0
        # One breach in a one-item window over a 0.5 budget burns at 2.0.
        assert start["burn_rate"] == 2.0
        assert start["p99"] == 2.0


class TestEdgeCases:
    def test_window_size_accessor(self):
        watcher = SLOWatcher(SLOPolicy(window=4))
        assert watcher.window_size() == 0
        for i in range(6):
            watcher.on_completion(ok_outcome(i), now=float(i))
            assert watcher.window_size() == min(i + 1, 4)

    def test_zero_traffic_window_stays_empty(self):
        # Rejections (shed / queue-full) bypass the latency window: a
        # replica that sheds everything has NO burn evidence, not a
        # saturated window of zeros.
        watcher = SLOWatcher(SLOPolicy(window=4, burn_alert=1.0))
        for i in range(10):
            watcher.on_completion(rejected_outcome(i), now=float(i))
        assert watcher.window_size() == 0
        assert watcher.burn_rate() == 0.0
        assert not watcher.alert_open

    def test_episode_closes_exactly_at_window_boundary(self):
        # budget 0.25 with burn_alert 1.0: a single breach in a window
        # of 4 keeps the episode open. The alert must close on exactly
        # the completion that slides the last breach out of the window
        # — not one early, not one late.
        watcher = SLOWatcher(
            SLOPolicy(window=4, latency_slo=0.5, error_budget=0.25, burn_alert=1.0)
        )
        for i in range(4):
            watcher.on_completion(ok_outcome(i, latency=1.0), now=float(i))
        assert watcher.alert_open
        for i in range(4, 7):
            watcher.on_completion(ok_outcome(i, latency=0.1), now=float(i))
            # Window still holds >= 1 breach: burn >= alert threshold.
            assert watcher.alert_open, f"closed early after completion {i}"
        watcher.on_completion(ok_outcome(7, latency=0.1), now=7.0)
        assert not watcher.alert_open
        end = watcher.event_log.filter(kind="burn_alert_end")
        assert len(end) == 1 and end[0].time == 7.0

    def test_tiny_budget_burn_is_finite(self):
        # error_budget=0 is rejected at construction (see TestPolicy);
        # the smallest representable budget must still divide cleanly.
        watcher = SLOWatcher(SLOPolicy(window=2, error_budget=1e-9))
        watcher.on_completion(ok_outcome(0, latency=9.0), now=0.0)
        assert watcher.burn_rate() == pytest.approx(1e9)
        assert np.isfinite(watcher.burn_rate())


class TestEvents:
    def test_rejected_bypasses_window(self):
        watcher = SLOWatcher()
        watcher.on_completion(rejected_outcome(7), now=1.0)
        assert watcher.completions == 0
        assert records(watcher) == [
            {
                "kind": "rejected",
                "subsystem": "serve.slo",
                "time": 1.0,
                "request_id": 7,
            }
        ]

    def test_degraded_completion_records_rows(self):
        watcher = SLOWatcher(SLOPolicy(burn_alert=99.0))
        watcher.on_completion(degraded_outcome(3, rows=5), now=2.0)
        degraded = watcher.event_log.filter("serve.slo", "degraded")
        assert [event.to_dict() for event in degraded] == [
            {
                "kind": "degraded",
                "subsystem": "serve.slo",
                "time": 2.0,
                "request_id": 3,
                "rows": 5,
            }
        ]

    def test_timeout_and_exhausted_routing(self):
        watcher = SLOWatcher()
        watcher.on_timeout(party=1, batch_id=4, attempt=0, now=1.0)
        watcher.on_timeout(party=1, batch_id=4, attempt=1, now=2.0, exhausted=True)
        events = [record["kind"] for record in records(watcher)]
        assert events == ["timeout", "timeout", "degraded_route"]

    def test_labels_merged_into_every_event(self):
        watcher = SLOWatcher(labels={"scenario": "degraded"})
        watcher.on_timeout(party=0, batch_id=1, attempt=0, now=0.0)
        assert records(watcher)[0]["scenario"] == "degraded"
        assert watcher.event_log.events()[0].labels == {"scenario": "degraded"}

    def test_event_lines_and_jsonl(self, tmp_path):
        watcher = SLOWatcher()
        watcher.on_timeout(party=0, batch_id=1, attempt=0, now=0.5)
        watcher.on_completion(ok_outcome(2), now=1.0)
        path = tmp_path / "events.jsonl"
        # completions emit no event
        assert watcher.event_log.write_jsonl(path) == 1
        lines = path.read_text().splitlines()
        assert lines == watcher.event_log.lines()
        assert [json.loads(line)["kind"] for line in lines] == ["timeout"]
        assert "event" not in json.loads(lines[0])
        # Keys are sorted for stable diffs.
        assert lines[0].index('"batch_id"') < lines[0].index('"party"')
        # Append mode stacks a second watcher's stream.
        other = SLOWatcher(labels={"scenario": "b"})
        other.on_timeout(party=1, batch_id=2, attempt=0, now=2.0)
        other.event_log.write_jsonl(path, append=True)
        assert len(path.read_text().splitlines()) == 2

    def test_summary_counts_events(self):
        watcher = SLOWatcher(SLOPolicy(burn_alert=1e9))
        watcher.on_completion(ok_outcome(0, latency=1.0), now=0.0)
        watcher.on_timeout(party=0, batch_id=0, attempt=0, now=1.0, exhausted=True)
        summary = watcher.summary()
        assert summary["completions"] == 1
        assert summary["breaches"] == 1
        assert summary["events"] == {"degraded_route": 1, "timeout": 1}
        assert summary["policy"]["window"] == 64

    def test_summary_tally_survives_ring_eviction(self):
        # The log is a ring buffer and may evict; the tally may not.
        watcher = SLOWatcher(event_log=EventLog(capacity=4))
        for i in range(7):
            watcher.on_timeout(party=0, batch_id=i, attempt=0, now=float(i))
        watcher.on_completion(rejected_outcome(9), now=8.0)
        assert watcher.event_log.evicted == 4
        assert len(watcher.event_log) == 4
        assert watcher.summary()["events"] == {"rejected": 1, "timeout": 7}


class TestRegistry:
    def test_gauges_published(self):
        registry = MetricsRegistry()
        watcher = SLOWatcher(
            SLOPolicy(window=2, latency_slo=0.5, error_budget=0.5, burn_alert=1.0),
            registry=registry,
        )
        watcher.on_completion(ok_outcome(0, latency=2.0), now=0.0)
        watcher.on_timeout(party=0, batch_id=0, attempt=0, now=1.0, exhausted=True)
        snapshot = registry.snapshot()
        assert snapshot["gauges"] == {
            "serve.slo.burn_rate": 2.0,
            "serve.slo.p99": 2.0,
        }
        # Transitions are recorded in the log and tallied in the
        # summary — never mirrored as registry counters.
        assert snapshot["counters"] == {}
        assert watcher.summary()["events"] == {
            "burn_alert_start": 1,
            "degraded_route": 1,
            "timeout": 1,
        }

    def test_no_registry_is_fine(self):
        watcher = SLOWatcher()
        watcher.on_completion(ok_outcome(0, latency=2.0), now=0.0)
        assert watcher.summary()["breaches"] == 1


class TestServeBenchIntegration:
    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        from repro.serve.bench import run_bench

        out = tmp_path_factory.mktemp("slo")
        events = out / "events.jsonl"
        report_path = out / "report.json"
        report = run_bench(
            smoke=True, events_out=str(events), report_out=str(report_path)
        )
        return report, events, report_path

    def test_slo_summaries_in_report(self, smoke):
        report, _, _ = smoke
        assert report["slo"]["completions"] > 0
        degraded = report["degraded_scenario"]["slo"]
        assert degraded["events"].get("timeout", 0) > 0
        assert degraded["events"].get("degraded_route", 0) > 0

    def test_runtime_feeds_shared_registry(self, smoke):
        # The saved RunReport snapshots the shared obs registry: the
        # runtime's counters and the watchers' gauges, and no mirror of
        # what the event log or the channel ledger already records.
        report, _, report_path = smoke
        data = json.loads(report_path.read_text())
        counters = data["metrics"]["counters"]
        assert counters["serve.requests"] > 0
        assert all(key.startswith("serve.") for key in counters)
        assert not any(key.startswith("serve.slo.") for key in counters)
        assert set(data["metrics"]["gauges"]) == {
            "serve.slo.burn_rate",
            "serve.slo.p99",
        }
        assert (
            data["channels"]["total_bytes"]
            == report["batched"]["snapshot"]["wire_bytes"]
        )
        kinds = [
            e["kind"] for e in data["events"] if e["subsystem"] == "serve.slo"
        ]
        assert kinds.count("timeout") == (
            report["degraded_scenario"]["slo"]["events"]["timeout"]
        )

    def test_report_references_events_artifact(self, smoke):
        _, events, report_path = smoke
        data = json.loads(report_path.read_text())
        assert data["artifacts"] == {"events": str(events)}

    def test_events_jsonl_written_with_scenario_labels(self, smoke):
        report, events, _ = smoke
        lines = [json.loads(line) for line in events.read_text().splitlines()]
        assert len(lines) == report["events_written"]
        scenarios = {line["scenario"] for line in lines}
        assert "degraded" in scenarios
