"""Tests for the serving SLO watcher (:mod:`repro.serve.slo`): window
statistics, the transitions it records in its event log (its burn-alert
episodes are the serving side's one alert record), and its integration
with the serve bench."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs.events import EventLog
from repro.obs.report import RunReport
from repro.serve.slo import SLOPolicy, SLOWatcher


def records(watcher):
    """The watcher's transitions, oldest first, in the flat wire shape."""
    return [
        event.to_dict()
        for event in watcher.event_log.events()
        if event.subsystem == "serve.slo"
    ]


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
        (start,) = [
            e.to_dict()
            for e in watcher.event_log.events()
            if e.kind == "burn_alert_start"
        ]
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
        end = [e for e in watcher.event_log.events() if e.kind == "burn_alert_end"]
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
        degraded = [
            e
            for e in watcher.event_log.events()
            if (e.subsystem, e.kind) == ("serve.slo", "degraded")
        ]
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

    def test_event_records_saved_in_a_report(self, tmp_path):
        watcher = SLOWatcher()
        watcher.on_timeout(party=0, batch_id=1, attempt=0, now=0.5)
        watcher.on_completion(ok_outcome(2), now=1.0)
        path = tmp_path / "serve.report.json"
        RunReport(kind="serve", events=watcher.event_log.to_dicts()).save(str(path))
        text = path.read_text()
        (record,) = json.loads(text)["events"]  # completions emit no event
        assert record["kind"] == "timeout"
        assert "event" not in record
        # Keys are sorted for stable diffs.
        assert text.index('"batch_id"') < text.index('"party"')

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
    def test_no_registry_is_fine(self):
        watcher = SLOWatcher()
        watcher.on_completion(ok_outcome(0, latency=2.0), now=0.0)
        assert watcher.summary()["breaches"] == 1


class TestServeBenchIntegration:
    @pytest.fixture(scope="class")
    def smoke(self, serve_smoke):
        report = json.loads(serve_smoke.out.read_text())
        return report, serve_smoke.report

    def test_slo_summaries_in_report(self, smoke):
        report, _ = smoke
        assert report["slo"]["completions"] > 0
        degraded = report["degraded_scenario"]["slo"]
        assert degraded["events"].get("timeout", 0) > 0
        assert degraded["events"].get("degraded_route", 0) > 0

    def test_runtime_feeds_shared_registry(self, smoke):
        # The saved RunReport snapshots the batched runtime's registry:
        # its counters and histograms, and no mirror of what the event
        # log or the channel ledger already records.
        report, report_path = smoke
        data = json.loads(report_path.read_text())
        counters = data["metrics"]["counters"]
        assert counters["serve.requests"] > 0
        assert all(key.startswith("serve.") for key in counters)
        assert not any(key.startswith("serve.slo.") for key in counters)
        assert set(data["metrics"]) == {"counters", "histograms"}
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

    def test_burn_episodes_are_the_alert_record(self, smoke):
        # The degraded watcher's burn-alert episode is recorded once, in
        # the event log, and counted in its summary; no other alert
        # record exists.
        report, report_path = smoke
        data = json.loads(report_path.read_text())
        degraded = report["degraded_scenario"]["slo"]
        assert degraded["alerts"] == degraded["events"]["burn_alert_start"] >= 1
        (start, *_) = [
            e for e in data["events"]
            if (e["subsystem"], e["kind"], e.get("scenario"))
            == ("serve.slo", "burn_alert_start", "degraded")
        ]
        assert start["burn_rate"] >= degraded["policy"]["burn_alert"]
        assert start["p99"] > degraded["policy"]["latency_slo"]
        assert "alerts" not in report and "alerts" not in data
        assert not any(e["subsystem"] == "obs.alerts" for e in data["events"])

    def test_report_events_carry_scenario_labels(self, smoke):
        # The report holds the bench's whole event log; nothing else
        # is written beside it.
        report, report_path = smoke
        data = json.loads(report_path.read_text())
        assert "artifacts" not in data
        assert len(data["events"]) == report["event_log"]["size"]
        scenarios = {record["scenario"] for record in data["events"]}
        assert "degraded" in scenarios
