"""Tests for the deterministic alert engine (repro.obs.alerts):
the burn-rate rule's ``>=`` boundary, band rules, open/close event
emission and its trace overlay, and episode determinism across reruns."""

import json

import pytest

from repro.obs.alerts import AlertEngine, AlertRule, band_rule, burn_rate_rule
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            AlertRule(name="x", kind="nope", metric="m")

    def test_band_low_le_high(self):
        with pytest.raises(ValueError, match="band"):
            band_rule("x", "m", 2.0, 1.0)

    def test_duplicate_names_rejected(self):
        rules = [burn_rate_rule("x", metric="m"), band_rule("x", "n", 0.0, 1.0)]
        with pytest.raises(ValueError, match="unique"):
            AlertEngine(MetricsRegistry(), rules)

    def test_rule_dict_round_trip(self):
        # A summary's rule dict is every field: it rebuilds the rule.
        rule = band_rule("p99", "serve.slo.p99", 0.0, 0.5)
        assert AlertRule(**rule.to_dict()) == rule


class TestThreshold:
    def test_opens_exactly_at_boundary(self):
        # A burn-rate rule is a ``>=`` threshold on its gauge.
        registry = MetricsRegistry()
        engine = AlertEngine(registry, [burn_rate_rule("hot", 5.0, metric="g")])
        registry.set_gauge("g", 4.999)
        assert engine.evaluate(0.0) == []
        registry.set_gauge("g", 5.0)
        (opened,) = engine.evaluate(1.0)
        assert opened["opened"] == 1.0
        assert opened["value"] == 5.0
        registry.set_gauge("g", 4.0)
        (closed,) = engine.evaluate(2.0)
        assert closed["closed"] == 2.0
        assert closed is opened  # one episode, mutated in place


class TestBurnRateAndBand:
    def test_burn_rate_tracks_gauge(self):
        registry = MetricsRegistry()
        engine = AlertEngine(registry, [burn_rate_rule("burn", 1.0)])
        registry.set_gauge("serve.slo.burn_rate", 2.0)
        assert len(engine.evaluate(0.0)) == 1
        registry.set_gauge("serve.slo.burn_rate", 0.5)
        assert len(engine.evaluate(1.0)) == 1
        assert engine.open_alerts() == []

    def test_band_fires_outside_closed_interval(self):
        registry = MetricsRegistry()
        engine = AlertEngine(registry, [band_rule("p99", "g", 1.0, 2.0)])
        for inside in (1.0, 1.5, 2.0):
            registry.set_gauge("g", inside)
            assert engine.evaluate(0.0) == []
        registry.set_gauge("g", 2.1)
        (opened,) = engine.evaluate(1.0)
        assert opened["value"] == 2.1
        registry.set_gauge("g", 0.9)
        assert engine.evaluate(2.0) == []  # still outside: stays open
        registry.set_gauge("g", 1.5)
        assert len(engine.evaluate(3.0)) == 1


class TestEventsAndInstants:
    def test_open_close_emitted_with_labels(self):
        registry = MetricsRegistry()
        log = EventLog()
        engine = AlertEngine(
            registry,
            [burn_rate_rule("burn", 1.0)],
            event_log=log,
            labels={"scenario": "bench"},
        )
        registry.set_gauge("serve.slo.burn_rate", 2.0)
        engine.evaluate(3.0)
        registry.set_gauge("serve.slo.burn_rate", 0.0)
        engine.evaluate(4.0)
        records = [e for e in log.events() if e.subsystem == "obs.alerts"]
        assert [r.kind for r in records] == ["alert_open", "alert_close"]
        assert all(r.labels["rule"] == "burn" for r in records)
        assert all(r.labels["scenario"] == "bench" for r in records)
        assert records[0].time == 3.0
        assert records[1].time == 4.0

    def test_instant_events_for_trace_overlay(self, tmp_path):
        # The trace draws the alert events of the run's one event log.
        registry = MetricsRegistry()
        log = EventLog()
        engine = AlertEngine(
            registry, [burn_rate_rule("burn", 1.0)], event_log=log
        )
        registry.set_gauge("serve.slo.burn_rate", 2.0)
        engine.evaluate(3.0)
        registry.set_gauge("serve.slo.burn_rate", 0.0)
        engine.evaluate(4.0)
        report = RunReport(
            kind="serve",
            label="alerts",
            spans=[
                {"name": "req", "category": "Request", "track": "t",
                 "start": 0.0, "end": 5.0}
            ],
            events=log.to_dicts(),
        )
        path = tmp_path / "trace.json"
        report.write_chrome_trace(str(path))
        instants = [
            e for e in json.loads(path.read_text())["traceEvents"]
            if e["ph"] == "i"
        ]
        assert [i["name"] for i in instants] == [
            "alert_open:burn",
            "alert_close:burn",
        ]
        assert instants[0]["ts"] == 3.0e6
        assert instants[0]["args"]["metric"] == "serve.slo.burn_rate"

    def test_summary_shape(self):
        registry = MetricsRegistry()
        engine = AlertEngine(registry, [burn_rate_rule("burn", 1.0)])
        registry.set_gauge("serve.slo.burn_rate", 2.0)
        engine.evaluate(0.0)
        summary = engine.summary()
        assert summary["evaluations"] == 1
        assert len(summary["episodes"]) == 1
        assert len(summary["open"]) == 1
        assert summary["rules"][0]["name"] == "burn"


class TestDeterminism:
    def _episode(self):
        registry = MetricsRegistry()
        log = EventLog()
        engine = AlertEngine(
            registry,
            [
                burn_rate_rule("burn", 1.0),
                band_rule("drift", "calibration.ratio", 0.5, 1.5),
            ],
            event_log=log,
            labels={"scenario": "det"},
        )
        registry.set_gauge("serve.slo.burn_rate", 2.0)
        registry.set_gauge("calibration.ratio", 2.0)
        engine.evaluate(1.0)
        registry.set_gauge("serve.slo.burn_rate", 0.0)
        engine.evaluate(3.0)
        registry.set_gauge("calibration.ratio", 1.0)
        engine.evaluate(5.0)
        return engine, log

    def test_identical_episodes_and_bytes_across_reruns(self):
        engine_a, log_a = self._episode()
        engine_b, log_b = self._episode()
        assert engine_a.summary() == engine_b.summary()
        assert log_a.lines() == log_b.lines()
