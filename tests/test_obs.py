"""Tests for :mod:`repro.obs` — metrics, tracing, export, reports.

Includes the protocol-parity gate: the Chrome trace-event export of a
small :class:`ProtocolScheduler` run must be byte-identical across two
runs, and its per-phase durations must sum to the engine's own
phase accounting.
"""

import json

import pytest

from repro.bench.costmodel import CostModel
from repro.bench.report import phase_table
from repro.core.config import VF2BoostConfig
from repro.core.profile import analytic_trace
from repro.core.protocol import ProtocolScheduler
from repro.fed.channel import RecordingChannel
from repro.fed.cluster import PAPER_CLUSTER
from repro.fed.messages import CountedCipherPayload, PackedHistogramMessage, SplitQuery
from repro.fed.simtime import SimEngine
from repro.gbdt.params import GBDTParams
from repro.obs import metrics
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.report import RunReport, channel_report
from repro.obs.trace_export import chrome_trace, dumps_chrome_trace
from repro.obs.tracer import Span, Tracer, spans_from_tasks


class TestMetricsRegistry:
    def test_counters_accumulate_and_prefix_filter(self):
        reg = MetricsRegistry()
        reg.inc("crypto.enc")
        reg.inc("crypto.enc", 4)
        reg.inc("channel.bytes", 100)
        assert reg.get("crypto.enc") == 5
        assert reg.counters("crypto.") == {"enc": 5}
        assert reg.get("never.seen") == 0

    def test_histogram_get_or_create(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("lat")
        h2 = reg.histogram("lat")
        assert h1 is h2
        reg.observe("lat", 0.2)
        assert h1.count == 1

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("h", 0.5)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "histograms"}
        assert snap["counters"] == {"a": 1}
        json.dumps(snap)  # serializable


class TestHistogram:
    def test_quantiles_and_mean(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean() == pytest.approx(2.5)
        assert h.quantile(1.0) == 5.0

    def test_snapshot_has_overflow_bucket(self):
        h = Histogram(bounds=(1.0,))
        h.observe(9.0)
        snap = h.snapshot()
        assert snap["buckets"]["overflow"] == 1


class TestHistogramCap:
    """Decimation at the sample cap, with the cap lowered to a few samples."""

    @staticmethod
    def capped(monkeypatch, cap, bounds):
        monkeypatch.setattr(metrics, "DEFAULT_MAX_SAMPLES", cap)
        return Histogram(bounds=bounds)

    def test_below_cap_everything_is_exact(self, monkeypatch):
        values = (3.0, 1.0, 7.0, 5.0)
        exact = Histogram(bounds=(10.0,))
        capped = self.capped(monkeypatch, 8, (10.0,))
        for v in values:
            capped.observe(v)
            exact.observe(v)
        assert capped.stride == 1
        assert capped.samples == list(values)
        assert capped.snapshot() == exact.snapshot()

    def test_decimation_doubles_stride_and_bounds_memory(self, monkeypatch):
        h = self.capped(monkeypatch, 8, (1000.0,))
        for i in range(64):
            h.observe(float(i))
        assert h.count == 64
        assert h.stride > 1
        assert len(h.samples) < 8
        # Retained samples are the index % stride == 0 arrivals.
        assert h.samples == [float(i) for i in range(64) if i % h.stride == 0]

    def test_exact_stats_survive_decimation(self, monkeypatch):
        h = self.capped(monkeypatch, 4, (1000.0,))
        values = [float(v) for v in (5, 1, 9, 2, 8, 3, 7, 4, 6, 10)]
        for v in values:
            h.observe(v)
        assert h.stride > 1
        assert h.count == len(values)
        assert h.mean() == pytest.approx(sum(values) / len(values))
        assert h.snapshot()["max"] == 10.0  # max is tracked exactly forever
        assert sum(h.counts) == len(values)  # buckets are never decimated

    def test_decimation_is_deterministic(self, monkeypatch):
        def run():
            h = self.capped(monkeypatch, 4, (100.0,))
            for i in range(50):
                h.observe(float(i % 13))
            return h.samples, h.stride, h.snapshot()

        assert run() == run()
        assert run()[1] > 1

    def test_quantile_degrades_to_subsample_not_garbage(self, monkeypatch):
        h = self.capped(monkeypatch, 16, (1e9,))
        for i in range(1000):
            h.observe(float(i))
        assert h.stride > 1
        # The subsampled median stays within a stride of the true one.
        assert abs(h.quantile(0.5) - 499.5) <= 2 * h.stride


class TestTracer:
    def test_add_and_phase_totals(self):
        tracer = Tracer()
        tracer.add("a", 0.0, 1.0, category="Enc", track="B")
        tracer.add("b", 1.0, 3.0, category="Comm", track="wan")
        assert tracer.phase_totals() == {"Comm": 2.0, "Enc": 1.0}
        assert tracer.makespan == 3.0

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            Span(name="bad", category="", track="t", start=2.0, end=1.0)

    def test_span_dict_round_trip(self):
        span = Span(
            name="s", category="C", track="t", start=0.0, end=1.5,
            lane=2, args={"tree": 1},
        )
        assert Span.from_dict(span.to_dict()) == span


def _small_schedule():
    params = GBDTParams(n_layers=3, n_bins=8)
    trace = analytic_trace(
        n_instances=10_000,
        features_active=200,
        features_passive=[200],
        density=0.01,
        n_bins=params.n_bins,
        n_layers=params.n_layers,
    )
    config = VF2BoostConfig.vf2boost(params=params)
    scheduler = ProtocolScheduler(config, CostModel.paper(), PAPER_CLUSTER)
    return scheduler.schedule(trace, collect_tasks=True)


class TestChromeTraceExport:
    def test_protocol_export_is_deterministic(self):
        """Byte-identical Chrome traces across two independent runs."""
        first = dumps_chrome_trace(_small_schedule().spans())
        second = dumps_chrome_trace(_small_schedule().spans())
        assert first == second

    def test_phase_durations_sum_to_engine_accounting(self):
        result = _small_schedule()
        spans = result.spans()
        by_cat: dict = {}
        for span in spans:
            by_cat[span.category] = by_cat.get(span.category, 0.0) + span.duration
        for phase, total in result.phase_totals.items():
            assert by_cat[phase] == pytest.approx(total)
        assert sum(by_cat.values()) == pytest.approx(
            sum(result.phase_totals.values())
        )

    def test_trace_spans_cover_engine_makespan(self):
        result = _small_schedule()
        assert max(s.end for s in result.spans()) == pytest.approx(
            result.makespan
        )

    def test_event_structure(self):
        spans = [
            Span(name="a", category="Enc", track="B", start=0.0, end=0.5),
            Span(name="b", category="Comm", track="wan", start=0.5, end=1.0),
        ]
        doc = chrome_trace(spans)
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert {m["name"] for m in metas} == {"process_name", "thread_name"}
        assert len(xs) == 2
        # ts/dur are microseconds.
        assert xs[0]["dur"] == 500000
        # Distinct tracks land on distinct pids.
        assert len({e["pid"] for e in xs}) == 2


class TestSpansFromTasks:
    def test_duck_typed_conversion(self):
        engine = SimEngine()
        a = engine.submit("B", 1.0, name="enc", phase="Enc")
        engine.submit("wan", 2.0, deps=[a], name="send", phase="Comm")
        spans = spans_from_tasks(engine.tasks, offset=10.0, args={"tree": 0})
        assert [s.category for s in spans] == ["Enc", "Comm"]
        assert spans[0].start == 10.0
        assert spans[1].args == {"tree": 0}

    def test_by_phase_groups_every_task(self):
        engine = SimEngine()
        engine.submit("B", 1.0, name="e1", phase="Enc")
        engine.submit("B", 1.0, name="e2", phase="Enc")
        engine.submit("wan", 1.0, name="c1", phase="Comm")
        groups = engine.by_phase()
        assert {k: len(v) for k, v in groups.items()} == {"Enc": 2, "Comm": 1}
        assert sum(engine.phase_breakdown().values()) == pytest.approx(3.0)


class TestChannelReport:
    def test_per_direction_and_per_type_totals(self):
        channel = RecordingChannel(256)
        channel.send(SplitQuery(0, 1))
        channel.send(CountedCipherPayload(1, 0, stands_for=PackedHistogramMessage, n_ciphers=2))
        report = channel_report(channel)
        assert report["total_messages"] == 2
        assert report["total_bytes"] == channel.total_bytes()
        assert "SplitQuery" in report["directions"]["0->1"]["by_type"]
        assert report["by_type"]["CountedCipherPayload"]["messages"] == 1


class TestRunReport:
    def test_save_load_round_trip(self, tmp_path):
        result = _small_schedule()
        report = result.run_report(label="small", config={"n": 10_000})
        path = tmp_path / "run.report.json"
        report.save(str(path))
        loaded = RunReport.load(str(path))
        assert loaded.kind == "schedule"
        assert loaded.label == "small"
        assert loaded.phases == report.phases
        assert loaded.makespan == pytest.approx(result.makespan)
        assert len(loaded.span_objects()) == len(report.spans)

    def test_load_refuses_what_it_cannot_read(self, tmp_path):
        path = tmp_path / "bad.report.json"
        good = RunReport(kind="train", label="x").to_dict()
        for text, complaint in [
            (json.dumps({**good, "version": 99}), "schema version 99"),
            (json.dumps({**good, "surprise": 1, "extra": 2}), r"\['extra', 'surprise'\]"),
            (json.dumps(good)[:40], "not valid JSON"),
            (json.dumps([good]), "not a RunReport JSON object"),
        ]:
            path.write_text(text)
            with pytest.raises(ValueError, match=complaint) as caught:
                RunReport.load(str(path))
            assert str(path) in str(caught.value)

    def test_v4_report_without_flight_recorder_fields_loads(self, tmp_path):
        data = RunReport(kind="schedule", label="old", makespan=2.5).to_dict()
        for added_after_v4 in ("events", "incidents", "context"):
            del data[added_after_v4]
        data["version"] = 4
        path = tmp_path / "v4.report.json"
        path.write_text(json.dumps(data))
        loaded = RunReport.load(str(path))
        assert (loaded.makespan, loaded.events, loaded.incidents) == (2.5, [], [])
        assert loaded.context == {}

    def test_v6_report_drops_its_alerts_and_keeps_its_events(self, tmp_path):
        # Version 7 dropped the alert-engine summary: a v6 file's alert
        # episodes are still in its events.
        opened = {"kind": "alert_open", "subsystem": "obs.alerts", "time": 1.5}
        data = RunReport(kind="serve", label="old", events=[opened]).to_dict()
        data.update(version=6, alerts={"rules": [], "episodes": [], "open": []})
        path = tmp_path / "v6.report.json"
        path.write_text(json.dumps(data))
        loaded = RunReport.load(str(path))
        assert loaded.events == [opened]
        assert "alerts" not in loaded.to_dict()
        data["version"] = 7
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"unknown field\(s\): \['alerts'\]"):
            RunReport.load(str(path))

    def test_v7_report_drops_its_artifacts_and_keeps_its_fingerprint(self, tmp_path):
        # Version 8 dropped the sidecar paths.  The fingerprint hashes no
        # version stamp and no empty field, so the old file has the
        # fingerprint of the same report built in memory.
        report = RunReport(
            kind="fault_recovery",
            events=[{"kind": "drop", "subsystem": "fed.reliable", "time": 0.5}],
            context={"time": 1.0},
        )
        data = report.to_dict()
        data.update(version=7, artifacts={})
        path = tmp_path / "v7.report.json"
        path.write_text(json.dumps(data))
        loaded = RunReport.load(str(path))
        assert loaded == report
        assert loaded.fingerprint() == report.fingerprint()
        data["version"] = 8
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"unknown field\(s\): \['artifacts'\]"):
            RunReport.load(str(path))

    def test_schema_version_moves_no_fingerprint(self, monkeypatch):
        from repro.obs import report as report_module

        reports = [
            RunReport(kind="serve"),
            RunReport(kind="train", label="x", makespan=2.5, context={"a": 1}),
        ]
        before = [r.fingerprint() for r in reports]
        monkeypatch.setattr(report_module, "REPORT_VERSION", 99)
        assert reports[0].to_dict()["version"] == 99
        assert [r.fingerprint() for r in reports] == before
        assert RunReport(kind="serve", label="y").fingerprint() != before[0]

    def test_write_chrome_trace_from_report(self, tmp_path):
        result = _small_schedule()
        report = result.run_report()
        path = tmp_path / "run.trace.json"
        count = report.write_chrome_trace(str(path))
        assert count == len(report.spans)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_write_chrome_trace_without_spans_raises(self, tmp_path):
        report = RunReport(kind="serve")
        with pytest.raises(ValueError):
            report.write_chrome_trace(str(tmp_path / "t.json"))


class TestTraceCli:
    def test_trace_subcommand_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        result = _small_schedule()
        report_path = tmp_path / "run.report.json"
        result.run_report(label="cli").save(str(report_path))
        trace_path = tmp_path / "run.trace.json"
        assert main(["trace", str(report_path), "-o", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        # The CLI re-export equals a direct export of the same spans.
        assert trace_path.read_text() == dumps_chrome_trace(result.spans())

    def test_trace_subcommand_rejects_spanless_report(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "empty.report.json"
        RunReport(kind="serve").save(str(report_path))
        assert main(["trace", str(report_path)]) == 1

    def test_trace_summary_prints_a_train_reports_op_profile(self, tmp_path, capsys):
        # A train report has no phases or spans: --summary prints its
        # per-phase crypto-op table (real Paillier, two trees).
        from repro.cli import main

        report_path = tmp_path / "run.report.json"
        assert main(["train", "--crypto-mode", "real", "--trees", "2",
                     "--report-out", str(report_path)]) == 0
        profile = RunReport.load(str(report_path)).profile
        capsys.readouterr()
        assert main(["trace", str(report_path), "--summary"]) == 0
        out = capsys.readouterr().out.splitlines()
        title = out.index("train run 'cli-train' crypto ops per phase:")
        header = [cell.strip() for cell in out[title + 1].split("|")]
        assert header == ["phase", *profile["ops"]]
        rows = {
            cells[0]: [int(cell) for cell in cells[1:]]
            for cells in (
                [cell.strip() for cell in line.split("|")]
                for line in out[title + 3:]
            )
        }
        assert set(rows) == {"GradEnc", "Histogram", "Split", "Leaf", "total"}
        for phase, counts in profile["phases"].items():
            assert rows[phase] == list(counts.values())
        assert rows["total"] == list(profile["ops"].values())
        assert rows["GradEnc"][header.index("encryptions") - 1] > 0


class TestPhaseTable:
    def test_rows_sorted_and_share_sums(self):
        rendered = phase_table({"Enc": 3.0, "Comm": 1.0}, title="phases:")
        lines = rendered.splitlines()
        assert lines[0] == "phases:"
        body = "\n".join(lines)
        assert body.index("Enc") < body.index("Comm")
        assert "75.0%" in body and "25.0%" in body
        assert "total" in body
