"""Tier-1 tests for regression forensics, the what-if explorer and the
observability satellites of the forensics PR: ``bench-gate --explain``,
``trace --summary``, Chrome counter tracks and per-lane tracer views."""

import dataclasses
import json

import pytest

from repro import cli
from repro.bench.costmodel import CostModel
from repro.bench.perfdb import PerfDB, PerfEntry
from repro.bench.scenario import GOLDEN, GOLDEN_DIMS
from repro.obs import RunReport, Span, Tracer
from repro.obs.forensics import (
    Contribution,
    classify_scalar,
    diff_reports,
    diff_scalar_maps,
    explain_failures,
)
from repro.obs.trace_export import write_chrome_trace
from repro.obs.whatif import (
    parse_speedups,
    perturb_cost,
    run_whatif,
)


class TestClassify:
    @pytest.mark.parametrize(
        "name,group",
        [
            ("ops.enc", "op"),
            ("phase.Enc", "phase"),
            ("critical.B", "critical"),
            ("critical.wait", "critical"),
            ("wire.0->1.bytes", "wire"),
            ("total_bytes", "wire"),
            ("sim_makespan", "makespan"),
            ("fleet.p99", "fleet"),
            ("canary.promotions", "fleet"),
            ("auc", "other"),
        ],
    )
    def test_groups(self, name, group):
        assert classify_scalar(name) == group


class TestDiffScalarMaps:
    def test_sorted_by_absolute_delta_then_name(self):
        contributions = diff_scalar_maps(
            {"a": 1.0, "b": 5.0, "c": 2.0},
            {"a": 2.0, "b": 1.0, "c": 3.0},
        )
        assert [c.name for c in contributions] == ["b", "a", "c"]

    def test_missing_side_diffs_against_zero(self):
        contributions = diff_scalar_maps({"gone": 3.0}, {"new": 4.0})
        by_name = {c.name: c for c in contributions}
        assert by_name["gone"].value == 0.0 and by_name["gone"].delta == -3.0
        assert by_name["new"].baseline == 0.0 and by_name["new"].delta == 4.0

    def test_zero_deltas_dropped_unless_asked(self):
        assert diff_scalar_maps({"same": 1.0}, {"same": 1.0}) == []
        kept = diff_scalar_maps({"same": 1.0}, {"same": 1.0}, include_zero=True)
        assert [c.name for c in kept] == ["same"]

    def test_deterministic(self):
        base = {f"s{i}": float(i) for i in range(20)}
        cur = {f"s{i}": float(i * 2 % 7) for i in range(20)}
        first = [c.to_dict() for c in diff_scalar_maps(base, cur)]
        second = [c.to_dict() for c in diff_scalar_maps(dict(base), dict(cur))]
        assert first == second

    def test_contribution_render(self):
        c = Contribution(name="ops.enc", group="op", baseline=10.0, value=15.0)
        assert c.render() == "ops.enc [op]: 10 -> 15 (grew 5, +50.0%)"
        z = Contribution(name="x", group="other", baseline=0.0, value=2.0)
        assert "%" not in z.render()


class TestDiffReports:
    def reports(self):
        baseline = RunReport(
            kind="schedule",
            makespan=2.0,
            phases={"Enc": 1.0, "SplitNode": 1.0},
            channels={"directions": {"0->1": {"bytes": 100, "messages": 4}}},
            critical_path={"by_resource": {"B": 1.9}, "wait_seconds": 0.1},
        )
        current = dataclasses.replace(
            baseline,
            makespan=3.0,
            phases={"Enc": 2.0, "SplitNode": 1.0},
            critical_path={"by_resource": {"B": 2.8}, "wait_seconds": 0.2},
        )
        return baseline, current

    def test_decomposition_names_guilty_phase(self):
        baseline, current = self.reports()
        diff = diff_reports(baseline, current)
        assert diff.regressed
        assert diff.makespan.delta == 1.0
        assert diff.sections["phases"][0].name == "Enc"
        assert diff.sections["critical"][0].name == "critical.B"
        assert diff.sections["wire"] == []

    def test_accepts_raw_dicts(self):
        baseline, current = self.reports()
        from_objects = diff_reports(baseline, current).to_dict()
        from_dicts = diff_reports(baseline.to_dict(), current.to_dict()).to_dict()
        assert from_objects == from_dicts

    def test_lines_mention_sections(self):
        baseline, current = self.reports()
        lines = diff_reports(baseline, current).lines()
        text = "\n".join(lines)
        assert "phases:" in text and "critical:" in text


class TestExplainFailures:
    def test_headline_then_breakdown(self):
        baseline = {"sim_makespan": 2.0, "ops.enc": 10.0}
        current = {"sim_makespan": 3.0, "ops.enc": 30.0}
        lines = explain_failures(baseline, current, {"sim_makespan"})
        assert lines[0].startswith("sim_makespan [makespan]: 2 -> 3")
        assert any("ops.enc" in line for line in lines)

    def test_flagged_but_unchanged(self):
        lines = explain_failures({"x": 1.0}, {"x": 1.0, "y": 2.0}, {"x"})
        assert lines[0] == "x: flagged but unchanged vs latest baseline"


class TestWhatIf:
    def test_parse_speedups(self):
        assert parse_speedups(["powmod=2", "wan=4"]) == {"powmod": 2.0, "wan": 4.0}
        with pytest.raises(ValueError):
            parse_speedups(["nonsense=2"])
        with pytest.raises(ValueError):
            parse_speedups(["powmod=0"])
        with pytest.raises(ValueError):
            parse_speedups(["powmod"])

    def test_perturb_cost_divides_targets(self):
        cost = CostModel.paper()
        faster = perturb_cost(cost, {"enc": 2.0})
        assert faster.t_enc == cost.t_enc / 2.0
        assert faster.t_dec == cost.t_dec  # untouched family

    def test_identity_speedup_changes_nothing(self):
        result = run_whatif({"powmod": 1.0})
        assert result.predicted_speedup == 1.0
        assert result.predicted_makespan_delta == 0.0
        assert not result.bottleneck_shifted

    def test_deterministic_and_shape_echoed(self):
        first = run_whatif({"powmod": 2.0}).to_dict()
        second = run_whatif({"powmod": 2.0}).to_dict()
        assert first == second
        assert first["shape"] == dict(sorted(GOLDEN.dims().items()))

    def test_large_shape_speeds_up(self):
        scenario = dataclasses.replace(GOLDEN_DIMS, n_instances=20000, n_features=10)
        result = run_whatif({"powmod": 8.0}, scenario=scenario)
        assert result.predicted_speedup > 1.0
        assert result.predicted_makespan_delta < 0.0

    def test_fig7_multipliers(self):
        result = run_whatif({"enc": 2.0})
        assert result.fig7_multipliers() == {"enc_ops_per_s": 2.0}


class TestWhatIfCLI:
    def test_requires_an_action(self, capsys):
        assert cli.main(["whatif"]) == 2
        assert "--speedup" in capsys.readouterr().err

    def test_bad_speedup_rejected(self, capsys):
        assert cli.main(["whatif", "--speedup", "bogus=2"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_json_payload(self, capsys):
        assert cli.main(["whatif", "--speedup", "powmod=2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["whatif"]["speedups"] == {"powmod": 2.0}
        assert "predicted_speedup" in payload["whatif"]

    def test_break_even_reports_a_point_or_never(self, capsys):
        assert cli.main(["whatif", "--break-even", "powmod", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        point = payload["break_even"]
        assert point["op"] == "powmod"
        assert "factor" in point and "bottleneck_before" in point


class TestBenchGateExplain:
    def test_injected_regression_names_guilty_scalar(self, tmp_path, capsys):
        db_path = str(tmp_path / "BENCH_perf.json")
        assert cli.main(["bench-gate", "--db", db_path]) == 0
        capsys.readouterr()
        # Inject a synthetic regression into a copy of the committed
        # baseline: bump one exact op count so the rerun's measurement
        # no longer matches.
        tampered = PerfDB.load(db_path)
        last = tampered.entries[-1]
        scalars = dict(last.scalars)
        scalars["ops.enc"] = dataclasses.replace(
            scalars["ops.enc"], value=scalars["ops.enc"].value + 7
        )
        tampered.entries[-1] = PerfEntry(
            name=last.name, scalars=scalars, meta=last.meta
        )
        tampered.save(db_path)
        assert cli.main(["bench-gate", "--db", db_path, "--explain"]) == 1
        out = capsys.readouterr().out
        assert "why the gate failed" in out
        assert "ops.enc" in out
        assert "contributions (largest first):" in out

    def test_explanation_deterministic(self, tmp_path, capsys):
        db_path = str(tmp_path / "perf.json")
        assert cli.main(["bench-gate", "--db", db_path]) == 0
        tampered = PerfDB.load(db_path)
        last = tampered.entries[-1]
        scalars = dict(last.scalars)
        scalars["sim_makespan"] = dataclasses.replace(
            scalars["sim_makespan"], value=scalars["sim_makespan"].value * 2
        )
        tampered.entries[-1] = PerfEntry(
            name=last.name, scalars=scalars, meta=last.meta
        )
        tampered.save(db_path)
        capsys.readouterr()
        assert cli.main(["bench-gate", "--db", db_path, "--explain", "--json"]) == 1
        first = json.loads(capsys.readouterr().out)["explanation"]
        assert cli.main(["bench-gate", "--db", db_path, "--explain", "--json"]) == 1
        second = json.loads(capsys.readouterr().out)["explanation"]
        assert first == second
        assert any("sim_makespan" in line for line in first)


def sample_report(with_spans=True, with_counters=False):
    spans = []
    if with_spans:
        spans = [
            Span(name="enc", category="Enc", track="B", lane=0,
                 start=0.0, end=1.0).to_dict(),
            Span(name="hist", category="Hist", track="A1", lane=1,
                 start=0.5, end=2.0).to_dict(),
        ]
    metrics = {}
    if with_counters:
        metrics = {"counters": {"ops.enc": 48.0, "ops.dec": 3.0}}
    return RunReport(
        kind="schedule",
        label="unit",
        phases={"Enc": 1.0, "Hist": 1.5} if with_spans else {},
        spans=spans,
        metrics=metrics,
        makespan=2.0,
    )


class TestTraceSummary:
    def test_prints_tables_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "run.report.json"
        sample_report().save(str(path))
        before = sorted(tmp_path.iterdir())
        assert cli.main(["trace", str(path), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "per-lane utilization" in out
        assert "A1#1" in out
        assert sorted(tmp_path.iterdir()) == before  # no trace file

    def test_empty_report_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.report.json"
        sample_report(with_spans=False).save(str(path))
        assert cli.main(["trace", str(path), "--summary"]) == 1
        assert "nothing to summarize" in capsys.readouterr().err


class TestCounterTracks:
    def test_counter_events_emitted(self, tmp_path):
        report = sample_report(with_counters=True)
        out = tmp_path / "trace.json"
        report.write_chrome_trace(str(out))
        events = json.loads(out.read_text())["traceEvents"]
        counters = [e for e in events if e.get("ph") == "C"]
        assert {e["name"] for e in counters} == {"ops.enc", "ops.dec"}
        assert all(e["args"]["value"] >= 0.0 for e in counters)
        # one sample at t=0 and one at the horizon per counter
        assert len(counters) == 4

    def test_byte_deterministic(self, tmp_path):
        spans = sample_report().span_objects()
        counters = {"ops.dec": 3.0, "ops.enc": 48.0}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(str(a), spans, counters=counters)
        write_chrome_trace(str(b), spans, counters=dict(reversed(counters.items())))
        assert a.read_bytes() == b.read_bytes()

    def test_no_counters_no_counter_events(self, tmp_path):
        out = tmp_path / "plain.json"
        sample_report().write_chrome_trace(str(out))
        events = json.loads(out.read_text())["traceEvents"]
        assert not [e for e in events if e.get("ph") == "C"]


class TestTracerLanes:
    def tracer(self):
        tracer = Tracer()
        tracer.extend(sample_report().span_objects())
        return tracer

    def test_lane_busy(self):
        busy = self.tracer().lane_busy()
        assert busy == {("A1", 1): 1.5, ("B", 0): 1.0}
        assert list(busy) == sorted(busy)

    def test_utilization_fractions(self):
        util = self.tracer().utilization()
        assert util[("A1", 1)] == pytest.approx(1.5 / 2.0)
        assert util[("B", 0)] == pytest.approx(0.5)

    def test_empty_tracer(self):
        assert Tracer().lane_busy() == {}
        assert Tracer().utilization() == {}
