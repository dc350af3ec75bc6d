"""Tier-1 tests for critical-path forensics (:mod:`repro.obs.critical`).

The headline invariant — path segment durations telescope bit-exactly
to the schedule makespan — is checked on hand-built engines, on the
golden 48x6 two-tree scenario, and under fault injection.
"""

from pathlib import Path

import pytest

from repro.bench.costmodel import CostModel
from repro.core.config import VF2BoostConfig
from repro.core.profile import analytic_trace
from repro.core.protocol import ProtocolScheduler
from repro.fed.cluster import PAPER_CLUSTER
from repro.fed.faults import FaultPlan, FaultyEngine, LaneSlowdown, PauseWindow
from repro.fed.simtime import SimEngine, gantt_chart
from repro.gbdt.params import GBDTParams
from repro.obs.critical import (
    CriticalPath,
    WAIT,
    compute_slack,
    critical_gantt,
    critical_path,
    critical_path_section,
    op_of,
    tasks_from_graph,
)


def golden_schedule():
    params = GBDTParams(n_trees=2, learning_rate=0.1, n_layers=3, n_bins=4)
    trace = analytic_trace(
        48, 3, [3], density=1.0,
        n_bins=params.n_bins, n_layers=params.n_layers, n_trees=params.n_trees,
    )
    scheduler = ProtocolScheduler(
        VF2BoostConfig.vf2boost(params=params), CostModel.paper(), PAPER_CLUSTER
    )
    return scheduler.schedule(trace, collect_tasks=True)


@pytest.fixture(scope="module")
def golden():
    return golden_schedule()


class TestCriticalPathBasics:
    def test_chain_path_is_whole_chain(self):
        engine = SimEngine()
        a = engine.submit("r", 2.0, phase="p", name="a")
        b = engine.submit("r", 3.0, deps=[a], phase="p", name="b")
        path = critical_path(engine.tasks)
        assert path.total == engine.makespan
        assert path.task_ids == {a.task_id, b.task_id}
        assert path.wait_seconds == 0.0
        path.self_check()

    def test_diamond_picks_long_arm(self):
        engine = SimEngine()
        a = engine.submit("r1", 1.0, phase="p", name="a")
        short = engine.submit("r2", 1.0, deps=[a], phase="p", name="short")
        long = engine.submit("r3", 3.0, deps=[a], phase="p", name="long")
        d = engine.submit("r4", 1.0, deps=[short, long], phase="p", name="d")
        path = critical_path(engine.tasks)
        assert path.task_ids == {a.task_id, long.task_id, d.task_id}
        assert path.total == engine.makespan

    def test_lane_fifo_predecessor_on_path(self):
        # Two tasks on the same single-lane resource: the second waits
        # for the lane, not for a dep — the lane edge must be walked.
        engine = SimEngine()
        a = engine.submit("r", 2.0, phase="p", name="a")
        b = engine.submit("r", 2.0, phase="p", name="b")
        path = critical_path(engine.tasks)
        assert path.task_ids == {a.task_id, b.task_id}
        assert path.total == engine.makespan

    def test_not_before_gap_becomes_wait_segment(self):
        engine = SimEngine()
        engine.submit("r", 1.0, not_before=5.0, phase="p", name="late")
        path = critical_path(engine.tasks)
        kinds = [seg.kind for seg in path.segments]
        assert kinds == ["wait", "task"]
        assert path.wait_seconds == 5.0
        assert path.total == engine.makespan
        path.self_check()

    def test_empty_graph(self):
        path = critical_path([])
        assert isinstance(path, CriticalPath)
        assert path.segments == [] and path.total == 0.0

    def test_op_of(self):
        assert op_of("enc[0:16]") == "enc"
        assert op_of("hist7") == "hist"
        assert op_of("") == "(anon)"


class TestGoldenInvariant:
    def test_per_tree_paths_bit_exact(self, golden):
        assert golden.task_graphs, "collect_tasks=True must retain graphs"
        for tasks, tree_makespan in zip(golden.task_graphs, golden.per_tree):
            path = critical_path(tasks)
            assert path.total == tree_makespan  # bit-exact, not approx
            path.self_check()

    def test_section_total_matches_run_makespan(self, golden):
        section = golden.critical_path_section()
        assert section["total"] == golden.makespan
        assert section["makespan"] == golden.makespan
        assert len(section["trees"]) == len(golden.task_graphs)

    def test_on_path_tasks_have_zero_slack(self, golden):
        for tasks in golden.task_graphs:
            path = critical_path(tasks)
            slack = compute_slack(tasks)
            for task_id in path.task_ids:
                assert slack[task_id] == 0.0

    def test_attribution_sums_to_total(self, golden):
        section = golden.critical_path_section()
        attributed = sum(row["seconds"] for row in section["attribution"])
        assert attributed == pytest.approx(section["total"])
        shares = [row["share"] for row in section["attribution"]]
        assert shares == sorted(shares, reverse=True) or len(set(shares)) < len(shares)

    def test_section_deterministic(self, golden):
        again = golden_schedule().critical_path_section()
        assert again == golden.critical_path_section()

    def test_run_report_carries_section(self, golden):
        report = golden.run_report()
        assert report.critical_path
        assert report.critical_path["total"] == golden.makespan


class TestFaultInjectedPath:
    def plan(self):
        return FaultPlan(
            slowdowns=(LaneSlowdown("A1", 2.0),),
            pauses=(PauseWindow(party=0, start=1.0, end=1.5),),
        )

    def faulty_engine(self):
        engine = FaultyEngine(self.plan())
        engine.add_resource("A1", lanes=2)
        a = engine.submit("A1", 0.6, phase="Hist", name="hist", party=0)
        b = engine.submit("A1", 0.6, phase="Hist", name="hist", party=0)
        engine.submit("B", 0.5, deps=[a, b], phase="Dec", name="dec")
        return engine

    def test_invariant_holds_under_faults(self):
        engine = self.faulty_engine()
        path = critical_path(engine.tasks)
        assert path.total == engine.makespan
        path.self_check()

    def test_pause_produces_wait_segment(self):
        plan = FaultPlan(pauses=(PauseWindow(party=1, start=0.0, end=1.0),))
        engine = FaultyEngine(plan)
        engine.submit("A1", 0.5, phase="Hist", name="hist")
        path = critical_path(engine.tasks)
        assert path.wait_seconds == pytest.approx(1.0)
        assert any(seg.kind == "wait" and seg.name == WAIT for seg in path.segments)

    # Satellite: gantt determinism + breakdown/utilization consistency
    # on a fault-injected schedule.
    def test_gantt_deterministic_and_highlightable(self):
        engine = self.faulty_engine()
        assert engine.gantt() == self.faulty_engine().gantt()
        on_path = set(critical_path(engine.tasks).task_ids)
        chart = gantt_chart(engine.tasks, on_path=on_path)
        assert chart != engine.gantt()
        assert any(ch.isupper() for ch in chart)

    def test_phase_breakdown_matches_task_durations(self):
        engine = self.faulty_engine()
        breakdown = engine.phase_breakdown()
        assert sum(breakdown.values()) == pytest.approx(
            sum(task.duration for task in engine.tasks)
        )
        assert breakdown["Hist"] == pytest.approx(2.4)  # 2 x 0.6 x 2.0 slowdown

    def test_utilization_consistent_with_lane_utilization(self):
        engine = self.faulty_engine()
        for name in ("A1", "B"):
            lanes = [
                busy for (resource, _), busy in engine.lane_utilization().items()
                if resource == name
            ]
            # utilization() aggregates lanes (0..lanes), so it equals
            # the sum of the per-lane fractions.
            assert engine.utilization(name) == pytest.approx(sum(lanes))

    def test_utilizations_map_matches_scalar(self):
        engine = self.faulty_engine()
        assert engine.utilizations() == {
            name: engine.utilization(name) for name in ("A1", "B")
        }


class TestGraphRoundTrip:
    def test_export_import_preserves_path(self, golden):
        engine = SimEngine.from_tasks(list(golden.task_graphs[0]))
        data = engine.export_graph()
        rebuilt = tasks_from_graph(data)
        assert critical_path(rebuilt).to_dict() == critical_path(
            golden.task_graphs[0]
        ).to_dict()

    def test_from_graph_engine_equivalent(self, golden):
        engine = SimEngine.from_tasks(list(golden.task_graphs[0]))
        clone = SimEngine.from_graph(engine.export_graph())
        assert clone.makespan == engine.makespan
        assert clone.phase_breakdown() == engine.phase_breakdown()
        assert clone.gantt() == engine.gantt()


class TestCriticalGantt:
    def test_marks_path_and_reports_total(self, golden):
        tasks = golden.task_graphs[0]
        chart = critical_gantt(tasks)
        assert "critical path UPPERCASE" in chart
        assert any(ch.isupper() for ch in chart)

    def test_charts_byte_identical_to_pinned(self, golden):
        """Both renderings of the golden schedule, as taken at PR 20."""
        from repro.bench.experiments import run_critical_path

        pinned = Path(__file__).parent / "golden"
        assert golden.gantt == (pinned / "schedule_gantt.txt").read_text()
        assert run_critical_path()[1] == (
            pinned / "critical_rendered.txt"
        ).read_text()

    def test_waits_drawn_on_the_stalled_lane(self):
        plan = FaultPlan(pauses=(PauseWindow(party=1, start=0.0, end=1.0),))
        engine = FaultyEngine(plan)
        engine.submit("A1", 0.5, phase="Hist", name="hist")
        assert engine.gantt(width=24) == (
            "A1#0 |               HHHHHHHHH|\n"
            "      0................    1.50s"
        )
        assert critical_gantt(engine.tasks, width=24) == (
            "A1#0 |***************HHHHHHHHH|\n"
            "      0................    1.50s\n"
            "      critical path UPPERCASE, waits *; path = 1.50s over 1 tasks"
        )
        assert critical_gantt([]) == SimEngine().gantt() == "(empty schedule)"

    def test_section_empty_without_graphs(self):
        assert critical_path_section([]) == {}


class TestSlack:
    def test_slack_bounds(self):
        engine = SimEngine()
        a = engine.submit("r1", 1.0, phase="p", name="a")
        slow = engine.submit("r2", 5.0, deps=[a], phase="p", name="slow")
        fast = engine.submit("r3", 1.0, deps=[a], phase="p", name="fast")
        engine.submit("r4", 1.0, deps=[slow, fast], phase="p", name="join")
        slack = compute_slack(engine.tasks)
        assert slack[a.task_id] == 0.0
        assert slack[slow.task_id] == 0.0
        assert slack[fast.task_id] == pytest.approx(4.0)
