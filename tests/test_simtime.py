"""Tests + invariants for the discrete-event scheduling engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fed.simtime import Resource, SimEngine


class TestResource:
    def test_single_lane_serializes(self):
        engine = SimEngine()
        a = engine.submit("r", 2.0, phase="p")
        b = engine.submit("r", 3.0, phase="p")
        assert a.start == 0.0 and a.end == 2.0
        assert b.start == 2.0 and b.end == 5.0

    def test_multi_lane_parallel(self):
        engine = SimEngine()
        engine.add_resource("r", lanes=2)
        a = engine.submit("r", 2.0, phase="p")
        b = engine.submit("r", 2.0, phase="p")
        assert a.start == b.start == 0.0
        assert {a.lane, b.lane} == {0, 1}

    def test_duplicate_registration_rejected(self):
        engine = SimEngine()
        engine.add_resource("r")
        with pytest.raises(ValueError):
            engine.add_resource("r")

    def test_invalid_lanes(self):
        with pytest.raises(ValueError):
            Resource("x", lanes=0)


class TestDependencies:
    def test_dependency_delays_start(self):
        engine = SimEngine()
        a = engine.submit("r1", 5.0, phase="p")
        b = engine.submit("r2", 1.0, deps=[a], phase="q")
        assert b.start == 5.0

    def test_diamond_dependencies(self):
        engine = SimEngine()
        a = engine.submit("r1", 1.0, phase="p")
        b = engine.submit("r2", 2.0, deps=[a], phase="p")
        c = engine.submit("r3", 3.0, deps=[a], phase="p")
        d = engine.submit("r4", 1.0, deps=[b, c], phase="p")
        assert d.start == 4.0
        assert engine.makespan == 5.0

    def test_not_before(self):
        engine = SimEngine()
        a = engine.submit("r", 1.0, not_before=10.0, phase="p")
        assert a.start == 10.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SimEngine().submit("r", -1.0, phase="p")


class TestPipelining:
    def test_three_stage_pipeline_overlaps(self):
        # 4 batches through stages of 1s each: makespan = 3 + (4-1) = 6.
        engine = SimEngine()
        for b in range(4):
            s1 = engine.submit("stage1", 1.0, phase="a")
            s2 = engine.submit("stage2", 1.0, deps=[s1], phase="b")
            engine.submit("stage3", 1.0, deps=[s2], phase="c")
        assert engine.makespan == pytest.approx(6.0)

    def test_bottleneck_stage_dominates(self):
        engine = SimEngine()
        for b in range(10):
            s1 = engine.submit("s1", 0.1, phase="a")
            s2 = engine.submit("s2", 1.0, deps=[s1], phase="b")
            engine.submit("s3", 0.1, deps=[s2], phase="c")
        assert engine.makespan == pytest.approx(0.1 + 10 * 1.0 + 0.1)


class TestReporting:
    def test_phase_breakdown(self):
        engine = SimEngine()
        engine.submit("r", 1.0, phase="a")
        engine.submit("r", 2.0, phase="a")
        engine.submit("r", 3.0, phase="b")
        breakdown = engine.phase_breakdown()
        assert breakdown == {"a": 3.0, "b": 3.0}

    def test_utilization(self):
        engine = SimEngine()
        a = engine.submit("r1", 4.0, phase="p")
        engine.submit("r2", 1.0, deps=[a], phase="p")
        assert engine.utilization("r1") == pytest.approx(4.0 / 5.0)
        assert engine.utilization("r2") == pytest.approx(1.0 / 5.0)

    def test_empty_gantt(self):
        assert "empty" in SimEngine().gantt()

    def test_gantt_renders(self):
        engine = SimEngine()
        a = engine.submit("alpha", 1.0, phase="Enc")
        engine.submit("beta", 2.0, deps=[a], phase="Comm")
        chart = engine.gantt(width=40)
        assert "alpha#0" in chart and "beta#0" in chart
        assert "E" in chart and "C" in chart


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),  # resource id
                st.floats(0.0, 5.0),  # duration
                st.integers(0, 4),  # dependency back-reference
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40)
    def test_no_lane_overlap_and_deps_respected(self, plan):
        engine = SimEngine()
        tasks = []
        for resource_id, duration, back in plan:
            deps = []
            if tasks and back > 0:
                deps = [tasks[max(0, len(tasks) - back)]]
            tasks.append(
                engine.submit(f"r{resource_id}", duration, deps=deps, phase="p")
            )
        # Dependencies respected.
        for (_, _, back), task in zip(plan, tasks):
            pass
        # No two tasks on the same (resource, lane) overlap.
        by_lane: dict = {}
        for task in engine.tasks:
            by_lane.setdefault((task.resource, task.lane), []).append(task)
        for lane_tasks in by_lane.values():
            lane_tasks.sort(key=lambda t: t.start)
            for earlier, later in zip(lane_tasks, lane_tasks[1:]):
                assert later.start >= earlier.end - 1e-12
        # Makespan equals the max end.
        if engine.tasks:
            assert engine.makespan == max(t.end for t in engine.tasks)
