"""Tests + invariants for the discrete-event scheduling engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fed.faults import FaultPlan, LaneSlowdown, PauseWindow
from repro.fed.simtime import (
    FaultyEngine,
    Resource,
    SimEngine,
    SimTask,
    party_of_resource,
)


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

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SimEngine().submit("r", -1.0, phase="p")

    def test_task_of_another_engine_is_refused(self):
        other = SimEngine()
        other.submit("r", 1.0, phase="p")
        foreign = other.submit("r", 1.0, phase="p")
        engine = SimEngine()
        engine.submit("r", 1.0, phase="p")
        with pytest.raises(ValueError, match="not a task of this engine"):
            # ``foreign.task_id`` is 1: same id, another engine's object
            engine.submit("r", 1.0, deps=[engine.tasks[0], foreign], phase="q")
        assert len(engine.tasks) == 1
        assert engine.resources["r"].free_at(0) == 1.0

    def test_a_dependency_not_yet_submitted_is_refused(self):
        # A dependency on a task the engine has not placed is the only
        # way to close a cycle; the next task id is not one yet.
        engine = SimEngine()
        first = engine.submit("r", 1.0, phase="p")
        ahead = SimTask("next", "p", "r", 0, 0.0, 1.0, task_id=1)
        with pytest.raises(ValueError, match="not a task of this engine"):
            engine.submit("r", 1.0, deps=[first, ahead], phase="q")
        assert engine.tasks == [first]


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


def assert_well_formed(tasks, plan=None):
    """The structure every engine-built graph has: each dependency an
    earlier task that ends by the dependent's start, no two tasks
    overlapping on one ``(resource, lane)``, and with a fault plan no
    task (zero-length anchors included) starting inside its party's
    pause window."""
    by_id = {task.task_id: task for task in tasks}
    for task in tasks:
        for dep_id in task.deps:
            assert dep_id < task.task_id and dep_id in by_id
            assert task.start >= by_id[dep_id].end
        party = party_of_resource(task.resource)
        if plan is not None and party is not None:
            assert plan.paused_at(party, task.start) is None
    lanes: dict = {}
    for task in tasks:
        lanes.setdefault((task.resource, task.lane), []).append(task)
    for lane_tasks in lanes.values():
        lane_tasks.sort(key=lambda t: (t.start, t.end))
        for earlier, later in zip(lane_tasks, lane_tasks[1:]):
            assert later.start >= earlier.end


#: engine resources: the active party, passive parties 1 and 2, a WAN link
_RESOURCES = ("B", "B.dec", "A1", "A2", "WAN.B->A1")
_TIME = st.floats(0.0, 6.0, allow_nan=False)
_DURATION = st.one_of(st.just(0.0), st.floats(0.0, 3.0, allow_nan=False))

_submissions = st.lists(
    st.tuples(
        st.integers(0, len(_RESOURCES) - 1),
        _DURATION,
        st.lists(st.integers(0, 10**6), max_size=3),  # deps, mod the count so far
    ),
    min_size=1,
    max_size=30,
)
_pauses = st.lists(
    st.builds(
        lambda party, start, length: PauseWindow(party, start, start + length),
        st.integers(0, 2),
        _TIME,
        st.floats(0.01, 2.0, allow_nan=False),
    ),
    max_size=4,
)
_slowdowns = st.lists(
    st.builds(
        LaneSlowdown,
        st.sampled_from(_RESOURCES),
        st.floats(1.0, 4.0, allow_nan=False),
    ),
    max_size=3,
)


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
        assert_well_formed(engine.tasks)
        # Makespan equals the max end.
        if engine.tasks:
            assert engine.makespan == max(t.end for t in engine.tasks)

    @given(
        submissions=_submissions,
        lanes=st.lists(st.integers(1, 3), min_size=len(_RESOURCES),
                       max_size=len(_RESOURCES)),
        faulty=st.booleans(),
        pauses=_pauses,
        slowdowns=_slowdowns,
    )
    @settings(max_examples=150, deadline=None)
    def test_every_submission_sequence_builds_a_well_formed_graph(
        self, submissions, lanes, faulty, pauses, slowdowns
    ):
        plan = None
        engine = SimEngine()
        if faulty:
            plan = FaultPlan(pauses=tuple(pauses), slowdowns=tuple(slowdowns))
            engine = FaultyEngine(plan)
        for name, n_lanes in zip(_RESOURCES, lanes):
            engine.add_resource(name, lanes=n_lanes)
        for resource, duration, picks in submissions:
            deps = [engine.tasks[k % len(engine.tasks)] for k in picks if engine.tasks]
            engine.submit(_RESOURCES[resource], duration, deps=deps, phase="p")
        assert_well_formed(engine.tasks, plan)

    def test_self_check_graphs_are_well_formed(self, schedule_graphs):
        assert any(plan is not None for _label, plan, _graph in schedule_graphs)
        for _label, plan, graph in schedule_graphs:
            assert_well_formed(graph, plan)
