"""Tests for the schedule race guard of ``SimEngine.submit``, the
analyzer's suppression audit (SUP001), and analyzer edge inputs.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.astutils import PackageIndex
from repro.analysis.cli import main, run_analysis
from repro.analysis.findings import (
    Finding,
    Reporter,
    Severity,
    audit_suppressions,
    parse_comment_suppressions,
)
from repro.fed.faults import FaultPlan, LaneSlowdown, PauseWindow
from repro.fed.simtime import FaultyEngine, SimEngine, SimTask

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def _write_pkg(tmp_path, files):
    pkg = tmp_path / "pkg"
    for rel, source in files.items():
        target = pkg / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return pkg


def _variant_graphs(schedule_graphs):
    """``(label, fault_plan, task_graph)``: the shared schedule graphs plus
    the protocol variants and cluster shapes they do not cover."""
    from repro.bench.costmodel import CostModel
    from repro.core.config import VF2BoostConfig
    from repro.core.profile import analytic_trace
    from repro.core.protocol import ProtocolScheduler
    from repro.fed.cluster import ClusterSpec

    graphs = list(schedule_graphs)
    trace = analytic_trace(4096, 16, [16, 8, 8], 0.5, 16, 4)
    variants = {
        "incremental-redo": VF2BoostConfig.vf2boost(incremental_dirty_redo=True),
        "no-optimistic": VF2BoostConfig.vf2boost(optimistic_split=False),
        "no-packing": VF2BoostConfig.vf2boost(histogram_packing=False),
    }
    for label, config in variants.items():
        scheduler = ProtocolScheduler(config, CostModel.paper(), ClusterSpec(n_workers=4))
        result = scheduler.schedule(trace, collect_tasks=True)
        graphs.append((label, None, result.task_graphs[0]))
    # Table 5's widest cluster, and Table 6's three passive parties
    # with the last one straggling and paused.
    table5 = ProtocolScheduler(
        VF2BoostConfig.vf2boost(), CostModel.paper(), ClusterSpec(n_workers=16)
    )
    graphs.append(("16-workers", None, table5.schedule(trace, collect_tasks=True).task_graphs[0]))
    plan = FaultPlan(
        seed=5,
        slowdowns=(LaneSlowdown("A3", 2.0),),
        pauses=(PauseWindow(party=3, start=0.2, end=0.9),),
    )
    parties = ProtocolScheduler(VF2BoostConfig.vf2boost(), CostModel.paper(), ClusterSpec())
    result = parties.schedule(trace, collect_tasks=True, fault_plan=plan)
    graphs.append(("3-passive+faults", plan, result.task_graphs[0]))
    return graphs


def _unordered_partners(tasks, new):
    """Ids of the ``tasks`` that conflict with ``new`` (a write against
    its read or write, or a read against its write) and have no
    happens-before path to it: a depth-first walk over dependency and
    same-``(resource, lane)`` FIFO edges, with none of the engine's
    bookkeeping."""
    preds, lane_last = {}, {}
    for task in [*tasks, new]:
        lane = (task.resource, task.lane)
        preds[task.task_id] = [*task.deps, *([lane_last[lane]] if lane in lane_last else [])]
        lane_last[lane] = task.task_id
    ancestors, stack = set(), [new.task_id]
    while stack:
        task_id = stack.pop()
        if task_id not in ancestors:
            ancestors.add(task_id)
            stack.extend(preds[task_id])
    new_reads, new_writes = new.reads or set(), new.writes or set()
    return [
        task.task_id
        for task in tasks
        if task.task_id not in ancestors
        and (
            (task.writes or set()) & (new_reads | new_writes)
            or (task.reads or set()) & new_writes
        )
    ]


_LOCATIONS = ("x", "y", "z", "w")
_FOOTPRINT = st.none() | st.frozensets(st.sampled_from(_LOCATIONS))
_GUARD_RESOURCES = ("B", "A1", "wan.out")


class TestRaceDetector:
    """``SimEngine.submit`` refuses a task whose declared access is not
    ordered after a conflicting earlier one."""

    def test_dependency_orders_tasks(self):
        engine = SimEngine()
        engine.add_resource("A0", lanes=2)
        write = engine.submit("A0", 1.0, name="w", reads=(), writes={"x"})
        read = engine.submit("A0", 1.0, deps=[write], name="r", reads={"x"}, writes=())
        assert read.lane != write.lane
        assert read.start == write.end

    def test_lane_fifo_orders_tasks(self):
        # Same (resource, lane): submission order is execution order.
        engine = SimEngine()
        first = engine.submit("A0", 1.0, reads=(), writes={"x"})
        second = engine.submit("A0", 1.0, reads=(), writes={"x"})
        assert (second.resource, second.lane) == (first.resource, first.lane)

    def test_unordered_write_write_fires(self):
        engine = SimEngine()
        engine.add_resource("A0", lanes=2)
        engine.submit("A0", 1.0, name="first", reads=(), writes={"x"})
        with pytest.raises(
            ValueError,
            match=r"unordered write/write on 'x': task 1 \('second' on A0\).*"
            r"task 0 \('first' on A0\)",
        ):
            engine.submit("A0", 1.0, name="second", reads=(), writes={"x"})
        assert len(engine.tasks) == 1

    def test_unordered_read_write_fires(self):
        # A read not ordered after the last write, and a write not
        # ordered after a read since that write.
        engine = SimEngine()
        engine.add_resource("A0", lanes=3)
        write = engine.submit("A0", 1.0, name="w", reads=(), writes={"x"})
        with pytest.raises(ValueError, match=r"unordered read/write on 'x'.*'w'"):
            engine.submit("A0", 1.0, name="r", reads={"x"}, writes=())
        engine.submit("A0", 1.0, deps=[write], name="r", reads={"x"}, writes=())
        with pytest.raises(ValueError, match=r"unordered read/write on 'x'.*'r'"):
            engine.submit("A0", 1.0, deps=[write], name="w2", reads=(), writes={"x"})

    def test_real_scheduler_graphs_are_race_free(self, schedule_graphs):
        # Cross-check the engine's verdict with the brute-force walk.
        for label, _plan, graph in _variant_graphs(schedule_graphs):
            for i, task in enumerate(graph):
                assert _unordered_partners(graph[:i], task) == [], (label, task.name)

    def test_dropped_dependency_is_detected(self, monkeypatch):
        # Mutation: the scheduler submits its first findA task without
        # dependencies on a fresh resource, so its read of the landed
        # passive histogram loses its ordering after the transfer.
        from repro.bench.costmodel import CostModel
        from repro.core.config import VF2BoostConfig
        from repro.core.profile import analytic_trace
        from repro.core.protocol import ProtocolScheduler
        from repro.fed.cluster import ClusterSpec

        submit = SimEngine.submit

        def mutant(self, resource_name, duration, deps=None, name="", **kwargs):
            if name.startswith("findA1"):
                resource_name, deps = "B.mutant", None
            return submit(self, resource_name, duration, deps=deps, name=name, **kwargs)

        monkeypatch.setattr(SimEngine, "submit", mutant)
        scheduler = ProtocolScheduler(
            VF2BoostConfig.vf2boost(), CostModel.paper(), ClusterSpec()
        )
        trace = analytic_trace(4096, 16, [16, 8], 0.5, 16, 4)
        with pytest.raises(
            ValueError, match=r"unordered read/write on 'B\.ahist.*'findA1\.0' on B\.mutant"
        ):
            scheduler.schedule(trace, collect_tasks=True)

    def test_every_working_scheduler_task_declares_a_footprint(self, schedule_graphs):
        for label, _plan, graph in _variant_graphs(schedule_graphs):
            for task in graph:
                if task.end - task.start > 1e-9:
                    assert task.reads is not None, (label, task.name)
                    assert task.writes is not None, (label, task.name)

    @given(
        steps=st.lists(
            st.tuples(
                st.integers(0, len(_GUARD_RESOURCES) - 1),
                st.one_of(st.just(0.0), st.floats(0.0, 3.0, allow_nan=False)),
                st.lists(st.integers(0, 10**6), max_size=3),  # deps, mod the count
                _FOOTPRINT,  # reads
                _FOOTPRINT,  # writes
            ),
            min_size=1,
            max_size=25,
        ),
        lanes=st.lists(st.integers(1, 3), min_size=3, max_size=3),
        faulty=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_submit_refuses_exactly_the_unordered_conflicts(self, steps, lanes, faulty):
        engine = SimEngine()
        if faulty:
            engine = FaultyEngine(
                FaultPlan(
                    slowdowns=(LaneSlowdown("A1", 2.0),),
                    pauses=(PauseWindow(party=1, start=0.5, end=2.0),),
                )
            )
        for resource, n_lanes in zip(_GUARD_RESOURCES, lanes):
            engine.add_resource(resource, lanes=n_lanes)
        for resource, duration, picks, reads, writes in steps:
            name = _GUARD_RESOURCES[resource]
            deps = [engine.tasks[k % len(engine.tasks)] for k in picks if engine.tasks]
            candidate = SimTask(
                name="t",
                phase="p",
                resource=name,
                lane=engine.resources[name].earliest_lane(),
                start=0.0,
                end=0.0,
                task_id=len(engine.tasks),
                deps=tuple(dep.task_id for dep in deps),
                reads=reads,
                writes=writes,
            )
            racy = _unordered_partners(engine.tasks, candidate)

            def submit():
                return engine.submit(
                    name, duration, deps=deps, name="t", phase="p",
                    reads=reads, writes=writes,
                )

            if racy:
                with pytest.raises(ValueError, match="unordered"):
                    submit()
                assert len(engine.tasks) == candidate.task_id
            else:
                assert submit().lane == candidate.lane

    def test_fully_dirty_layer_consumers_read_what_they_waited_for(self):
        # Every node is passive-owned, so every layer is dirty and the
        # next layer's only histogram part is the redo's (part 1).  Each
        # consumer must read a part that a task in its own dependency
        # closure wrote — lane order alone does not produce the data.
        from repro.bench.costmodel import CostModel
        from repro.core.config import VF2BoostConfig
        from repro.core.profile import analytic_trace
        from repro.core.protocol import ProtocolScheduler
        from repro.fed.cluster import ClusterSpec

        trace = analytic_trace(4096, 16, [16, 8], 0.5, 16, 4, active_split_ratio=0.0)
        scheduler = ProtocolScheduler(
            VF2BoostConfig.vf2boost(), CostModel.paper(), ClusterSpec()
        )
        graph = scheduler.schedule(trace, collect_tasks=True).task_graphs[0]
        by_id = {task.task_id: task for task in graph}

        def closure(task):
            seen, stack = set(), list(task.deps)
            while stack:
                dep = stack.pop()
                if dep not in seen:
                    seen.add(dep)
                    stack.extend(by_id[dep].deps)
            return [by_id[dep] for dep in seen]

        part_loc = ("hist[", "packed[", "ahist[")
        checked = set()
        for task in graph:
            stem = task.name.split(".")[0].rstrip("0123456789")
            if stem not in ("agg", "pack", "histcomm", "findA"):
                continue
            written = set().union(*(dep.writes or () for dep in closure(task)))
            for loc in task.reads:
                if any(marker in loc for marker in part_loc):
                    assert loc in written, (task.name, loc)
                    checked.add(stem)
        assert checked == {"agg", "pack", "histcomm", "findA"}


class TestSuppressionAudit:
    def _audit(self, tmp_path, source, fire_rule=None):
        pkg = _write_pkg(tmp_path, {"fed/mod.py": source})
        index = PackageIndex(pkg, package="pkg")
        merged = Reporter()
        from repro.analysis import determinism

        merged.extend(determinism.run(index))
        return audit_suppressions(index.modules.values(), merged)

    def test_unused_allow_fires(self, tmp_path):
        audit = self._audit(tmp_path, "X = 1  # repro: allow[PB001]\n")
        assert [f.rule_id for f in audit.findings] == ["SUP001"]
        assert audit.findings[0].severity == Severity.WARNING

    def test_used_allow_is_silent(self, tmp_path):
        audit = self._audit(
            tmp_path,
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()  # repro: allow[DET001]\n",
        )
        assert audit.findings == []

    def test_unused_file_wide_allow_fires(self, tmp_path):
        audit = self._audit(tmp_path, "# repro: allow-file[CR001]\nX = 1\n")
        assert [f.rule_id for f in audit.findings] == ["SUP001"]
        assert audit.findings[0].line == 0
        assert "file-wide" in audit.findings[0].message

    def test_allow_sup001_silences_the_audit(self, tmp_path):
        audit = self._audit(
            tmp_path, "X = 1  # repro: allow[PB001]  # repro: allow[SUP001]\n"
        )
        assert audit.findings == []
        assert [f.rule_id for f in audit.suppressed] == ["SUP001"]

    def test_doc_examples_are_not_suppressions(self):
        source = (
            '"""Docs.\n'
            "\n"
            "    # repro: allow[PB001]\n"
            '"""\n'
            "X = 1  # repro: allow[DET003]\n"
        )
        allowed = parse_comment_suppressions(source)
        assert allowed == {5: {"DET003"}}


class TestEdgeInputs:
    def test_syntax_error_becomes_syn001(self, tmp_path):
        pkg = _write_pkg(
            tmp_path,
            {
                "fed/broken.py": "def oops(:\n",
                "fed/fine.py": "import time\n\ndef t():\n    return time.time()\n",
            },
        )
        reporter = run_analysis(root=pkg, package="pkg")
        rules = sorted(f.rule_id for f in reporter.findings)
        # The broken file is reported AND the healthy file still scanned.
        assert "SYN001" in rules
        assert "DET001" in rules
        syn = [f for f in reporter.findings if f.rule_id == "SYN001"]
        assert syn[0].file == "pkg/fed/broken.py"
        assert syn[0].line >= 1

    def test_empty_package_and_empty_module(self, tmp_path):
        pkg = _write_pkg(tmp_path, {"__init__.py": "", "fed/empty.py": ""})
        reporter = run_analysis(root=pkg, package="pkg")
        assert reporter.findings == []

    def test_allow_file_and_line_allow_interplay(self, tmp_path):
        # File-wide DET001 + line-level DET002: both silence their rule,
        # neither silences the other's, and both count as used.
        pkg = _write_pkg(
            tmp_path,
            {
                "fed/mixed.py": (
                    "# repro: allow-file[DET001]\n"
                    "import random\n"
                    "import time\n"
                    "\n"
                    "def a():\n"
                    "    return time.time()\n"
                    "\n"
                    "def b():\n"
                    "    return random.Random()  # repro: allow[DET002]\n"
                    "\n"
                    "def c():\n"
                    "    return random.Random()\n"
                )
            },
        )
        reporter = run_analysis(root=pkg, package="pkg")
        assert [f.rule_id for f in reporter.findings] == ["DET002"]  # only c()
        assert sorted({f.rule_id for f in reporter.suppressed}) == [
            "DET001",
            "DET002",
        ]
        # Both suppressions were used, so no SUP001.
        assert not [f for f in reporter.findings if f.rule_id == "SUP001"]

    def test_sorted_findings_deterministic(self):
        findings = [
            Finding("PB001", Severity.ERROR, "b.py", 2, "z"),
            Finding("PB001", Severity.ERROR, "b.py", 2, "a"),
            Finding("CR001", Severity.ERROR, "a.py", 9, "m"),
            Finding("DET001", Severity.WARNING, "a.py", 1, "m"),
        ]
        forward, backward = Reporter(), Reporter()
        for f in findings:
            forward.emit(f)
        for f in reversed(findings):
            backward.emit(f)
        assert forward.sorted_findings() == backward.sorted_findings()
        keys = [(f.file, f.line, f.message) for f in forward.sorted_findings()]
        assert keys == [
            ("a.py", 9, "m"),
            ("b.py", 2, "a"),
            ("b.py", 2, "z"),
            ("a.py", 1, "m"),
        ]


class TestCliV2:
    def test_verbose_prints_pass_timings(self, capsys):
        rc = main(
            [
                "--root",
                str(FIXTURES / "leakypkg"),
                "--package",
                "leakypkg",
                "--verbose",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "leakypkg:parse" in err
        assert "total" in err

    def test_full_strict_run_under_budget(self, strict_run):
        # The one end-to-end run of the CI gate (the strict_run fixture);
        # every other repository assertion reads its repo_index /
        # repo_reporter.
        assert strict_run.exit_code == 0, f"strict gate failed:\n{strict_run.output}"
        elapsed = strict_run.seconds
        assert elapsed < 30.0, f"analysis took {elapsed:.1f}s (budget 30s)"
