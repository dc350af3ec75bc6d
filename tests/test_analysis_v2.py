"""Tests for the Analyzer v2 passes: schedule races (SCH10x), the
suppression audit (SUP001), and analyzer edge inputs.
"""

from pathlib import Path

import pytest

from repro.analysis import races
from repro.analysis.astutils import PackageIndex
from repro.analysis.cli import main, run_analysis
from repro.analysis.findings import (
    Finding,
    Reporter,
    Severity,
    audit_suppressions,
    parse_comment_suppressions,
)
from repro.fed.simtime import SimTask

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def _write_pkg(tmp_path, files):
    pkg = tmp_path / "pkg"
    for rel, source in files.items():
        target = pkg / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return pkg


def _task(
    task_id,
    deps=(),
    resource="A0",
    lane=0,
    start=0.0,
    end=1.0,
    name=None,
    reads=None,
    writes=None,
):
    return SimTask(
        name=name or f"t{task_id}",
        phase="Test",
        resource=resource,
        lane=lane,
        start=start,
        end=end,
        task_id=task_id,
        deps=tuple(deps),
        reads=None if reads is None else frozenset(reads),
        writes=None if writes is None else frozenset(writes),
    )


def _variant_graphs():
    """Self-check graphs plus the protocol variants they do not cover."""
    from repro.analysis.races import iter_self_check_graphs
    from repro.bench.costmodel import CostModel
    from repro.core.config import VF2BoostConfig
    from repro.core.profile import analytic_trace
    from repro.core.protocol import ProtocolScheduler
    from repro.fed.cluster import ClusterSpec

    for label, _plan, graph in iter_self_check_graphs(n_trees=1):
        yield label, graph
    trace = analytic_trace(4096, 16, [16, 8, 8], 0.5, 16, 4)
    variants = {
        "incremental-redo": VF2BoostConfig.vf2boost(incremental_dirty_redo=True),
        "no-optimistic": VF2BoostConfig.vf2boost(optimistic_split=False),
        "no-packing": VF2BoostConfig.vf2boost(histogram_packing=False),
    }
    for label, config in variants.items():
        scheduler = ProtocolScheduler(config, CostModel.paper(), ClusterSpec(n_workers=4))
        result = scheduler.schedule(trace, collect_tasks=True)
        yield label, result.task_graphs[0]


class TestRaceDetector:
    def test_dependency_orders_tasks(self):
        tasks = [
            _task(0, lane=0, reads=(), writes={"x"}),
            _task(1, deps=(0,), lane=1, start=1.0, end=2.0, reads={"x"}, writes=()),
        ]
        assert races.detect_races(tasks) == []

    def test_lane_fifo_orders_tasks(self):
        # Same (resource, lane): submission order is execution order.
        tasks = [
            _task(0, lane=0, reads=(), writes={"x"}),
            _task(1, lane=0, start=1.0, end=2.0, reads=(), writes={"x"}),
        ]
        assert races.detect_races(tasks) == []

    def test_unordered_write_write_fires(self):
        tasks = [
            _task(0, lane=0, reads=(), writes={"x"}),
            _task(1, lane=1, reads=(), writes={"x"}),
        ]
        found = races.detect_races(tasks)
        assert [f.rule_id for f in found] == ["SCH101"]

    def test_unordered_read_write_fires(self):
        tasks = [
            _task(0, lane=0, reads=(), writes={"x"}),
            _task(1, lane=1, reads={"x"}, writes=()),
        ]
        found = races.detect_races(tasks)
        assert [f.rule_id for f in found] == ["SCH102"]

    def test_missing_footprint_warns_only_for_real_work(self):
        tasks = [
            _task(0, lane=0),  # duration 1.0: warns
            _task(1, lane=1, start=0.0, end=0.0),  # anchor: silent
        ]
        found = races.detect_races(tasks)
        assert [f.rule_id for f in found] == ["SCH103"]
        assert found[0].severity == Severity.WARNING

    def test_real_scheduler_graphs_are_race_free(self):
        from repro.analysis.races import iter_self_check_graphs

        for label, _plan, graph in iter_self_check_graphs(n_trees=1):
            assert races.detect_races(graph, label) == []

    def test_dropped_dependency_is_detected(self):
        # Mutation: strip the dependencies off every findA task and move
        # it to a fresh lane — the read of B.ahist loses its ordering.
        import dataclasses

        from repro.analysis.races import iter_self_check_graphs

        label, _plan, graph = next(iter(iter_self_check_graphs(n_trees=1)))
        broken = [
            dataclasses.replace(t, deps=(), resource="B.mutant")
            if t.name.startswith("findA1")
            else t
            for t in graph
        ]
        rules = {f.rule_id for f in races.detect_races(broken, label)}
        assert "SCH102" in rules

    def test_every_working_scheduler_task_declares_a_footprint(self):
        for label, graph in _variant_graphs():
            for task in graph:
                if task.end - task.start > 1e-9:
                    assert task.reads is not None, (label, task.name)
                    assert task.writes is not None, (label, task.name)

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
        reporter = run_analysis(root=pkg, package="pkg", with_schedule=False)
        rules = sorted(f.rule_id for f in reporter.findings)
        # The broken file is reported AND the healthy file still scanned.
        assert "SYN001" in rules
        assert "DET001" in rules
        syn = [f for f in reporter.findings if f.rule_id == "SYN001"]
        assert syn[0].file == "pkg/fed/broken.py"
        assert syn[0].line >= 1

    def test_empty_package_and_empty_module(self, tmp_path):
        pkg = _write_pkg(tmp_path, {"__init__.py": "", "fed/empty.py": ""})
        reporter = run_analysis(root=pkg, package="pkg", with_schedule=False)
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
        reporter = run_analysis(root=pkg, package="pkg", with_schedule=False)
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
                "--no-schedule",
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
