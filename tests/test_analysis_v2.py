"""Tests for the Analyzer v2 passes: ciphertext domains (CR10x),
schedule races (SCH10x), the suppression audit (SUP001), SARIF output,
and analyzer edge inputs.
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis import domains, races
from repro.analysis.astutils import PackageIndex
from repro.analysis.cli import check_graph_file, main, run_analysis
from repro.analysis.findings import (
    Finding,
    Reporter,
    Severity,
    audit_suppressions,
    parse_comment_suppressions,
)
from repro.analysis.sarif import render_sarif
from repro.fed.simtime import SimTask

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def _write_pkg(tmp_path, files):
    pkg = tmp_path / "pkg"
    for rel, source in files.items():
        target = pkg / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return pkg


def _task(task_id, deps=(), resource="A0", lane=0, start=0.0, end=1.0, name=None):
    return SimTask(
        name=name or f"t{task_id}",
        phase="Test",
        resource=resource,
        lane=lane,
        start=start,
        end=end,
        task_id=task_id,
        deps=tuple(deps),
    )


class TestDomainChecker:
    def _run(self, tmp_path, source):
        pkg = _write_pkg(tmp_path, {"crypto/mod.py": source})
        return domains.run(PackageIndex(pkg, package="pkg"))

    def test_legal_patterns_stay_silent(self, tmp_path):
        reporter = self._run(
            tmp_path,
            "def fine(ctx, g: float):\n"
            "    a = ctx.encrypt(g)\n"
            "    b = ctx.encrypt(2.0)\n"
            "    c = a + b\n"  # HAdd: legal
            "    d = a * 3.0\n"  # SMul: legal
            "    e = ctx.add_plain(a, g)\n"  # explicit API: legal
            "    return c, d, e\n",
        )
        assert reporter.findings == []

    def test_cipher_plus_plain_fires(self, tmp_path):
        reporter = self._run(
            tmp_path,
            "def bad(ctx, g: float):\n"
            "    c = ctx.encrypt(g)\n"
            "    return c + 1.0\n",
        )
        assert [f.rule_id for f in reporter.findings] == ["CR101"]

    def test_interprocedural_summary(self, tmp_path):
        reporter = self._run(
            tmp_path,
            "def make(ctx, v: float):\n"
            "    return ctx.encrypt(v)\n"
            "\n"
            "def use(ctx, v: float):\n"
            "    c = make(ctx, v)\n"
            "    return c + v\n",
        )
        assert [f.rule_id for f in reporter.findings] == ["CR101"]

    def test_annotation_seeds_domain(self, tmp_path):
        reporter = self._run(
            tmp_path,
            "def bad(cipher: EncryptedNumber, bias: float):\n"
            "    return cipher + bias\n",
        )
        assert [f.rule_id for f in reporter.findings] == ["CR101"]

    def test_unknown_domains_never_fire(self, tmp_path):
        reporter = self._run(
            tmp_path,
            "def opaque(a, b):\n"
            "    return a + b\n",
        )
        assert reporter.findings == []

    def test_out_of_scope_module_skipped(self, tmp_path):
        pkg = _write_pkg(
            tmp_path,
            {
                "extensions/mod.py": (
                    "def bad(ctx, g: float):\n"
                    "    return ctx.encrypt(g) + 1.0\n"
                )
            },
        )
        reporter = domains.run(PackageIndex(pkg, package="pkg"))
        assert reporter.findings == []

    def test_repo_scans_clean(self, repo_index):
        reporter = domains.run(repo_index)
        assert reporter.findings == []


class TestRaceDetector:
    def test_dependency_orders_tasks(self):
        tasks = [
            _task(0, lane=0),
            _task(1, deps=(0,), lane=1, start=1.0, end=2.0),
        ]
        effects = {
            0: (frozenset(), frozenset({"x"})),
            1: (frozenset({"x"}), frozenset()),
        }
        assert races.detect_races(tasks, lambda t: effects[t.task_id]) == []

    def test_lane_fifo_orders_tasks(self):
        # Same (resource, lane): submission order is execution order.
        tasks = [_task(0, lane=0), _task(1, lane=0, start=1.0, end=2.0)]
        effects = {
            0: (frozenset(), frozenset({"x"})),
            1: (frozenset(), frozenset({"x"})),
        }
        assert races.detect_races(tasks, lambda t: effects[t.task_id]) == []

    def test_unordered_write_write_fires(self):
        tasks = [_task(0, lane=0), _task(1, lane=1)]
        effects = {
            0: (frozenset(), frozenset({"x"})),
            1: (frozenset(), frozenset({"x"})),
        }
        found = races.detect_races(tasks, lambda t: effects[t.task_id])
        assert [f.rule_id for f in found] == ["SCH101"]

    def test_unordered_read_write_fires(self):
        tasks = [_task(0, lane=0), _task(1, lane=1)]
        effects = {
            0: (frozenset(), frozenset({"x"})),
            1: (frozenset({"x"}), frozenset()),
        }
        found = races.detect_races(tasks, lambda t: effects[t.task_id])
        assert [f.rule_id for f in found] == ["SCH102"]

    def test_missing_footprint_warns_only_for_real_work(self):
        tasks = [
            _task(0, lane=0),  # duration 1.0: warns
            _task(1, lane=1, start=0.0, end=0.0),  # anchor: silent
        ]
        found = races.detect_races(tasks, lambda t: None)
        assert [f.rule_id for f in found] == ["SCH103"]
        assert found[0].severity == Severity.WARNING

    def test_real_scheduler_graphs_are_race_free(self):
        reporter = races.self_check(n_trees=1)
        assert reporter.findings == []

    def test_dropped_dependency_is_detected(self):
        # Mutation: strip the dependencies off every findA task and move
        # it to a fresh lane — the read of B.ahist loses its ordering.
        import dataclasses

        from repro.analysis.schedule import iter_self_check_graphs
        from repro.core.protocol import declared_effects

        label, _plan, graph = next(iter(iter_self_check_graphs(n_trees=1)))
        broken = [
            dataclasses.replace(t, deps=(), resource="B.mutant")
            if t.name.startswith("findA1")
            else t
            for t in graph
        ]
        rules = {f.rule_id for f in races.detect_races(broken, declared_effects, label)}
        assert "SCH102" in rules

    def test_effects_table_covers_every_real_task(self):
        from repro.analysis.schedule import iter_self_check_graphs
        from repro.core.protocol import declared_effects

        for label, _plan, graph in iter_self_check_graphs(n_trees=1):
            for task in graph:
                if task.end - task.start > 1e-9:
                    assert declared_effects(task) is not None, (label, task.name)


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


class TestSarifOutput:
    def _findings(self):
        return [
            Finding("PB001", Severity.ERROR, "repro/fed/x.py", 12, "leak", "taint"),
            Finding(
                "SCH101",
                Severity.ERROR,
                "<schedule:vf2boost:tree0>",
                0,
                "race",
                "races",
            ),
            Finding("SUP001", Severity.WARNING, "repro/y.py", 3, "unused", "audit"),
        ]

    def test_document_shape(self):
        doc = json.loads(render_sarif(self._findings()))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
            "PB001",
            "SCH101",
            "SUP001",
        ]
        assert [r["level"] for r in run["results"]] == [
            "error",
            "error",
            "warning",
        ]

    def test_line_zero_findings_omit_region(self):
        doc = json.loads(render_sarif(self._findings()))
        results = doc["runs"][0]["results"]
        with_region = results[0]["locations"][0]["physicalLocation"]
        without_region = results[1]["locations"][0]["physicalLocation"]
        assert with_region["region"]["startLine"] == 12
        assert "region" not in without_region

    def test_cli_sarif_format_is_valid_json(self, capsys):
        rc = main(
            [
                "--root",
                str(FIXTURES / "leakypkg"),
                "--package",
                "leakypkg",
                "--no-schedule",
                "--format",
                "sarif",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        rule_ids = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert "PB001" in rule_ids and "CR101" in rule_ids


class TestCliV2:
    def test_graph_file_fires_sch10x(self):
        reporter = check_graph_file(FIXTURES / "racy_graph.json")
        rules = sorted(f.rule_id for f in reporter.findings)
        assert rules == ["SCH101", "SCH102", "SCH103"]

    def test_graph_flag_from_cli(self, capsys):
        rc = main(
            [
                "--root",
                str(FIXTURES / "leakypkg"),
                "--package",
                "leakypkg",
                "--no-schedule",
                "--rules",
                "SCH101,SCH102,SCH103",
                "--graph",
                str(FIXTURES / "racy_graph.json"),
                "--strict",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "SCH101" in out and "SCH102" in out and "SCH103" in out

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

    def test_full_strict_run_under_budget(self, capsys):
        # The one end-to-end run of the CI gate; every other repository
        # assertion reads the session's repo_index / repo_reporter.
        t0 = time.perf_counter()
        rc = main(["--strict"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert rc == 0, f"strict gate failed:\n{out}"
        assert elapsed < 30.0, f"analysis took {elapsed:.1f}s (budget 30s)"
