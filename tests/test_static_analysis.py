"""Tests for the static analyzers of :mod:`repro.analysis`.

The last test class is the tier-1 CI gate: the repository itself must
pass ``python -m repro.analysis --strict`` with zero findings.
"""

import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import determinism
from repro.analysis.astutils import PackageIndex
from repro.analysis.cli import main, run_analysis
from repro.analysis.findings import Finding, Reporter, Severity, parse_suppressions
from repro.fed.simtime import SimEngine

FIXTURES = Path(__file__).parent / "analysis_fixtures" / "leakypkg"

#: (rule id, fixture file the rule must fire in)
EXPECTED_RULES = [
    ("DET001", "leakypkg/serve/rogue_batch.py"),
    ("DET001", "leakypkg/serve/fleet_shed.py"),
    ("DET001", "leakypkg/obs/clocky.py"),
    ("DET001", "leakypkg/obs/whatif_clock.py"),
    ("DET001", "leakypkg/obs/alert_clock.py"),
    ("DET001", "leakypkg/bench/stale_profile.py"),
    ("DET001", "leakypkg/fed/clock.py"),
    ("DET002", "leakypkg/fed/clock.py"),
    ("DET003", "leakypkg/fed/clock.py"),
    ("DET001", "leakypkg/fed/clockplan.py"),
    ("DET002", "leakypkg/fed/clockplan.py"),
    ("SUP001", "leakypkg/unused_allow.py"),
]


@pytest.fixture(scope="module")
def fixture_reporter():
    return run_analysis(root=FIXTURES, package="leakypkg")


class TestRulesFire:
    @pytest.mark.parametrize("rule_id,file", EXPECTED_RULES)
    def test_rule_fires_in_expected_file(self, fixture_reporter, rule_id, file):
        hits = [f for f in fixture_reporter.findings if f.rule_id == rule_id]
        assert hits, f"{rule_id} did not fire on the fixture package"
        assert any(f.file == file for f in hits)

    def test_no_unexpected_rules(self, fixture_reporter):
        assert {f.rule_id for f in fixture_reporter.findings} == {
            rule for rule, _ in EXPECTED_RULES
        }

    def test_strict_cli_rejects_fixture_package(self, capsys):
        rc = main(
            [
                "--root",
                str(FIXTURES),
                "--package",
                "leakypkg",
                "--strict",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        for rule_id, _ in EXPECTED_RULES:
            assert rule_id in out


class TestSuppressions:
    @pytest.mark.parametrize("rule_id,file", EXPECTED_RULES)
    def test_inline_allow_silences_each_rule(self, tmp_path, fixture_reporter, rule_id, file):
        copy_root = tmp_path / "leakypkg"
        shutil.copytree(FIXTURES, copy_root)
        for finding in fixture_reporter.findings:
            if finding.rule_id != rule_id:
                continue
            # A rule may fire in several fixture files; suppress each
            # finding in the file it actually lives in.
            target = copy_root / Path(finding.file).relative_to("leakypkg")
            lines = target.read_text().splitlines()
            lines[finding.line - 1] += f"  # repro: allow[{rule_id}]"
            target.write_text("\n".join(lines) + "\n")
        reporter = run_analysis(root=copy_root, package="leakypkg")
        assert not [f for f in reporter.findings if f.rule_id == rule_id]
        assert [f for f in reporter.suppressed if f.rule_id == rule_id]

    def test_allow_on_preceding_comment_line(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "fed").mkdir(parents=True)
        (pkg / "fed" / "timed.py").write_text(
            "import time\n"
            "\n"
            "def stamp():\n"
            "    # repro: allow[DET001]\n"
            "    return time.time()\n"
        )
        reporter = determinism.run(PackageIndex(pkg, package="pkg"))
        assert not reporter.findings
        assert len(reporter.suppressed) == 1

    def test_allow_file_silences_whole_module(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "bench").mkdir(parents=True)
        (pkg / "bench" / "measured.py").write_text(
            "# repro: allow-file[DET001]\n"
            "import time\n"
            "\n"
            "def one():\n"
            "    return time.time()\n"
            "\n"
            "def two():\n"
            "    return time.perf_counter()\n"
        )
        reporter = determinism.run(PackageIndex(pkg, package="pkg"))
        assert not reporter.findings
        assert len(reporter.suppressed) == 2

    def test_allow_file_is_rule_specific(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "bench").mkdir(parents=True)
        (pkg / "bench" / "measured.py").write_text(
            "# repro: allow-file[DET001]\n"
            "import random\n"
            "import time\n"
            "\n"
            "def one():\n"
            "    return time.time()\n"
            "\n"
            "def two():\n"
            "    return random.Random()\n"
        )
        reporter = determinism.run(PackageIndex(pkg, package="pkg"))
        assert [f.rule_id for f in reporter.findings] == ["DET002"]

    def test_parse_suppressions_shapes(self):
        allowed = parse_suppressions(
            [
                "x = 1  # repro: allow[PB001, CR001]",
                "y = 2",
                "# repro: allow-file[DET001]",
                "z = 3  # repro: allow[*]",
            ]
        )
        assert allowed[1] == {"PB001", "CR001"}
        assert allowed[0] == {"DET001"}
        assert allowed[4] == {"*"}
        assert 2 not in allowed


class TestScheduleValidator:
    """The schedule rules hold by construction: each case submits what
    would break a rule if placed as asked, and checks where the engine
    put it."""

    def test_healthy_graph_is_clean(self):
        engine = SimEngine()
        first = engine.submit("cpuA", 1.0, phase="p")
        second = engine.submit("cpuA", 1.0, deps=[first], phase="p")
        assert [(t.task_id, t.deps, t.start, t.end) for t in engine.tasks] == [
            (0, (), 0.0, 1.0),
            (1, (0,), 1.0, 2.0),
        ]
        assert second.lane == first.lane == 0

    def test_lane_overlap_detected(self):
        engine = SimEngine()
        engine.add_resource("cpuA", lanes=1)
        busy = engine.submit("cpuA", 2.0, phase="p")
        # Released at 1.0, while ``busy`` holds the only lane.
        lead = engine.submit("cpuB", 1.0, phase="p")
        late = engine.submit("cpuA", 2.0, deps=[lead], phase="p")
        assert (late.resource, late.lane) == (busy.resource, busy.lane)
        assert (late.start, late.end) == (2.0, 4.0)

    def test_causality_violation_detected(self):
        engine = SimEngine()
        dep = engine.submit("cpuA", 2.0, phase="p")
        # Released by ``lead`` at 1.0 on another resource: the slower
        # dependency still holds it back.
        lead = engine.submit("cpuC", 1.0, phase="p")
        child = engine.submit("cpuB", 2.0, deps=[dep, lead], phase="p")
        assert child.deps == (dep.task_id, lead.task_id)
        assert (child.start, child.end) == (2.0, 4.0)


class TestReportingLayer:
    def _finding(self, rule="PB001", file="a.py", line=3, severity=Severity.ERROR):
        return Finding(
            rule_id=rule, severity=severity, file=file, line=line, message="m"
        )

    def test_sorted_by_severity_then_location(self):
        reporter = Reporter()
        reporter.emit(self._finding(rule="PB002", severity=Severity.WARNING))
        reporter.emit(self._finding(rule="CR001", file="b.py"))
        reporter.emit(self._finding(rule="PB001", file="a.py"))
        ordered = reporter.sorted_findings()
        assert [f.rule_id for f in ordered] == ["PB001", "CR001", "PB002"]

    def test_render_format(self):
        text = self._finding().render()
        assert text == "a.py:3: error: [PB001] m"


class TestRepoGate:
    """The repository itself must stay clean — this is the CI gate."""

    def test_repo_passes_strict_analysis(self, repo_reporter):
        # The exit code of the real CLI run is asserted once, in
        # test_analysis_v2.py::TestCliV2::test_full_strict_run_under_budget.
        rendered = "\n".join(f.render() for f in repo_reporter.sorted_findings())
        assert not rendered, f"static analysis gate failed:\n{rendered}"

    def test_repo_taint_and_crypto_and_determinism_clean(self, repo_reporter):
        reporter = repo_reporter
        assert reporter.findings == []
        # The deliberate exceptions are suppressed, not silently absent;
        # a deleted rule or a new allow[...] moves this ledger.
        ledger = Counter((f.rule_id, f.file) for f in reporter.suppressed)
        assert ledger == {
            ("DET001", "benchmarks/e2e/run.py"): 7,  # measured-mode timing
            ("DET001", "benchmarks/e2e/tracing.py"): 2,
            ("DET001", "examples/crypto_tour.py"): 8,
            ("DET001", "repro/bench/calibrate.py"): 2,
        }
