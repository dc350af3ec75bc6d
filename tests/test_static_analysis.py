"""Tests for the static analyzers of :mod:`repro.analysis`.

The last test class is the tier-1 CI gate: the repository itself must
pass ``python -m repro.analysis --strict`` with zero findings.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis import cryptolint, determinism, schedule, taint
from repro.analysis.astutils import PackageIndex
from repro.analysis.cli import main, run_analysis
from repro.analysis.findings import (
    Baseline,
    Finding,
    Reporter,
    Severity,
    parse_suppressions,
)
from repro.fed.simtime import SimTask

FIXTURES = Path(__file__).parent / "analysis_fixtures" / "leakypkg"

#: (rule id, fixture file the rule must fire in)
EXPECTED_RULES = [
    ("PB001", "leakypkg/fed/leaky.py"),
    ("PB002", "leakypkg/fed/rogue.py"),
    ("PB002", "leakypkg/serve/rogue_batch.py"),
    ("DET001", "leakypkg/serve/rogue_batch.py"),
    ("DET001", "leakypkg/serve/fleet_shed.py"),
    ("DET001", "leakypkg/obs/clocky.py"),
    ("DET001", "leakypkg/obs/whatif_clock.py"),
    ("DET001", "leakypkg/obs/alert_clock.py"),
    ("DET001", "leakypkg/bench/stale_profile.py"),
    ("CR001", "leakypkg/crosskey.py"),
    ("CR002", "leakypkg/crosskey.py"),
    ("CR003", "leakypkg/crypto/ciphertext.py"),
    ("DET001", "leakypkg/fed/clock.py"),
    ("DET002", "leakypkg/fed/clock.py"),
    ("DET003", "leakypkg/fed/clock.py"),
    ("DET001", "leakypkg/fed/clockplan.py"),
    ("DET002", "leakypkg/fed/clockplan.py"),
    ("CR101", "leakypkg/crypto/domains_bad.py"),
    ("CR102", "leakypkg/crypto/domains_bad.py"),
    ("CR103", "leakypkg/crypto/domains_bad.py"),
    ("CR104", "leakypkg/crypto/domains_bad.py"),
    ("CR105", "leakypkg/crypto/raw_pow.py"),
    ("SUP001", "leakypkg/unused_allow.py"),
]


@pytest.fixture(scope="module")
def fixture_reporter():
    return run_analysis(root=FIXTURES, package="leakypkg", with_schedule=False)


def _task(task_id, deps=(), start=0.0, end=1.0, resource="cpu", lane=0):
    return SimTask(
        name=f"t{task_id}",
        phase="Test",
        resource=resource,
        lane=lane,
        start=start,
        end=end,
        task_id=task_id,
        deps=tuple(deps),
    )


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

    def test_counted_crypto_function_not_flagged(self, fixture_reporter):
        # counted_add bumps self.stats.additions; only silent_add fires.
        cr3 = [f for f in fixture_reporter.findings if f.rule_id == "CR003"]
        assert len(cr3) == 1
        assert "silent_add" in cr3[0].message

    def test_strict_cli_rejects_fixture_package(self, capsys):
        rc = main(
            [
                "--root",
                str(FIXTURES),
                "--package",
                "leakypkg",
                "--strict",
                "--no-schedule",
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
        reporter = run_analysis(root=copy_root, package="leakypkg", with_schedule=False)
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
    def test_healthy_graph_is_clean(self):
        tasks = [
            _task(0, start=0.0, end=1.0),
            _task(1, deps=(0,), start=1.0, end=2.0),
        ]
        assert validate(tasks) == []

    def test_cycle_detected(self):
        tasks = [
            _task(0, deps=(1,), start=0.0, end=1.0, lane=0),
            _task(1, deps=(0,), start=1.0, end=2.0, lane=1),
        ]
        assert "SCH001" in {f.rule_id for f in validate(tasks)}

    def test_dangling_dependency_detected(self):
        tasks = [_task(0, deps=(7,))]
        rules = {f.rule_id for f in validate(tasks)}
        assert rules == {"SCH002"}

    def test_lane_overlap_detected(self):
        tasks = [
            _task(0, start=0.0, end=2.0, resource="cpuA", lane=3),
            _task(1, start=1.0, end=3.0, resource="cpuA", lane=3),
        ]
        rules = {f.rule_id for f in validate(tasks)}
        assert rules == {"SCH003"}

    def test_causality_violation_detected(self):
        tasks = [
            _task(0, start=0.0, end=2.0, lane=0),
            _task(1, deps=(0,), start=1.0, end=3.0, lane=1),
        ]
        rules = {f.rule_id for f in validate(tasks)}
        assert rules == {"SCH004"}

    def test_real_scheduler_graphs_validate(self):
        reporter = schedule.self_check(n_trees=1)
        assert reporter.findings == []


def validate(tasks):
    return schedule.validate_task_graph(tasks, "test")


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

    def test_baseline_roundtrip_and_ratchet(self, tmp_path):
        old = [self._finding(), self._finding(line=9)]
        baseline = Baseline.from_findings(old)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        # Two frozen findings: a third one in the same file is new.
        new = old + [self._finding(line=20)]
        fresh = loaded.filter_new(new)
        assert len(fresh) == 1
        assert fresh[0].line == 20
        # A different rule is new even in a known file.
        assert loaded.filter_new([self._finding(rule="CR002")])


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
        # The deliberate disclosures are suppressed, not silently absent.
        suppressed_rules = {f.rule_id for f in reporter.suppressed}
        assert "PB001" in suppressed_rules  # LeafWeightBroadcast in trainer
        assert "DET001" in suppressed_rules  # measured-mode bench modules
