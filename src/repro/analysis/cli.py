"""``python -m repro.analysis`` — run every static checker over the repo.

Usage::

    python -m repro.analysis                 # report findings, exit 0
    python -m repro.analysis --strict        # exit 1 on any finding (CI gate)
    python -m repro.analysis --format json   # or: --format sarif
    python -m repro.analysis --rules PB001,DET002
    python -m repro.analysis --verbose       # per-pass wall time to stderr
    python -m repro.analysis --write-baseline analysis-baseline.json
    python -m repro.analysis --baseline analysis-baseline.json --strict
    python -m repro.analysis --graph schedule.json     # race-check a graph

Six passes share one :class:`~repro.analysis.astutils.PackageIndex`
per scanned root (the tree is parsed exactly once): party-boundary
taint (PB), Paillier misuse (CR001-003), ciphertext-domain abstract
interpretation (CR101-104), determinism (DET), schedule structure +
races (SCH) and the suppression audit (SUP001).  Files that fail to
parse become ``SYN001`` findings instead of aborting the run.

The default invocation scans the installed ``repro`` package *plus* the
repo's ``benchmarks/`` and ``examples/`` trees when they are present;
``--root``/``--package`` point the scan at another tree instead (the
test fixtures use this).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis import cryptolint, determinism, domains, races, schedule, taint
from repro.analysis.astutils import PackageIndex
from repro.analysis.findings import (
    Baseline,
    Finding,
    Reporter,
    Severity,
    audit_suppressions,
)
from repro.analysis.sarif import render_sarif

__all__ = ["main", "run_analysis", "RULE_FAMILIES"]

RULE_FAMILIES = {
    "PB": "party boundary (PB001/002 plaintext taint against each message "
    "type's declared disclosure)",
    "CR": "Paillier misuse (CR001-003 cross-key/raw-layer/uncounted ops; "
    "CR101-104 ciphertext-domain abstract interpretation; CR105 "
    "powmod-choke-point bypass via direct 3-arg pow in crypto hot paths)",
    "DET": "determinism (wall clock, unseeded RNG, set-iteration order)",
    "SCH": "schedule graphs (SCH001-005 structure; SCH101-103 happens-before "
    "races over declared footprints)",
    "SUP": "suppression audit (SUP001 unused '# repro: allow[...]' comments)",
    "SYN": "syntax (SYN001 files the scanner could not parse)",
}

#: determinism scope matching every module (used for the extra trees,
#: where *all* code is expected to be simulation-deterministic)
_FULL_SCOPE = ("",)


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).parent


def _repo_root() -> Path:
    """The repository root when running from a source tree."""
    return default_root().parent.parent


def _syntax_findings(index: PackageIndex) -> Reporter:
    reporter = Reporter()
    for relpath, line, message in index.parse_errors:
        reporter.emit(
            Finding(
                rule_id="SYN001",
                severity=Severity.ERROR,
                file=relpath,
                line=line,
                message=f"file does not parse: {message}",
                checker="parse",
            )
        )
    return reporter


def _graph_effects(task_spec: dict):
    """Effects function payload for one ``--graph`` JSON task."""
    if "reads" not in task_spec and "writes" not in task_spec:
        return None
    return (
        frozenset(task_spec.get("reads", ())),
        frozenset(task_spec.get("writes", ())),
    )


def check_graph_file(path: Path) -> Reporter:
    """Validate + race-check an external task-graph JSON document.

    The document is ``{"tasks": [...]}`` where each task carries the
    ``SimTask`` fields (``task_id``, ``name``, ``resource``, ``lane``,
    ``start``, ``end``, ``deps``) plus optional explicit ``reads`` /
    ``writes`` footprint lists; a task with neither key has an unknown
    footprint (``SCH103`` if it performs work).
    """
    from repro.fed.simtime import SimTask

    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    specs = document.get("tasks", [])
    tasks = []
    effects_by_id: dict[int, tuple[frozenset, frozenset] | None] = {}
    for spec in specs:
        task = SimTask(
            name=spec.get("name", f"t{spec['task_id']}"),
            phase=spec.get("phase", ""),
            resource=spec.get("resource", "cpu"),
            lane=int(spec.get("lane", 0)),
            start=float(spec.get("start", 0.0)),
            end=float(spec.get("end", 0.0)),
            task_id=int(spec["task_id"]),
            deps=tuple(spec.get("deps", ())),
        )
        tasks.append(task)
        effects_by_id[task.task_id] = _graph_effects(spec)
    label = path.stem
    reporter = Reporter()
    for finding in schedule.validate_task_graph(tasks, label):
        reporter.emit(finding)
    for finding in races.detect_races(
        tasks, lambda t: effects_by_id[t.task_id], label
    ):
        reporter.emit(finding)
    return reporter


def _self_check_schedules(timings: dict[str, float]) -> Reporter:
    """Structural + race validation over one shared graph enumeration."""
    from repro.core.protocol import declared_effects

    reporter = Reporter()
    t_structure = t_races = 0.0
    t0 = time.perf_counter()
    for label, plan, graph in schedule.iter_self_check_graphs():
        t1 = time.perf_counter()
        for finding in schedule.validate_task_graph(graph, label, fault_plan=plan):
            reporter.emit(finding)
        t2 = time.perf_counter()
        for finding in races.detect_races(graph, declared_effects, label):
            reporter.emit(finding)
        t_structure += t2 - t1
        t_races += time.perf_counter() - t2
    total = time.perf_counter() - t0
    timings["schedule:build"] = total - t_structure - t_races
    timings["schedule:structure"] = t_structure
    timings["schedule:races"] = t_races
    return reporter


def run_analysis(
    root: Path | None = None,
    package: str = "repro",
    with_schedule: bool = True,
    rules: set[str] | None = None,
    timings: dict[str, float] | None = None,
) -> Reporter:
    """Run all checkers; returns the merged reporter.

    Args:
        root: package directory to scan; ``None`` scans the installed
            ``repro`` package plus the repo's ``benchmarks/`` and
            ``examples/`` trees.
        package: dotted package name of ``root``.
        with_schedule: run the (non-static) schedule self checks.
        rules: keep only these rule ids in the final findings.
        timings: optional dict filled with per-pass wall seconds.
    """
    timings = timings if timings is not None else {}
    default_scan = root is None and package == "repro"
    roots: list[tuple[Path, str, bool]] = [
        (Path(root) if root is not None else default_root(), package, False)
    ]
    if default_scan:
        for extra in ("benchmarks", "examples"):
            extra_dir = _repo_root() / extra
            if extra_dir.is_dir():
                roots.append((extra_dir, extra, True))

    merged = Reporter()
    all_modules = []

    def timed(label: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        timings[label] = timings.get(label, 0.0) + (time.perf_counter() - t0)
        return result

    for scan_root, scan_package, is_extra in roots:
        prefix = scan_package
        index = timed(f"{prefix}:parse", PackageIndex, scan_root, package=scan_package)
        all_modules.extend(index.modules.values())
        merged.extend(_syntax_findings(index))
        merged.extend(timed(f"{prefix}:taint", taint.run, index))
        merged.extend(timed(f"{prefix}:cryptolint", cryptolint.run, index))
        det_scope = _FULL_SCOPE if is_extra else determinism.DEFAULT_SCOPE
        merged.extend(
            timed(f"{prefix}:determinism", determinism.run, index, scope=det_scope)
        )
        dom_scope = _FULL_SCOPE if is_extra else domains.DEFAULT_SCOPE
        merged.extend(timed(f"{prefix}:domains", domains.run, index, scope=dom_scope))

    if with_schedule:
        merged.extend(_self_check_schedules(timings))

    merged.extend(timed("suppression-audit", audit_suppressions, all_modules, merged))

    if rules:
        merged.findings = [f for f in merged.findings if f.rule_id in rules]
    return merged


def _render_text(findings: list[Finding], suppressed: int, out) -> None:
    for finding in findings:
        print(finding.render(), file=out)
    summary = f"{len(findings)} finding(s)"
    if suppressed:
        summary += f", {suppressed} suppressed via '# repro: allow[...]'"
    print(summary, file=out)


def _print_timings(timings: dict[str, float], total: float) -> None:
    for label, seconds in sorted(timings.items(), key=lambda kv: -kv[1]):
        print(f"  {label:<24} {seconds * 1000:8.1f} ms", file=sys.stderr)
    print(f"  {'total':<24} {total * 1000:8.1f} ms", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point. Returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Static privacy/crypto/determinism/schedule analysis "
        "of the VF2Boost reproduction.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package directory to scan (default: the installed repro package "
        "plus the repo's benchmarks/ and examples/ trees)",
    )
    parser.add_argument(
        "--package",
        default="repro",
        help="dotted package name of the scanned tree (default: repro)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any unsuppressed finding remains (CI gate)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to report (default: all)",
    )
    parser.add_argument(
        "--no-schedule",
        action="store_true",
        help="skip the (non-static) schedule-graph self check",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print per-pass wall time to stderr",
    )
    parser.add_argument(
        "--graph",
        type=Path,
        default=None,
        help="also validate + race-check an external task-graph JSON file",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline JSON; findings frozen there do not fail --strict",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        help="freeze the current findings into a baseline JSON and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe the rule families and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for prefix, description in RULE_FAMILIES.items():
            print(f"{prefix}*: {description}")
        return 0

    if args.root is not None and not args.root.is_dir():
        parser.error(f"--root {args.root} is not a directory")

    rules = (
        {token.strip() for token in args.rules.split(",") if token.strip()}
        if args.rules
        else None
    )
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    reporter = run_analysis(
        root=args.root,
        package=args.package,
        with_schedule=not args.no_schedule,
        rules=rules,
        timings=timings,
    )
    if args.graph is not None:
        graph_reporter = check_graph_file(args.graph)
        if rules:
            graph_reporter.findings = [
                f for f in graph_reporter.findings if f.rule_id in rules
            ]
        reporter.extend(graph_reporter)
    total = time.perf_counter() - t0
    findings = reporter.sorted_findings()

    if args.verbose:
        _print_timings(timings, total)

    if args.write_baseline is not None:
        Baseline.from_findings(findings).save(args.write_baseline)
        print(f"baseline with {len(findings)} finding(s) -> {args.write_baseline}")
        return 0
    if args.baseline is not None:
        findings = Baseline.load(args.baseline).filter_new(findings)

    if args.format == "json":
        payload = {
            "findings": [f.to_json() for f in findings],
            "suppressed": len(reporter.suppressed),
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        print(render_sarif(findings))
    else:
        _render_text(findings, len(reporter.suppressed), sys.stdout)

    if args.strict and findings:
        return 1
    return 0
