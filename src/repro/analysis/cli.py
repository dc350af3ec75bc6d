"""``python -m repro.analysis`` — run every static checker over the repo.

Usage::

    python -m repro.analysis                 # report findings, exit 0
    python -m repro.analysis --strict        # exit 1 on any finding (CI gate)
    python -m repro.analysis --format json
    python -m repro.analysis --rules DET001,DET002
    python -m repro.analysis --verbose       # per-pass wall time to stderr

The determinism pass (DET) reads one
:class:`~repro.analysis.astutils.PackageIndex` per scanned root (the
tree is parsed exactly once) and the suppression audit (SUP001) runs
last; every pass reads parsed source only.  A schedule is no
analyzer input: :class:`~repro.fed.simtime.SimEngine`
refuses a malformed or racy task as it builds the graph.  Files that
fail to parse become ``SYN001`` findings instead of aborting the run.

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

from repro.analysis import determinism
from repro.analysis.astutils import PackageIndex
from repro.analysis.findings import Finding, Reporter, Severity, audit_suppressions

__all__ = ["main", "run_analysis", "RULE_FAMILIES"]

RULE_FAMILIES = {
    "DET": "determinism (wall clock, unseeded RNG, set-iteration order)",
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


def run_analysis(
    root: Path | None = None,
    package: str = "repro",
    rules: set[str] | None = None,
    timings: dict[str, float] | None = None,
) -> Reporter:
    """Run all checkers; returns the merged reporter.

    Args:
        root: package directory to scan; ``None`` scans the installed
            ``repro`` package plus the repo's ``benchmarks/`` and
            ``examples/`` trees.
        package: dotted package name of ``root``.
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
        det_scope = _FULL_SCOPE if is_extra else determinism.DEFAULT_SCOPE
        merged.extend(
            timed(f"{prefix}:determinism", determinism.run, index, scope=det_scope)
        )

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
        description="Static determinism analysis of the VF2Boost reproduction.",
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
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to report (default: all)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print per-pass wall time to stderr",
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
        rules=rules,
        timings=timings,
    )
    total = time.perf_counter() - t0
    findings = reporter.sorted_findings()

    if args.verbose:
        _print_timings(timings, total)

    if args.format == "json":
        payload = {
            "findings": [f.to_json() for f in findings],
            "suppressed": len(reporter.suppressed),
        }
        print(json.dumps(payload, indent=2))
    else:
        _render_text(findings, len(reporter.suppressed), sys.stdout)

    if args.strict and findings:
        return 1
    return 0
