"""Shared reporting layer of the static analyzers.

Every checker emits :class:`Finding` objects — (file, line, rule id,
severity, message) — through a :class:`Reporter`, which applies the
inline suppression syntax

    # repro: allow[RULE1,RULE2]

A suppression comment silences matching findings anchored on the same
line, on any line of the same multi-line statement, or on the line
directly above (a standalone comment).  ``allow[*]`` silences every
rule on that line; use sparingly.  The file-level form

    # repro: allow-file[RULE]

(conventionally placed in the module header) silences a rule for the
whole file — meant for modules whose *purpose* conflicts with a rule,
e.g. the measured-mode benchmark modules that call the wall clock by
design.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = [
    "Severity",
    "Finding",
    "Reporter",
    "parse_suppressions",
    "parse_comment_suppressions",
    "audit_suppressions",
    "SUPPRESSION_RE",
    "FILE_SUPPRESSION_RE",
    "FILE_WIDE",
]

#: hash-comment form of ``repro: allow[DET001]`` (one or more rule ids,
#: comma-separated; ``*`` for any rule)
SUPPRESSION_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\s]+)\]")

#: hash-comment form of ``repro: allow-file[DET001]`` — whole-file
#: suppression for a rule.
FILE_SUPPRESSION_RE = re.compile(r"#\s*repro:\s*allow-file\[([A-Za-z0-9_*,\s]+)\]")

#: pseudo line number under which file-level suppressions are stored
FILE_WIDE = 0


class Severity:
    """Finding severities, ordered by how loudly CI should complain."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    ORDER = {ERROR: 0, WARNING: 1, INFO: 2}


@dataclass(frozen=True)
class Finding:
    """One analyzer diagnosis.

    Attributes:
        rule_id: stable identifier, e.g. ``DET001`` (determinism),
            ``SUP001`` (unused suppression).
        severity: one of :class:`Severity`'s constants.
        file: path of the offending file, repo-relative when possible.
        line: 1-based line number (0 for whole-file findings).
        message: human-readable description of the defect.
        checker: name of the checker that produced the finding.
    """

    rule_id: str
    severity: str
    file: str
    line: int
    message: str
    checker: str = ""

    def render(self) -> str:
        """One-line gcc-style rendering."""
        return f"{self.file}:{self.line}: {self.severity}: [{self.rule_id}] {self.message}"

    def to_json(self) -> dict:
        """JSON-serializable form (used by ``--format json``)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "checker": self.checker,
        }


def _parse_rules(group: str) -> set[str]:
    return {token.strip() for token in group.split(",") if token.strip()}


def parse_suppressions(source_lines: list[str]) -> dict[int, set[str]]:
    """Map 1-based line numbers to the rule ids allowed on them.

    File-level ``allow-file`` rules are collected under the pseudo line
    :data:`FILE_WIDE` (0), which no real finding anchors on.
    """
    allowed: dict[int, set[str]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        file_match = FILE_SUPPRESSION_RE.search(text)
        if file_match is not None:
            rules = _parse_rules(file_match.group(1))
            if rules:
                allowed.setdefault(FILE_WIDE, set()).update(rules)
            continue
        # A line may carry several allow comments (e.g. a test appending
        # allow[SUP001] after an existing allow): union them all.
        for match in SUPPRESSION_RE.finditer(text):
            rules = _parse_rules(match.group(1))
            if rules:
                allowed.setdefault(lineno, set()).update(rules)
    return allowed


def parse_comment_suppressions(source: str) -> dict[int, set[str]]:
    """Like :func:`parse_suppressions`, but only over *real* comments.

    Tokenizes the source so suppression syntax quoted inside docstrings
    or string literals (the analyzer's own documentation, test data) is
    not honored — and therefore never audited as unused.  Falls back to
    the line-based parse when the file does not tokenize (it then also
    fails :func:`ast.parse` and surfaces as ``SYN001``).
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return parse_suppressions(source.splitlines())
    allowed: dict[int, set[str]] = {}
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        file_match = FILE_SUPPRESSION_RE.search(token.string)
        if file_match is not None:
            rules = _parse_rules(file_match.group(1))
            if rules:
                allowed.setdefault(FILE_WIDE, set()).update(rules)
            continue
        for match in SUPPRESSION_RE.finditer(token.string):
            rules = _parse_rules(match.group(1))
            if rules:
                allowed.setdefault(token.start[0], set()).update(rules)
    return allowed


@dataclass
class Reporter:
    """Collects findings and filters suppressed ones.

    Checkers call :meth:`emit` with the finding plus the suppression map
    and line span of the anchoring statement; the reporter drops the
    finding when an ``allow`` comment covers it.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    #: ``(file, allow-comment line, rule id)`` of every suppression that
    #: actually silenced a finding — the input of :func:`audit_suppressions`.
    #: File-wide allows record under line :data:`FILE_WIDE`.
    used_suppressions: set[tuple[str, int, str]] = field(default_factory=set)

    def emit(
        self,
        finding: Finding,
        suppressions: dict[int, set[str]] | None = None,
        span: tuple[int, int] | None = None,
    ) -> None:
        """Record a finding unless an ``allow`` comment covers it.

        Args:
            finding: the diagnosis.
            suppressions: per-line allowed rules of the finding's file.
            span: inclusive (first, last) line range of the anchoring
                statement; defaults to the finding's own line.
        """
        if suppressions:
            file_rules = suppressions.get(FILE_WIDE)
            if file_rules and (finding.rule_id in file_rules or "*" in file_rules):
                self.suppressed.append(finding)
                self.used_suppressions.add(
                    (finding.file, FILE_WIDE, finding.rule_id)
                )
                return
            first, last = span if span is not None else (finding.line, finding.line)
            # The line above a statement hosts standalone allow comments.
            for lineno in range(max(1, first - 1), last + 1):
                rules = suppressions.get(lineno)
                if rules and (finding.rule_id in rules or "*" in rules):
                    self.suppressed.append(finding)
                    self.used_suppressions.add((finding.file, lineno, finding.rule_id))
                    return
        self.findings.append(finding)

    def extend(self, other: "Reporter") -> None:
        """Merge another reporter's findings into this one."""
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.used_suppressions |= other.used_suppressions

    def sorted_findings(self) -> list[Finding]:
        """Findings in a deterministic order: severity, file, line, rule,
        then message (the full tie-break keeps runs byte-identical even
        when one line hosts several findings of one rule)."""
        return sorted(
            self.findings,
            key=lambda f: (
                Severity.ORDER.get(f.severity, 9),
                f.file,
                f.line,
                f.rule_id,
                f.message,
            ),
        )


def audit_suppressions(modules, reporter: Reporter) -> Reporter:
    """``SUP001``: flag ``allow`` comments whose rule never fired (warning).

    Keeps the suppression inventory honest: a fixed bug whose ``allow``
    outlived it, or a typo'd rule id, would otherwise silently widen the
    blind spot.  Runs after every other pass over the same modules.

    Args:
        modules: module-shaped objects (``relpath`` / ``suppressions``
            attributes — :class:`repro.analysis.astutils.ModuleInfo`).
        reporter: the merged reporter of all prior passes; its
            :attr:`Reporter.used_suppressions` says which allows fired.

    Notes:
        * ``allow[*]`` counts as used when *any* rule was silenced on
          its line.
        * ``allow[SUP001]`` is never itself reported as unused — the
          audit cannot observe its own output without a fixpoint.
    """
    audit = Reporter()
    used = reporter.used_suppressions
    for module in modules:
        file = module.relpath
        used_lines = {line for (f, line, _) in used if f == file}
        for line, rules in sorted(module.suppressions.items()):
            for rule in sorted(rules):
                if rule == "SUP001":
                    continue
                if rule == "*":
                    if line in used_lines:
                        continue
                elif (file, line, rule) in used:
                    continue
                where = "file-wide allow" if line == FILE_WIDE else "allow"
                audit.emit(
                    Finding(
                        rule_id="SUP001",
                        severity=Severity.WARNING,
                        file=file,
                        line=line,
                        message=(
                            f"unused suppression: {where}[{rule}] never "
                            "silenced a finding; remove the comment or fix "
                            "the rule id"
                        ),
                        checker="suppression-audit",
                    ),
                    module.suppressions,
                )
    return audit
