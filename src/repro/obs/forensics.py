"""Regression forensics: deterministic diffing of perf artifacts.

``repro bench-gate`` tells you *that* a scalar regressed; this module
tells you *why*.  It decomposes the difference between two scalar bags
— perf-database entries, RunReports, per-phase op tables — into named
:class:`Contribution` records grouped by what kind of quantity moved
(op count, phase seconds, critical-path seconds, wire bytes,
makespan), sorted largest absolute delta first.  The output is a pure
function of its inputs (stable sort keys, no clocks, no randomness),
so a failing gate prints the same diagnosis on every host.

Everything here is plain dict arithmetic; the module imports nothing
from the rest of the package so reports saved by older versions (or a
different checkout) diff fine.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

__all__ = [
    "Contribution",
    "ReportDiff",
    "classify_scalar",
    "diff_reports",
    "diff_scalar_maps",
    "explain_failures",
]

#: scalar-name prefix -> contribution group
_PREFIX_GROUPS = (
    ("ops.", "op"),
    ("phase.", "phase"),
    ("critical.", "critical"),
    ("wire.", "wire"),
    ("fleet.", "fleet"),
    ("canary.", "fleet"),
    ("events.", "event"),
    ("context.", "context"),
)


def classify_scalar(name: str) -> str:
    """Contribution group of a scalar name.

    ``ops.*`` -> ``op``, ``phase.*`` -> ``phase``, ``critical.*`` ->
    ``critical``, byte/message totals -> ``wire``, makespans ->
    ``makespan``, anything else -> ``other``.
    """
    for prefix, group in _PREFIX_GROUPS:
        if name.startswith(prefix):
            return group
    if "makespan" in name:
        return "makespan"
    if "bytes" in name or name == "messages" or name.endswith(".messages"):
        return "wire"
    return "other"


@dataclass(frozen=True)
class Contribution:
    """One named quantity's movement between baseline and current."""

    name: str
    group: str
    baseline: float
    value: float

    @property
    def delta(self) -> float:
        """Signed change (current minus baseline)."""
        return self.value - self.baseline

    @property
    def rel(self) -> float:
        """Relative change; 0.0 when the baseline is zero."""
        if self.baseline == 0.0:
            return 0.0
        return self.delta / self.baseline

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "group": self.group,
            "baseline": self.baseline,
            "value": self.value,
            "delta": self.delta,
            "rel": self.rel,
        }

    def render(self) -> str:
        """One diagnostic line (``grew``/``shrank`` + magnitudes)."""
        verb = "grew" if self.delta > 0 else "shrank"
        line = (
            f"{self.name} [{self.group}]: {self.baseline:g} -> "
            f"{self.value:g} ({verb} {abs(self.delta):g}"
        )
        if self.baseline != 0.0:
            line += f", {self.rel:+.1%}"
        return line + ")"


def diff_scalar_maps(
    baseline: Mapping[str, float], current: Mapping[str, float]
) -> list[Contribution]:
    """Diff two flat ``name -> value`` maps, keeping what moved.

    Names present on only one side diff against 0.0 (an op appearing
    or vanishing is itself a finding).  Sorted by absolute delta
    descending, then name — a total, deterministic order.
    """
    names = sorted(set(baseline) | set(current))
    contributions = [
        Contribution(
            name=name,
            group=classify_scalar(name),
            baseline=float(baseline.get(name, 0.0)),
            value=float(current.get(name, 0.0)),
        )
        for name in names
    ]
    contributions = [c for c in contributions if c.delta != 0.0]
    contributions.sort(key=lambda c: (-abs(c.delta), c.name))
    return contributions


def _entry_scalars(entry) -> dict[str, float]:
    """Flat scalar values of a PerfEntry-shaped object (duck-typed)."""
    scalars = entry.scalars if hasattr(entry, "scalars") else entry
    flat = {}
    for name, scalar in scalars.items():
        flat[name] = float(
            scalar.value if hasattr(scalar, "value") else scalar
        )
    return flat


def explain_failures(baseline_entry, current_entry, failing: set[str]
                     ) -> list[str]:
    """Diagnose a failing gate scenario.

    Args:
        baseline_entry: the latest prior :class:`PerfEntry` (or any
            object with a ``scalars`` mapping).
        current_entry: the freshly measured entry.
        failing: scalar names the gate flagged.

    Returns:
        Text lines: a headline per failing scalar, then the full
        contribution breakdown grouped with the guilty group first —
        so a ``sim_makespan`` regression immediately names the op and
        phase scalars that moved with it.
    """
    contributions = diff_scalar_maps(
        _entry_scalars(baseline_entry), _entry_scalars(current_entry)
    )
    lines = []
    for name in sorted(failing):
        hit = next((c for c in contributions if c.name == name), None)
        if hit is None:
            lines.append(f"{name}: flagged but unchanged vs latest baseline")
        else:
            lines.append(hit.render())
    if not contributions:
        lines.append(
            "no scalar moved vs the latest baseline entry "
            "(regression is against an older window median)"
        )
        return lines
    lines.append("contributions (largest first):")
    for contribution in contributions:
        lines.append("  " + contribution.render())
    return lines


@dataclass
class ReportDiff:
    """Structured diff of two RunReports, one section per group."""

    makespan: Contribution
    sections: dict

    def to_dict(self) -> dict:
        return {
            "makespan": self.makespan.to_dict(),
            "sections": {
                name: [c.to_dict() for c in rows]
                for name, rows in sorted(self.sections.items())
            },
        }

    def lines(self) -> list[str]:
        """Human-readable diagnosis, eight rows per section."""
        top = 8
        out = [self.makespan.render()] if self.makespan.delta else []
        for name, rows in sorted(self.sections.items()):
            if not rows:
                continue
            out.append(f"{name}:")
            for contribution in rows[:top]:
                out.append("  " + contribution.render())
            if len(rows) > top:
                out.append(f"  ... {len(rows) - top} more")
        return out or ["no compared quantity moved"]


def _get(report, key, default):
    """Field access working on RunReport objects and raw dicts."""
    if isinstance(report, Mapping):
        return report.get(key, default)
    return getattr(report, key, default)


def _profile_map(profile: Mapping) -> dict[str, float]:
    flat = {}
    for op, count in (profile.get("ops") or {}).items():
        flat[f"ops.{op}"] = float(count)
    for phase, ops in (profile.get("phases") or {}).items():
        for op, count in ops.items():
            flat[f"phase.{phase}.{op}"] = float(count)
    return flat


def _wire_map(channels: Mapping) -> dict[str, float]:
    flat = {}
    for direction, row in (channels.get("directions") or {}).items():
        flat[f"wire.{direction}.bytes"] = float(row.get("bytes", 0))
        flat[f"wire.{direction}.messages"] = float(row.get("messages", 0))
    return flat


def _critical_map(section: Mapping) -> dict[str, float]:
    flat = {}
    for name, seconds in (section.get("by_resource") or {}).items():
        flat[f"critical.{name}"] = float(seconds)
    if section:
        flat["critical.wait"] = float(section.get("wait_seconds", 0.0))
    return flat


def _event_map(events: list) -> dict[str, float]:
    flat: dict[str, float] = {}
    for event in events:
        key = f"events.{event.get('subsystem', '')}/{event.get('kind', '')}"
        flat[key] = flat.get(key, 0.0) + 1.0
    return flat


def _context_map(context: Mapping) -> dict[str, float]:
    return {
        f"context.{key}": float(value)
        for key, value in context.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def diff_reports(baseline, current) -> ReportDiff:
    """Decompose a makespan change between two RunReports.

    Accepts :class:`~repro.obs.report.RunReport` objects or the raw
    dicts ``RunReport.to_dict()``/``json.load`` produce.  Sections:

    * ``phases`` — per-phase busy seconds (Tables 1–2 shape),
    * ``profile`` — crypto op counts in total and per protocol phase
      (real-mode training runs),
    * ``wire`` — per-direction bytes and message counts,
    * ``critical`` — per-resource critical-path seconds plus path wait
      time (RunReport v4), the line that says which lane the makespan
      delta actually lives on,
    * ``events`` — event counts per ``subsystem/kind`` (RunReport v5),
    * ``context`` — an incident's numeric context keys (RunReport v6;
      ``repro incidents diff``).
    """
    makespan = Contribution(
        name="makespan",
        group="makespan",
        baseline=float(_get(baseline, "makespan", 0.0)),
        value=float(_get(current, "makespan", 0.0)),
    )
    sections = {
        "phases": diff_scalar_maps(
            _get(baseline, "phases", {}) or {},
            _get(current, "phases", {}) or {},
        ),
        "profile": diff_scalar_maps(
            _profile_map(_get(baseline, "profile", {}) or {}),
            _profile_map(_get(current, "profile", {}) or {}),
        ),
        "wire": diff_scalar_maps(
            _wire_map(_get(baseline, "channels", {}) or {}),
            _wire_map(_get(current, "channels", {}) or {}),
        ),
        "critical": diff_scalar_maps(
            _critical_map(_get(baseline, "critical_path", {}) or {}),
            _critical_map(_get(current, "critical_path", {}) or {}),
        ),
        "events": diff_scalar_maps(
            _event_map(_get(baseline, "events", []) or []),
            _event_map(_get(current, "events", []) or []),
        ),
        "context": diff_scalar_maps(
            _context_map(_get(baseline, "context", {}) or {}),
            _context_map(_get(current, "context", {}) or {}),
        ),
    }
    return ReportDiff(makespan=makespan, sections=sections)
