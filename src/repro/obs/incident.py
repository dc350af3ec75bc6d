"""Incident post-mortem bundles: one artifact per failure, replayable.

When something goes wrong — a :class:`TrainingInterrupted` crash, a
survivable-fault recovery, an SLO burn episode, a canary rollback, a
bench-gate regression — the flight recorder snapshots an
:class:`IncidentBundle`: a versioned, byte-deterministic JSON artifact
correlating every diagnostic surface at the moment of failure:

======================  ================================================
field                   contents
======================  ================================================
``kind``                the trigger (one of :data:`TRIGGERS`)
``label``               free-form identity (candidate version, rule...)
``time``                simulated-clock seconds of the trigger
``events``              event-log tail (flat wire dicts, oldest first)
``metrics``             :meth:`MetricsRegistry.snapshot` at the trigger
``profile``             per-phase crypto-op table of a real-mode run
``critical_path``       the in-flight section's critical path, when a
                        task graph was collected
``wire_ledger``         per-message-type bytes/messages of the channel
``fault_plan``          ``{"plan": FaultPlan.to_dict(), "describe"}``
``open_alerts``         the alert engine's currently-open episodes
``context``             trigger-specific JSON (checkpoint, verdicts...)
======================  ================================================

Every field is optional and empty by default, so any subsystem can
snapshot with whatever it holds.  Bundles carry a schema ``version``
(:data:`BUNDLE_VERSION`) and serialize with sorted keys, so the same
failure reproduces the same bytes — :meth:`IncidentBundle.fingerprint`
is a stable content hash two reruns can be diffed by.

:class:`IncidentStore` is the on-disk directory of bundles behind
``repro incidents list|show|diff``; file names are deterministic
(``incident-<seq>-<kind>.json`` in creation order).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields

__all__ = [
    "BUNDLE_VERSION",
    "IncidentBundle",
    "IncidentStore",
    "TRIGGERS",
    "diff_bundles",
    "snapshot_incident",
]

#: incident bundle schema version
BUNDLE_VERSION = 1

#: the recognised trigger kinds
TRIGGERS = (
    "training_interrupted",
    "fault_recovery",
    "slo_burn",
    "canary_rollback",
    "bench_regression",
)


@dataclass
class IncidentBundle:
    """One correlated diagnostic snapshot (see the module table)."""

    kind: str
    label: str = ""
    time: float = 0.0
    events: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    profile: dict = field(default_factory=dict)
    critical_path: dict = field(default_factory=dict)
    wire_ledger: dict = field(default_factory=dict)
    fault_plan: dict = field(default_factory=dict)
    open_alerts: list = field(default_factory=list)
    context: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TRIGGERS:
            raise ValueError(
                f"unknown incident kind {self.kind!r}; expected one of "
                f"{', '.join(TRIGGERS)}"
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": BUNDLE_VERSION,
            "kind": self.kind,
            "label": self.label,
            "time": self.time,
            "events": list(self.events),
            "metrics": dict(self.metrics),
            "profile": dict(self.profile),
            "critical_path": dict(self.critical_path),
            "wire_ledger": dict(self.wire_ledger),
            "fault_plan": dict(self.fault_plan),
            "open_alerts": list(self.open_alerts),
            "context": dict(self.context),
        }

    def to_json(self, indent: int | None = 1) -> str:
        """Byte-deterministic serialization (sorted keys)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "IncidentBundle":
        """Read a bundle written by :meth:`save`.

        Raises:
            ValueError: naming ``path`` — the file is not a JSON object
                with a ``kind``, was written by a newer schema version,
                or carries fields this build does not know.
        """
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"bundle {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError(f"bundle {path} is not an IncidentBundle JSON object")
        version = data.pop("version", BUNDLE_VERSION)
        if version > BUNDLE_VERSION:
            raise ValueError(
                f"bundle {path} has schema version {version}; this build "
                f"reads up to {BUNDLE_VERSION}"
            )
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"bundle {path} has unknown field(s): {unknown}")
        return cls(**data)

    def fingerprint(self) -> str:
        """Stable content hash (sha256 of the compact serialization)."""
        compact = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(compact.encode()).hexdigest()[:16]

    def headline(self) -> str:
        """One-line summary for ``repro incidents list``."""
        label = f" [{self.label}]" if self.label else ""
        return (
            f"{self.kind}{label} at t={self.time:.3f}s — "
            f"{len(self.events)} events, {len(self.open_alerts)} open "
            f"alert(s), fingerprint {self.fingerprint()}"
        )


def snapshot_incident(
    kind: str,
    label: str = "",
    time: float = 0.0,
    event_log=None,
    registry=None,
    profile: dict | None = None,
    channel=None,
    fault_plan=None,
    alerts=None,
    critical_path: dict | None = None,
    context: dict | None = None,
    tail: int = 256,
) -> IncidentBundle:
    """Assemble a bundle from whatever diagnostic surfaces exist.

    Args:
        kind: trigger (one of :data:`TRIGGERS`).
        label / time: identity and simulated trigger time.
        event_log: an :class:`~repro.obs.events.EventLog`; its last
            ``tail`` events are captured.
        registry: a :class:`~repro.obs.metrics.MetricsRegistry`; its
            full snapshot is captured.
        profile: a finished per-phase op table
            (:attr:`repro.core.trainer.TrainResult.profile`).
        channel: a channel exposing ``wire_ledger()`` (the recording
            channel, or a reliable wrapper delegating to it).
        fault_plan: a :class:`~repro.fed.faults.FaultPlan`.
        alerts: an :class:`~repro.obs.alerts.AlertEngine`; its open
            episodes are captured.
        critical_path: a precomputed critical-path section dict.
        context: trigger-specific extras (checkpoint names, verdicts).
        tail: maximum events captured from the log.
    """
    return IncidentBundle(
        kind=kind,
        label=label,
        time=time,
        events=(
            [event.to_dict() for event in event_log.tail(tail)]
            if event_log is not None
            else []
        ),
        metrics=registry.snapshot() if registry is not None else {},
        profile=dict(profile or {}),
        critical_path=dict(critical_path or {}),
        wire_ledger=channel.wire_ledger() if channel is not None else {},
        fault_plan=(
            {"plan": fault_plan.to_dict(), "describe": fault_plan.describe()}
            if fault_plan is not None
            else {}
        ),
        open_alerts=alerts.open_alerts() if alerts is not None else [],
        context=dict(context or {}),
    )


class IncidentStore:
    """A directory of bundles with deterministic, ordered file names."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def paths(self) -> list[str]:
        """Stored bundle paths, in creation (= name) order."""
        names = sorted(
            name
            for name in os.listdir(self.directory)
            if name.startswith("incident-") and name.endswith(".json")
        )
        return [os.path.join(self.directory, name) for name in names]

    def save(self, bundle: IncidentBundle) -> str:
        """Persist one bundle; returns its path.

        The sequence prefix continues from the files already present,
        so a fresh directory reproduces identical names run over run.
        """
        seq = len(self.paths()) + 1
        name = f"incident-{seq:04d}-{bundle.kind.replace('_', '-')}.json"
        path = os.path.join(self.directory, name)
        bundle.save(path)
        return path

    def load(self, ref: str | int) -> IncidentBundle:
        """Load by 1-based index, file name, or path."""
        paths = self.paths()
        if isinstance(ref, int) or (isinstance(ref, str) and ref.isdigit()):
            index = int(ref)
            if not 1 <= index <= len(paths):
                raise LookupError(
                    f"incident index {index} out of range 1..{len(paths)}"
                )
            return IncidentBundle.load(paths[index - 1])
        candidate = os.path.join(self.directory, str(ref))
        if os.path.exists(candidate):
            return IncidentBundle.load(candidate)
        return IncidentBundle.load(str(ref))

    def rows(self) -> list[dict]:
        """One summary row per stored bundle (``repro incidents list``)."""
        rows = []
        for path in self.paths():
            bundle = IncidentBundle.load(path)
            rows.append(
                {
                    "file": os.path.basename(path),
                    "kind": bundle.kind,
                    "label": bundle.label,
                    "time": bundle.time,
                    "events": len(bundle.events),
                    "open_alerts": len(bundle.open_alerts),
                    "fingerprint": bundle.fingerprint(),
                }
            )
        return rows


def _numeric_items(mapping: dict) -> dict:
    return {
        key: float(value)
        for key, value in mapping.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def diff_bundles(a: IncidentBundle, b: IncidentBundle) -> list[str]:
    """Human-readable field-by-field diff (``repro incidents diff``)."""
    lines: list[str] = []
    if a.kind != b.kind:
        lines.append(f"kind: {a.kind} -> {b.kind}")
    if a.label != b.label:
        lines.append(f"label: {a.label!r} -> {b.label!r}")
    if a.time != b.time:
        lines.append(f"time: {a.time:.6f} -> {b.time:.6f}")

    counters_a = _numeric_items(a.metrics.get("counters", {}))
    counters_b = _numeric_items(b.metrics.get("counters", {}))
    for name in sorted(set(counters_a) | set(counters_b)):
        left = counters_a.get(name, 0.0)
        right = counters_b.get(name, 0.0)
        if left != right:
            lines.append(f"metrics.counters.{name}: {left:g} -> {right:g}")

    def kind_counts(bundle: IncidentBundle) -> dict:
        counts: dict[str, int] = {}
        for event in bundle.events:
            key = f"{event.get('subsystem', '')}/{event.get('kind', '')}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    kinds_a, kinds_b = kind_counts(a), kind_counts(b)
    for name in sorted(set(kinds_a) | set(kinds_b)):
        left = kinds_a.get(name, 0)
        right = kinds_b.get(name, 0)
        if left != right:
            lines.append(f"events.{name}: {left} -> {right}")

    open_a = {episode.get("rule", "") for episode in a.open_alerts}
    open_b = {episode.get("rule", "") for episode in b.open_alerts}
    for rule in sorted(open_a - open_b):
        lines.append(f"open_alerts: -{rule}")
    for rule in sorted(open_b - open_a):
        lines.append(f"open_alerts: +{rule}")

    context_a = _numeric_items(a.context)
    context_b = _numeric_items(b.context)
    for name in sorted(set(context_a) | set(context_b)):
        left = context_a.get(name)
        right = context_b.get(name)
        if left != right:
            lines.append(f"context.{name}: {left} -> {right}")

    if not lines:
        lines.append("bundles are identical in every compared field")
    return lines
