"""Incident post-mortems: one :class:`RunReport` per failure, replayable.

When something goes wrong — a :class:`TrainingInterrupted` crash, a
survivable-fault recovery, a bench-gate regression — the flight
recorder snapshots a :class:`~repro.obs.report.RunReport` whose
``kind`` is the trigger (one of :data:`TRIGGERS`).  An incident is a
view of the one recording path, so it fills the report fields a run
report already has:

======================  ================================================
report field            contents at the trigger
======================  ================================================
``kind`` / ``label``    the trigger and a free-form identity (the DB)
``events``              event-log tail (last :data:`EVENT_TAIL` events)
``profile``             per-phase crypto-op table of a real-mode run
``channels``            :func:`~repro.obs.report.channel_report` of the
                        channel (its ``by_type`` is the wire ledger)
``faults``              :meth:`ReliableChannel.summary` (the plan under
                        ``"plan"``), as :attr:`TrainResult.faults` holds
``context``             trigger-specific JSON; the trigger's simulated
                        clock is ``context["time"]``
======================  ================================================

Reports serialize with sorted keys, so the same failure reproduces the
same bytes and :meth:`RunReport.fingerprint` is a stable content hash
two reruns can be compared by; ``repro incidents diff`` is
:func:`~repro.obs.forensics.diff_reports`.

:class:`IncidentStore` is the on-disk directory behind ``repro
incidents list|show|diff``; file names are deterministic
(``incident-<seq>-<kind>.json`` in creation order).
"""

from __future__ import annotations

import os
import re

from repro.obs.report import RunReport, channel_report

__all__ = ["EVENT_TAIL", "IncidentStore", "TRIGGERS", "snapshot_incident"]

#: the recognised trigger kinds
TRIGGERS = ("training_interrupted", "fault_recovery", "bench_regression")

#: events an incident keeps from the end of the log
EVENT_TAIL = 256

#: an incident file name's sequence number
_SEQ = re.compile(r"incident-(\d+)-")


def _seq(path: str) -> int:
    """The sequence number of a stored incident's file."""
    return int(_SEQ.match(os.path.basename(path)).group(1))


def snapshot_incident(
    kind: str,
    label: str = "",
    time: float = 0.0,
    event_log=None,
    profile: dict | None = None,
    channel=None,
    faults: dict | None = None,
    context: dict | None = None,
) -> RunReport:
    """Assemble an incident report from whatever diagnostic surfaces exist.

    Args:
        kind: trigger (one of :data:`TRIGGERS`).
        label / time: identity and simulated trigger time (stored as
            ``context["time"]``).
        event_log: an :class:`~repro.obs.events.EventLog`; its last
            :data:`EVENT_TAIL` events are captured.
        profile: a finished per-phase op table
            (:attr:`repro.core.trainer.TrainResult.profile`).
        channel: a RecordingChannel-like object (a reliable wrapper
            delegates to it) for :func:`channel_report`.
        faults: a :meth:`~repro.fed.reliable.ReliableChannel.summary`.
        context: trigger-specific extras (checkpoint names, verdicts).
    """
    return RunReport(
        kind=kind,
        label=label,
        events=(
            [event.to_dict() for event in event_log.tail(EVENT_TAIL)]
            if event_log is not None
            else []
        ),
        profile=dict(profile or {}),
        channels=channel_report(channel) if channel is not None else {},
        faults=dict(faults or {}),
        context={**(context or {}), "time": time},
    )


class IncidentStore:
    """A directory of incident reports with deterministic, ordered names."""

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def paths(self) -> list[str]:
        """Stored incident paths, in creation (= name) order; none while
        the directory does not exist (the first :meth:`save` makes it)."""
        if not os.path.isdir(self.directory):
            return []
        names = sorted(
            name
            for name in os.listdir(self.directory)
            if _SEQ.match(name) and name.endswith(".json")
        )
        return [os.path.join(self.directory, name) for name in names]

    def save(self, report: RunReport) -> str:
        """Persist one incident; returns its path.

        The sequence prefix is one past the largest one present, so a
        fresh directory reproduces identical names run over run and a
        deleted incident's number is never reused while a later one
        exists.

        Raises:
            ValueError: the report's ``kind`` is not one of :data:`TRIGGERS`.
        """
        if report.kind not in TRIGGERS:
            raise ValueError(
                f"unknown incident kind {report.kind!r}; expected one of "
                f"{', '.join(TRIGGERS)}"
            )
        seq = 1 + max(map(_seq, self.paths()), default=0)
        name = f"incident-{seq:04d}-{report.kind.replace('_', '-')}.json"
        path = os.path.join(self.directory, name)
        os.makedirs(self.directory, exist_ok=True)
        report.save(path)
        return path

    def load(self, ref: str | int) -> RunReport:
        """Load by sequence number (the ``<seq>`` of ``incident-<seq>-…``),
        file name, or path.

        Raises:
            LookupError: no stored incident carries that number.
        """
        if isinstance(ref, int) or ref.isdigit():
            seq = int(ref)
            for path in self.paths():
                if _seq(path) == seq:
                    return RunReport.load(path)
            raise LookupError(
                f"incident {seq} out of range: no incident-{seq:04d}-*.json "
                f"in {self.directory}"
            )
        candidate = os.path.join(self.directory, ref)
        return RunReport.load(candidate if os.path.exists(candidate) else ref)

    def rows(self) -> list[dict]:
        """One summary row per stored incident (``repro incidents list``)."""
        rows = []
        for path in self.paths():
            report = RunReport.load(path)
            rows.append(
                {
                    "seq": _seq(path),
                    "file": os.path.basename(path),
                    "kind": report.kind,
                    "label": report.label,
                    "time": report.context.get("time", 0.0),
                    "events": len(report.events),
                    "fingerprint": report.fingerprint(),
                }
            )
        return rows
