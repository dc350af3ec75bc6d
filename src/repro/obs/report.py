"""RunReport: one JSON artifact per run, with everything attached.

A :class:`RunReport` bundles what the paper's evaluation sections keep
re-deriving: a metrics snapshot (crypto op counts, channel traffic,
serve counters), a per-phase time breakdown (Tables 1–2), per-channel
and per-party totals (§6.2), and optionally the raw spans so the
associated Chrome trace can be regenerated later with ``repro trace``.

Emitters: :meth:`repro.core.trainer.TrainResult.run_report`,
:meth:`repro.core.protocol.ScheduleResult.run_report`, the serve bench
(``--report-out``) and the ``benchmarks/`` scripts (``--obs-dir``).
The builders here are duck-typed (a "channel" is anything with
``stats``/``by_type`` shaped like :class:`repro.fed.channel.ChannelStats`)
so this module imports nothing from the rest of the package beyond the
tracer/exporter it fronts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from repro.obs.tracer import Span
from repro.obs.trace_export import write_chrome_trace

__all__ = ["RunReport", "channel_report"]

#: schema version for saved report files; version 2 added the
#: ``profile`` (per-phase crypto-op table) and ``artifacts`` (paths of
#: sidecar files such as SLO event logs) fields; version 3 added the
#: ``faults`` field (fault-injection / recovery summary of a reliable
#: channel); version 4 added the ``critical_path`` field (critical-path
#: segments, makespan attribution and slack summary from
#: :mod:`repro.obs.critical`); version 5 added the flight-recorder
#: fields ``events`` (unified event-log tail,
#: :mod:`repro.obs.events`), ``alerts`` (alert-engine summary,
#: :mod:`repro.obs.alerts`) and ``incidents`` (paths of incident
#: bundles snapshotted during the run, :mod:`repro.obs.incident`).
#: All optional with empty defaults, so older files load unchanged.
REPORT_VERSION = 5


def channel_report(channel) -> dict:
    """JSON-ready traffic summary of a RecordingChannel-like object.

    Expects ``channel.stats`` mapping ``(sender, receiver)`` to objects
    with ``messages``/``bytes``/``by_type`` attributes and a channel
    level ``channel.by_type`` of the same shape (duck-typed).
    """
    directions = {}
    for (sender, receiver), stats in sorted(channel.stats.items()):
        directions[f"{sender}->{receiver}"] = {
            "messages": stats.messages,
            "bytes": stats.bytes,
            "by_type": {
                name: {"messages": per.messages, "bytes": per.bytes}
                for name, per in sorted(stats.by_type.items())
            },
        }
    return {
        "total_bytes": sum(s.bytes for s in channel.stats.values()),
        "total_messages": sum(s.messages for s in channel.stats.values()),
        "directions": directions,
        "by_type": {
            name: {"messages": per.messages, "bytes": per.bytes}
            for name, per in sorted(channel.by_type.items())
        },
    }


@dataclass
class RunReport:
    """The one-file summary of a train / schedule / serve run.

    Attributes:
        kind: what produced it — ``"train"``, ``"schedule"``,
            ``"serve"`` or ``"benchmark"``.
        label: free-form run label (config preset, bench scenario).
        config: JSON-ready run configuration.
        metrics: a :meth:`MetricsRegistry.snapshot` (or compatible).
        phases: busy seconds per phase tag (Tables 1–2 shape).
        channels: :func:`channel_report` output (or compatible).
        parties: per-party totals, e.g. crypto op counts keyed by
            party id (stringified for JSON).
        makespan: end-to-end seconds (simulated or wall).
        spans: serialized spans (:meth:`Span.to_dict`); lets
            ``repro trace`` regenerate the Chrome trace offline.
        profile: a real-mode training run's
            :attr:`~repro.core.trainer.TrainResult.profile` — crypto op
            counts in total and per protocol phase, in ``OpStats``
            field names like :attr:`parties`.
        artifacts: sidecar file paths keyed by kind (e.g. the serve
            SLO watcher's JSONL event log under ``"events"``).
        faults: a :meth:`~repro.fed.reliable.ReliableChannel.summary`
            (fault plan, drop/resend/dedupe tallies, recovery-clock
            seconds) when the run trained over a fault-injected
            channel.  Empty on fault-free runs.
        critical_path: a
            :func:`~repro.obs.critical.critical_path_section` (path
            segments, (resource, lane, phase, op) makespan attribution,
            bottleneck resource, slack summary) for schedule-kind runs
            that collected task graphs.  Empty otherwise; the input of
            the regression differ (:mod:`repro.obs.forensics`).
        events: the run's unified event log as flat wire dicts
            (:meth:`~repro.obs.events.EventLog.to_dicts`) — fault
            injections, trainer phase/tree/checkpoint transitions, SLO
            violations, shed decisions, canary transitions, alert
            open/close.  Alert events (subsystem ``"obs.alerts"``)
            additionally overlay the Chrome trace as instant markers.
        alerts: an :meth:`~repro.obs.alerts.AlertEngine.summary`
            (rules, episodes, open alerts, incident paths) when the
            run evaluated alert rules.
        incidents: paths of :class:`~repro.obs.incident.IncidentBundle`
            files snapshotted during the run, in creation order.
    """

    kind: str
    label: str = ""
    config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)
    parties: dict = field(default_factory=dict)
    makespan: float = 0.0
    spans: list = field(default_factory=list)
    profile: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    critical_path: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    alerts: dict = field(default_factory=dict)
    incidents: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready representation (includes the schema version)."""
        data = asdict(self)
        data["version"] = REPORT_VERSION
        return data

    def to_json(self, indent: int | None = 1) -> str:
        """Serialized :meth:`to_dict` with repeatable key order."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        """Write the report JSON to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "RunReport":
        """Read a report written by :meth:`save`, at any version so far.

        Raises:
            ValueError: naming ``path`` — the file is not a JSON
                object, lacks ``kind``, was written by a newer schema
                version, or carries fields this build does not know.
        """
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"report {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError(f"report {path} is not a RunReport JSON object")
        version = data.pop("version", REPORT_VERSION)
        if version > REPORT_VERSION:
            raise ValueError(
                f"report {path} has schema version {version}; this build "
                f"reads up to {REPORT_VERSION}"
            )
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"report {path} has unknown field(s): {unknown}")
        return cls(**data)

    def span_objects(self) -> list[Span]:
        """The stored spans as :class:`Span` objects."""
        return [Span.from_dict(item) for item in self.spans]

    def write_chrome_trace(self, path: str) -> int:
        """Export the stored spans as Chrome trace JSON; returns count.

        When the metrics snapshot carries counters (a
        :meth:`MetricsRegistry.snapshot`), they are emitted as Chrome
        counter tracks alongside the spans, so Perfetto shows op totals
        next to the timeline.  Alert events stored in :attr:`events`
        (subsystem ``"obs.alerts"``) become instant markers on a
        synthetic ``alerts`` process.

        Raises:
            ValueError: when the report carries no spans (emitted
                without ``--trace-out``-style span retention).
        """
        spans = self.span_objects()
        if not spans:
            raise ValueError(
                f"report {self.label!r} holds no spans; re-run its "
                "producer with span retention (e.g. --trace-out)"
            )
        counters = self.metrics.get("counters") if self.metrics else None
        instants = [
            {
                "name": f"{item.get('kind', '')}:{item.get('rule', '')}",
                "time": item.get("time", 0.0),
                "args": {
                    "metric": item.get("metric", ""),
                    "value": item.get("value", 0.0),
                },
            }
            for item in self.events
            if item.get("subsystem") == "obs.alerts"
        ]
        write_chrome_trace(
            path, spans, counters=counters or None, instants=instants or None
        )
        return len(spans)
