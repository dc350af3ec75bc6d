"""Span-based tracing with caller-supplied timestamps.

A :class:`Span` is one named interval on a ``(track, lane)`` pair —
the same shape as a row in the paper's Gantt charts (Figures 4–6):
track = party/resource, lane = pipeline slot, category = protocol
phase.  Real runs and simulated runs emit identical spans; the only
difference is where the timestamps come from, so the :class:`Tracer`
never reads a clock itself: callers pass explicit start/end times
(:meth:`Tracer.add`).

``spans_from_tasks`` adapts any iterable of ``SimEngine``-style task
objects (``name``/``phase``/``resource``/``lane``/``start``/``end``
attributes, duck-typed to keep this module dependency-free) into spans,
which the Chrome exporter in :mod:`repro.obs.trace_export` turns into
an artifact openable in Perfetto.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "spans_from_tasks"]


@dataclass(frozen=True)
class Span:
    """One named time interval on a (track, lane) pair.

    Attributes:
        name: what happened ("Enc g/h", "RoundTrip", ...).
        category: coarse grouping — protocol phase or serve stage.
        track: who did it (a resource/party name; Chrome "thread").
        lane: sub-slot within the track (pipeline stage, batch id).
        start: interval start, seconds (simulated or wall, caller's
            choice — a single trace must not mix the two).
        end: interval end, seconds; must be >= start.
        args: extra JSON-ready key/values shown in the trace viewer.
    """

    name: str
    category: str
    track: str
    start: float
    end: float
    lane: int = 0
    args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"span {self.name!r} ends before it starts "
                f"({self.end} < {self.start})"
            )

    @property
    def duration(self) -> float:
        """Interval length in seconds."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready representation (used by RunReport)."""
        return {
            "name": self.name,
            "category": self.category,
            "track": self.track,
            "lane": self.lane,
            "start": self.start,
            "end": self.end,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            category=data["category"],
            track=data["track"],
            lane=int(data.get("lane", 0)),
            start=float(data["start"]),
            end=float(data["end"]),
            args=dict(data.get("args", {})),
        )


class Tracer:
    """Collects spans; timestamps always come from the caller."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        category: str = "",
        track: str = "main",
        lane: int = 0,
        **args: object,
    ) -> Span:
        """Record a span with explicit timestamps; returns it."""
        span = Span(
            name=name,
            category=category,
            track=track,
            lane=lane,
            start=float(start),
            end=float(end),
            args=dict(args),
        )
        self.spans.append(span)
        return span

    def extend(self, spans: Iterable[Span]) -> None:
        """Append pre-built spans (e.g. from ``spans_from_tasks``)."""
        self.spans.extend(spans)

    def phase_totals(self) -> dict[str, float]:
        """Summed span duration per category, keys sorted."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.category] = totals.get(span.category, 0.0) + span.duration
        return dict(sorted(totals.items()))

    def lane_busy(self) -> dict[tuple[str, int], float]:
        """Busy seconds per (track, lane), keys sorted.

        The numerator of :meth:`utilization` — what ``repro trace
        --summary`` tabulates from a saved report without re-running the
        producer.
        """
        busy: dict[tuple[str, int], float] = {}
        for span in self.spans:
            key = (span.track, span.lane)
            busy[key] = busy.get(key, 0.0) + span.duration
        return dict(sorted(busy.items()))

    def utilization(self) -> dict[tuple[str, int], float]:
        """Busy fraction per (track, lane) over the makespan."""
        horizon = self.makespan
        if horizon <= 0:
            return {key: 0.0 for key in self.lane_busy()}
        return {
            key: busy / horizon for key, busy in self.lane_busy().items()
        }

    @property
    def makespan(self) -> float:
        """Latest span end (0.0 when empty); starts are clamped at 0."""
        return max((span.end for span in self.spans), default=0.0)


def spans_from_tasks(
    tasks: Iterable[object],
    *,
    offset: float = 0.0,
    args: dict | None = None,
) -> list[Span]:
    """Adapt SimEngine-style tasks into spans.

    Duck-typed over ``name``/``phase``/``resource``/``lane``/``start``/
    ``end`` attributes so this module stays import-free.  ``offset``
    shifts all timestamps — used to lay consecutive per-tree engines
    end-to-end on one global timeline.
    """
    spans = []
    for task in tasks:
        spans.append(
            Span(
                name=task.name,
                category=task.phase,
                track=task.resource,
                lane=task.lane,
                start=task.start + offset,
                end=task.end + offset,
                args=dict(args or {}),
            )
        )
    return spans
