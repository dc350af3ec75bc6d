"""Deterministic Chrome trace-event export.

Converts spans (:mod:`repro.obs.tracer`) into the Chrome trace-event
JSON format understood by Perfetto (https://ui.perfetto.dev) and
chrome://tracing, turning the repo's schedule Gantt data into openable
artifacts that reproduce the paper's Figures 4–6.

Mapping: each distinct span ``track`` becomes a Chrome *process* row
named after it, each ``(track, lane)`` pair becomes a *thread* within
it, and every span becomes one complete ("X") event with microsecond
timestamps.  Output is byte-deterministic: pid/tid assignment comes
from sorted track/lane names, events are emitted in a stable sort
order, and serialization uses sorted keys with fixed separators.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping

from repro.obs.tracer import Span

__all__ = [
    "chrome_trace",
    "chrome_trace_events",
    "dumps_chrome_trace",
    "write_chrome_trace",
]

_US = 1_000_000  # seconds -> microseconds, Chrome's trace unit

#: process name of the synthetic counter rows
_COUNTER_TRACK = "counters"


def chrome_trace_events(
    spans: Iterable[Span],
    counters: Mapping[str, float] | None = None,
) -> list[dict]:
    """Spans -> Chrome trace-event dicts (metadata rows first).

    Args:
        spans: the intervals to export.
        counters: optional flat ``name -> value`` map (e.g. a
            :meth:`MetricsRegistry.counters` snapshot); each becomes a
            Chrome counter ("C") track under a synthetic ``counters``
            process, so Perfetto plots op totals alongside the spans.
            Values are run totals sampled once at the trace start and
            once at its end — constant tracks, not time series (the
            registry keeps no per-sample history).  Emission order is
            sorted by name, keeping the export byte-deterministic.
    """
    spans = list(spans)
    tracks = sorted({span.track for span in spans})
    pids = {track: pid for pid, track in enumerate(tracks, start=1)}
    lanes = sorted({(span.track, span.lane) for span in spans})
    tids = {key: tid for tid, key in enumerate(lanes, start=1)}

    events: list[dict] = []
    for track in tracks:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pids[track],
                "tid": 0,
                "args": {"name": track},
            }
        )
    for track, lane in lanes:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pids[track],
                "tid": tids[(track, lane)],
                "args": {"name": f"{track}/lane{lane}"},
            }
        )
    if counters:
        counter_pid = len(tracks) + 1
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": counter_pid,
                "tid": 0,
                "args": {"name": _COUNTER_TRACK},
            }
        )
        horizon = max((span.end for span in spans), default=0.0)
        sample_times = [0.0]
        if horizon > 0:
            sample_times.append(round(horizon * _US, 3))
        for name, value in sorted(counters.items()):
            for ts in sample_times:
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": ts,
                        "pid": counter_pid,
                        "tid": 0,
                        "args": {"value": float(value)},
                    }
                )
    ordered = sorted(
        spans, key=lambda s: (s.track, s.lane, s.start, s.end, s.name)
    )
    for span in ordered:
        events.append(
            {
                "name": span.name,
                "cat": span.category or "uncategorized",
                "ph": "X",
                "ts": round(span.start * _US, 3),
                "dur": round(span.duration * _US, 3),
                "pid": pids[span.track],
                "tid": tids[(span.track, span.lane)],
                "args": dict(sorted(span.args.items())),
            }
        )
    return events


def chrome_trace(
    spans: Iterable[Span],
    counters: Mapping[str, float] | None = None,
) -> dict:
    """Full trace document: {"traceEvents": [...], ...}."""
    return {
        "traceEvents": chrome_trace_events(spans, counters=counters),
        "displayTimeUnit": "ms",
    }


def dumps_chrome_trace(
    spans: Iterable[Span],
    counters: Mapping[str, float] | None = None,
) -> str:
    """Serialize with repeatable bytes (sorted keys, no whitespace)."""
    return json.dumps(
        chrome_trace(spans, counters=counters),
        sort_keys=True,
        separators=(",", ":"),
    )


def write_chrome_trace(
    path: str,
    spans: Iterable[Span],
    counters: Mapping[str, float] | None = None,
) -> None:
    """Write a Perfetto-loadable trace file to ``path``."""
    with open(path, "w") as handle:
        handle.write(dumps_chrome_trace(spans, counters=counters))
