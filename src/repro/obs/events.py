"""Unified flight-recorder event log: one schema, every subsystem.

Before this module each failure-adjacent subsystem kept its own ad-hoc
log — the reliable channel's fault-event dataclasses, the SLO
watcher's event dicts, canary state flips, fleet shed counters.  An
:class:`EventLog` is the shared ring buffer they all feed: a bounded,
byte-deterministic sequence of structured :class:`Event` records on the
*simulated* clock (every timestamp is passed in by the producer; this
module never reads a wall clock — the analyzer's DET001 rule polices
exactly that).

Schema.  An event is ``(time, subsystem, kind, labels, payload)``:

* ``time`` — simulated-clock seconds (recovery clock for training
  faults, event-loop clock for serving, 0.0 for control-plane events);
* ``subsystem`` — the producer, dotted (``"fed.reliable"``,
  ``"trainer"``, ``"serve.slo"``, ``"serve.fleet"``, ``"serve.canary"``,
  ``"serve.registry"``, ``"obs.alerts"``, ``"bench.gate"``);
* ``kind`` — the transition (``"drop"``, ``"tree_end"``, ``"shed"``,
  ``"alert_open"``, ...);
* ``labels`` — constant attribution (party / replica / arm / scenario);
* ``payload`` — event-specific fields.

The wire form (:meth:`Event.to_dict`, one JSON line per event with
sorted keys) is *flat*: labels and payload merge to the top level next
to ``time``/``subsystem``/``kind``, so a consumer reads
``record["kind"]`` and ``record["scenario"]`` side by side.  The keys
``kind``/``subsystem``/``time`` are therefore reserved and may not
appear in labels or payload.

The ring buffer is exact: at ``capacity`` events the oldest is evicted
(counted in :attr:`EventLog.evicted`); sequence numbers keep counting,
so ``total`` always equals the number of events ever appended.  Two
identical runs produce byte-identical :meth:`EventLog.lines` — the
foundation the incident bundles (:mod:`repro.obs.incident`) build on.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

__all__ = ["Event", "EventLog", "event_from_wire", "read_events_jsonl"]

#: top-level wire keys an event owns; labels/payload may not shadow them
RESERVED_KEYS = ("kind", "subsystem", "time")


@dataclass
class Event:
    """One structured flight-recorder record on the simulated clock.

    Attributes:
        time: simulated-clock seconds (producer-supplied, never wall).
        subsystem: dotted producer name (``"fed.reliable"``, ...).
        kind: the transition this event records.
        labels: constant attribution merged into the wire form
            (party / replica / arm / scenario tags).
        payload: event-specific fields, also merged into the wire form.
        seq: global append order, assigned by :meth:`EventLog.append`
            (``-1`` for events never appended to a log).
    """

    time: float
    subsystem: str
    kind: str
    labels: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)
    seq: int = -1

    def __post_init__(self) -> None:
        for source in (self.labels, self.payload):
            clash = sorted(set(source) & set(RESERVED_KEYS))
            if clash:
                raise ValueError(
                    f"event labels/payload may not use reserved keys {clash}"
                )
        overlap = sorted(set(self.labels) & set(self.payload))
        if overlap:
            raise ValueError(
                f"keys {overlap} appear in both labels and payload"
            )

    def to_dict(self) -> dict:
        """Flat JSON-ready wire form: schema keys, labels, payload."""
        record = {
            "kind": self.kind,
            "subsystem": self.subsystem,
            "time": self.time,
        }
        record.update(self.labels)
        record.update(self.payload)
        return record

    def line(self) -> str:
        """One stable-key-order JSON line (byte-deterministic)."""
        return json.dumps(self.to_dict(), sort_keys=True)


class EventLog:
    """Bounded, byte-deterministic ring buffer of :class:`Event`\\ s.

    Args:
        capacity: maximum retained events; the oldest is evicted when a
            new append would exceed it.  Eviction is exact — the buffer
            never holds more than ``capacity`` events, and
            :attr:`evicted` counts every drop.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: deque[Event] = deque()
        self.evicted = 0
        self.total = 0  # events ever appended == next seq

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def append(self, event: Event) -> Event:
        """Record one event; assigns its global ``seq``; returns it."""
        event.seq = self.total
        self.total += 1
        self._events.append(event)
        if len(self._events) > self.capacity:
            self._events.popleft()
            self.evicted += 1
        return event

    def emit(
        self,
        time: float,
        subsystem: str,
        kind: str,
        labels: dict | None = None,
        **payload,
    ) -> Event:
        """Build and append one event in a single call."""
        return self.append(
            Event(
                time=time,
                subsystem=subsystem,
                kind=kind,
                labels=dict(labels or {}),
                payload=payload,
            )
        )

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[Event]:
        """Retained events, oldest first."""
        return list(self._events)

    def tail(self, n: int) -> list[Event]:
        """The most recent ``n`` retained events, oldest first."""
        if n <= 0:
            return []
        return list(self._events)[-n:]

    def filter(
        self, subsystem: str | None = None, kind: str | None = None
    ) -> list[Event]:
        """Retained events matching the given subsystem and/or kind."""
        return [
            event
            for event in self._events
            if (subsystem is None or event.subsystem == subsystem)
            and (kind is None or event.kind == kind)
        ]

    def to_dicts(self) -> list[dict]:
        """Every retained event's wire form (RunReport ``events``)."""
        return [event.to_dict() for event in self._events]

    def lines(self) -> list[str]:
        """Each retained event as one stable-key-order JSON line."""
        return [event.line() for event in self._events]

    def write_jsonl(self, path: str, append: bool = False) -> int:
        """Write the retained events as JSONL; returns the line count."""
        with open(path, "a" if append else "w") as handle:
            for line in self.lines():
                handle.write(line + "\n")
        return len(self._events)

    def summary(self) -> dict:
        """JSON-ready posture: occupancy plus per-subsystem/kind counts."""
        by_subsystem: dict[str, int] = {}
        by_kind: dict[str, int] = {}
        for event in self._events:
            by_subsystem[event.subsystem] = (
                by_subsystem.get(event.subsystem, 0) + 1
            )
            key = f"{event.subsystem}/{event.kind}"
            by_kind[key] = by_kind.get(key, 0) + 1
        return {
            "capacity": self.capacity,
            "size": len(self._events),
            "evicted": self.evicted,
            "total": self.total,
            "by_subsystem": dict(sorted(by_subsystem.items())),
            "by_kind": dict(sorted(by_kind.items())),
        }


def event_from_wire(record: dict) -> Event:
    """Rebuild an :class:`Event` from one flat wire dict.

    Schema keys are lifted back into their fields; every other key
    lands in ``payload`` (the labels/payload split is not recoverable
    from the flat wire form, and nothing downstream needs it to be).
    A line from before the unified schema names its kind under
    ``event`` only; it still parses.
    """
    record = dict(record)
    kind = record.pop("kind", None)
    if kind is None:
        kind = record.pop("event", "")
    return Event(
        time=float(record.pop("time", 0.0)),
        subsystem=record.pop("subsystem", ""),
        kind=kind,
        payload=record,
    )


def read_events_jsonl(path: str) -> list[Event]:
    """Parse a JSONL event stream back into :class:`Event` records."""
    events: list[Event] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(event_from_wire(json.loads(line)))
    return events
