"""Cross-request micro-batching of routing queries.

The offline predictor already coalesces one *request's* frontier nodes
into one round trip per (owner, layer).  Under concurrent serving
traffic the same WAN hop is shared by every in-flight request, so the
batcher goes one step further: all routing work headed to one passive
party — across requests, trees, and frontier nodes — is held briefly
and shipped as a single :class:`~repro.fed.messages.RouteQueryBatch`.

The hold policy is the classic dynamic micro-batching pair:

* ``max_batch_size`` — flush immediately once this many work items are
  pending for a party (bounds per-batch work);
* ``max_delay`` — flush no later than this long after the *first* item
  of a batch arrived (bounds queueing latency added to any request).

Timers are generation-stamped: when a size-triggered flush drains a
party's queue, the pending delay timer for that generation becomes
stale and is ignored when it fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fed.messages import RouteQueryBatch

__all__ = ["RouteWork", "MicroBatcher"]


@dataclass
class RouteWork:
    """One routing query of one request, destined for one party.

    Attributes:
        request_id: originating request.
        tree_index / node_id: the frontier node to route.
        rows: request-local row indices sitting on the node.
        instance_ids: the same rows as owner-arena ids (what goes on
            the wire; the owner indexes its code arena with these).
        version: model version the request was admitted under — items
            of different versions legally share one batch during a
            hot-swap, and the owner must answer each against the right
            tree table.
    """

    request_id: int
    tree_index: int
    node_id: int
    rows: np.ndarray
    instance_ids: np.ndarray
    version: str = ""


@dataclass
class _PartyQueue:
    items: list[RouteWork] = field(default_factory=list)
    generation: int = 0
    timer_armed: bool = False


class MicroBatcher:
    """Per-party pending queues under a size/delay flush policy."""

    def __init__(self, max_batch_size: int = 64, max_delay: float = 0.005) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self.max_batch_size = max_batch_size
        self.max_delay = max_delay
        self._queues: dict[int, _PartyQueue] = {}
        self._batch_counter = 0

    def _queue(self, party: int) -> _PartyQueue:
        if party not in self._queues:
            self._queues[party] = _PartyQueue()
        return self._queues[party]

    def pending(self, party: int) -> int:
        """Items currently held for a party."""
        return len(self._queue(party).items)

    def add(
        self, party: int, work: RouteWork, now: float
    ) -> tuple[str, float, int] | tuple[str, list[RouteWork], int] | None:
        """Enqueue one work item; tell the caller what to do next.

        Returns:
            ``("flush", items, generation)`` when the size bound was
            hit (the queue is drained), ``("timer", deadline,
            generation)`` when a delay timer must be armed for the
            batch this item opened, or ``None`` when the item simply
            joined an already-armed batch.
        """
        queue = self._queue(party)
        queue.items.append(work)
        if len(queue.items) >= self.max_batch_size:
            return ("flush", self._drain(queue), queue.generation - 1)
        if not queue.timer_armed:
            queue.timer_armed = True
            return ("timer", now + self.max_delay, queue.generation)
        return None

    def on_timer(self, party: int, generation: int) -> list[RouteWork] | None:
        """Delay timer fired; drain unless the batch already flushed."""
        queue = self._queue(party)
        if generation != queue.generation or not queue.items:
            return None
        return self._drain(queue)

    @staticmethod
    def _drain(queue: _PartyQueue) -> list[RouteWork]:
        items = queue.items
        queue.items = []
        queue.generation += 1
        queue.timer_armed = False
        return items

    def next_batch_id(self) -> int:
        """Monotonic id stamped on each flushed batch."""
        self._batch_counter += 1
        return self._batch_counter

    @staticmethod
    def build_query(
        sender: int, party: int, batch_id: int, items: list[RouteWork]
    ) -> RouteQueryBatch:
        """Materialize the wire message for one flushed batch.

        Work items are kept in arrival order — the answer batch mirrors
        it, so the runtime can zip answers back to work items 1:1.
        """
        return RouteQueryBatch(
            sender,
            party,
            batch_id=batch_id,
            items=[
                (work.tree_index, work.node_id, work.instance_ids)
                for work in items
            ],
        )
