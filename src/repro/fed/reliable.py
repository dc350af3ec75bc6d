"""Exactly-once delivery over a fault-injected channel (stop-and-wait ARQ).

:class:`ReliableChannel` wraps a
:class:`~repro.fed.channel.RecordingChannel` and makes training survive
a :class:`~repro.fed.faults.FaultPlan`:

* every message gets a per-(sender, receiver) **sequence number**;
* each transmission waits for a delivery :class:`~repro.fed.messages.Ack`
  with a per-attempt timeout; lost transmissions (or lost acks, or a
  receiver inside a pause window) trigger a **resend** after the
  :class:`~repro.fed.retry.RetryPolicy` backoff;
* the receive side **deduplicates** by sequence number, so duplicated
  or needlessly-retransmitted messages are applied exactly once — an
  encrypted histogram can never double-accumulate.

Delivery is simulated synchronously: a single ``send`` call plays out
the whole ARQ exchange against the plan's deterministic decisions, and
``clock`` accumulates only the *fault-induced* waiting (timeouts,
backoffs, delays) — the recovery cost the bench gate tracks.  Every
physical transmission, duplicate, and ack flows through the inner
channel's ``send``, so the byte ledger prices retransmission overhead;
bytes of transmissions lost in flight are accounted separately as
``dropped_bytes`` in :meth:`ReliableChannel.summary`.

Each fault or recovery action is recorded once, as an
:class:`~repro.obs.events.Event` (subsystem ``"fed.reliable"``) in the
:class:`~repro.obs.events.EventLog` the channel was given; the exact
tallies :meth:`ReliableChannel.summary` reports are kept beside it,
because a ring buffer may evict and a counter may not.

With no plan (or a null plan) the wrapper is a strict pass-through:
no sequence numbers, no acks, no extra bytes — the golden op-count
guard sees a byte-identical fault-free run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.fed.channel import RecordingChannel
from repro.fed.faults import FaultPlan
from repro.fed.messages import Ack, Message
from repro.fed.retry import RetryPolicy
from repro.obs.events import EventLog

__all__ = ["DeliveryError", "ReliableChannel"]


class DeliveryError(RuntimeError):
    """No transmission of a message survived the retry budget."""


@dataclass
class _Counters:
    """Exact fault/recovery tallies behind :meth:`ReliableChannel.summary`."""

    drops: int = 0
    duplicates: int = 0
    delays: int = 0
    ack_drops: int = 0
    pause_waits: int = 0
    resends: int = 0
    acks: int = 0
    dedupe_dropped: int = 0
    delivery_failures: int = 0
    dropped_bytes: int = 0

    @property
    def events(self) -> int:
        """Fault events recorded: each one bumps exactly one of these."""
        return (
            self.drops
            + self.duplicates
            + self.delays
            + self.ack_drops
            + self.pause_waits
            + self.resends
            + self.delivery_failures
        )


class ReliableChannel:
    """ARQ wrapper giving a faulty channel exactly-once semantics.

    Args:
        inner: the recording channel that owns queues and byte ledgers.
        plan: fault schedule; ``None`` (or a null plan) selects the
            pass-through fast path.
        policy: timeout/retry knobs; defaults to :class:`RetryPolicy`'s
            defaults.
        event_log: the :class:`~repro.obs.events.EventLog` fault events
            are recorded in (subsystem ``"fed.reliable"``) — the
            trainer's, so they interleave with its transitions, or a
            private one when the channel is built alone.  Pure
            metadata — no wire bytes, no crypto ops.

    Unknown attributes delegate to the inner channel, so report
    builders consuming ``stats`` / ``by_type`` / ``key_bits``
    work on either layer.
    """

    def __init__(
        self,
        inner: RecordingChannel,
        plan: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan if plan is not None and not plan.is_null else None
        self.policy = policy if policy is not None else RetryPolicy()
        self.event_log = event_log if event_log is not None else EventLog()
        self.clock = 0.0
        self.counters = _Counters()
        self._next_seq: dict[tuple[int, int], int] = defaultdict(int)
        self._applied: dict[tuple[int, int], set[int]] = defaultdict(set)

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Deliver ``message`` exactly once, replaying the fault plan.

        Raises:
            DeliveryError: when every transmission attempt was lost
                (the plan is not survivable under the retry policy).
        """
        if self.plan is None:
            self.inner.send(message)
            return

        plan, policy = self.plan, self.policy
        direction = (message.sender, message.receiver)
        seq = self._next_seq[direction]
        self._next_seq[direction] = seq + 1
        message.seq = seq
        type_name = type(message).__name__
        delivered = False

        for attempt in range(policy.max_retries + 1):
            if attempt > 0:
                backoff = policy.backoff(attempt)
                self._event(
                    "resend", backoff, message, attempt, count="resends"
                )
            window = plan.paused_at(message.receiver, self.clock)
            if window is not None:
                # Receiver is down: the transmission cannot land; wait
                # out the timeout (but never past the window end, after
                # which the next attempt can succeed).
                wait = min(policy.timeout, window.end - self.clock)
                self._event(
                    "pause_wait", wait, message, attempt, count="pause_waits"
                )
                continue
            if plan.drops_message(
                message.sender, message.receiver, seq, attempt
            ):
                self.counters.dropped_bytes += message.payload_bytes(
                    self.inner.key_bits
                )
                self._event(
                    "drop", policy.timeout, message, attempt, count="drops"
                )
                continue
            delay = plan.delay_of_message(
                message.sender, message.receiver, seq, attempt
            )
            if delay > 0:
                self._event("delay", delay, message, attempt, count="delays")
            self.inner.send(message)
            delivered = True
            if plan.duplicates_message(
                message.sender, message.receiver, seq, attempt
            ):
                # The network delivers a second copy: real wire bytes,
                # absorbed later by receive-side dedupe.
                self.inner.send(message)
                self._event(
                    "duplicate", 0.0, message, attempt, count="duplicates"
                )
            if plan.drops_ack(message.sender, message.receiver, seq, attempt):
                # Message arrived but the sender cannot know: it waits
                # out the timeout and resends; dedupe keeps the state
                # exactly-once.
                self._event(
                    "ack_drop", policy.timeout, message, attempt,
                    count="ack_drops",
                )
                continue
            self._send_ack(message, seq, type_name)
            return

        if delivered:
            # Every ack was lost but at least one copy landed; the
            # protocol's own forward progress confirms delivery.
            return
        self._event(
            "delivery_failure", 0.0, message, policy.max_retries,
            count="delivery_failures",
        )
        raise DeliveryError(
            f"{type_name} seq={seq} from {message.sender} to "
            f"{message.receiver} lost on all {policy.max_retries + 1} "
            "attempts; raise max_retries or lower the fault rates"
        )

    def _send_ack(self, message: Message, seq: int, type_name: str) -> None:
        """Return the delivery ack through the accounted channel."""
        self.inner.send(
            Ack(
                sender=message.receiver,
                receiver=message.sender,
                acked_seq=seq,
                acked_type=type_name,
            )
        )
        self.counters.acks += 1

    def _event(
        self,
        kind: str,
        duration: float,
        message: Message,
        attempt: int,
        count: str,
    ) -> None:
        """Record one fault event, advance the recovery clock, count it.

        Payload fields: ``duration`` is the recovery time the event cost
        (0 for events that cost bytes, not time — e.g. duplicates),
        ``seq`` / ``attempt`` the affected message's sequence number
        and 0-based transmission attempt, ``message_type`` its class.
        """
        self.event_log.emit(
            self.clock,
            "fed.reliable",
            kind,
            labels={"sender": message.sender, "receiver": message.receiver},
            duration=duration,
            seq=message.seq,
            attempt=attempt,
            message_type=type(message).__name__,
        )
        self.clock += duration
        setattr(self.counters, count, getattr(self.counters, count) + 1)

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def receive(self, sender: int, receiver: int) -> Message:
        """Next application message of a direction, exactly once.

        Transport acks are skipped; retransmitted or duplicated
        messages whose sequence number was already applied are counted
        as ``dedupe_dropped`` and never surface twice.

        Raises:
            LookupError: when no (new) application message is pending.
        """
        while True:
            message = self.inner.receive(sender, receiver)
            if self._applies(message):
                return message

    def receive_all(self, sender: int, receiver: int) -> list[Message]:
        """Drain a direction, deduplicated, acks filtered out."""
        return [
            message
            for message in self.inner.receive_all(sender, receiver)
            if self._applies(message)
        ]

    def _applies(self, message: Message) -> bool:
        """Whether a dequeued message should reach the application."""
        if isinstance(message, Ack):
            return False
        if message.seq < 0:
            return True
        applied = self._applied[(message.sender, message.receiver)]
        if message.seq in applied:
            self.counters.dedupe_dropped += 1
            return False
        applied.add(message.seq)
        return True

    # ------------------------------------------------------------------
    # Reporting / delegation
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready fault/recovery summary (``faults`` in RunReport)."""
        counters = self.counters
        return {
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "recovery_seconds": self.clock,
            "drops": counters.drops,
            "duplicates": counters.duplicates,
            "delays": counters.delays,
            "ack_drops": counters.ack_drops,
            "pause_waits": counters.pause_waits,
            "resends": counters.resends,
            "acks": counters.acks,
            "dedupe_dropped": counters.dedupe_dropped,
            "delivery_failures": counters.delivery_failures,
            "dropped_bytes": counters.dropped_bytes,
            "events": counters.events,
        }

    def __getattr__(self, name: str):
        # Everything not overridden (stats, by_type, key_bits, log,
        # total_bytes, wire_ledger, ...) behaves like the inner channel.
        return getattr(self.inner, name)
