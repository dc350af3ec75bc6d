"""Cross-party message channel with byte accounting and privacy guards.

Stands in for the paper's Pulsar message queues on gateway machines
(§3.1).  Real-mode trainers exchange :mod:`repro.fed.messages` objects
through a :class:`RecordingChannel`, which

* delivers messages in order per (sender, receiver) pair
  (effectively-once semantics of the paper's queues);
* accounts every byte per direction and per message type — the input
  for the "3.2 GB -> 1.1 GB per tree" resource-utilization claim;
* enforces the protocol's privacy ground rule (§3.2): no message
  toward a passive party carries plaintext floats.

The guard runs on every send of every run.  Two types are exempt:
:class:`~repro.fed.messages.LeafWeightBroadcast`, whose ``"model"``
disclosure publishes the leaf weights on purpose, and counted mode's
:class:`~repro.fed.messages.CountedCipherPayload`, whose plaintext
stands in for the ciphers it counts.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.fed.messages import CountedCipherPayload, Message

__all__ = ["ChannelStats", "PrivacyViolation", "RecordingChannel"]


class PrivacyViolation(RuntimeError):
    """A message would leak plaintext label information to a passive party."""


def _floats_in(value: object) -> bool:
    """True when ``value`` (recursively, through plain containers)
    contains a Python or numpy float.  Opaque objects such as
    :class:`EncryptedNumber` are not descended into."""
    if isinstance(value, bool):
        return False
    if isinstance(value, (float, np.floating)):
        return True
    if isinstance(value, np.ndarray):
        return bool(np.issubdtype(value.dtype, np.floating)) and value.size > 0
    if isinstance(value, dict):
        return any(_floats_in(v) for v in value.keys()) or any(
            _floats_in(v) for v in value.values()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_floats_in(v) for v in value)
    return False


def _carries_floats(message: Message) -> bool:
    """Does any payload field of the message hold plaintext floats?"""
    return any(
        _floats_in(getattr(message, f.name))
        for f in dataclasses.fields(message)
        if f.name not in ("sender", "receiver")
    )


@dataclass
class ChannelStats:
    """Traffic accounting for one direction (or one message type).

    Attributes:
        messages: messages sent.
        bytes: payload bytes on the wire.
        by_type: per-``Message``-subclass breakdown (class name ->
            nested stats whose own ``by_type`` stays empty).  Populated
            for per-direction entries in ``RecordingChannel.stats``.
    """

    messages: int = 0
    bytes: int = 0
    by_type: dict[str, "ChannelStats"] = field(default_factory=dict)

    def record(self, type_name: str, size: int) -> None:
        """Count one message of ``size`` bytes under ``type_name``."""
        self.messages += 1
        self.bytes += size
        per_type = self.by_type.setdefault(type_name, ChannelStats())
        per_type.messages += 1
        per_type.bytes += size


class RecordingChannel:
    """In-memory ordered message queues between parties.

    Args:
        key_bits: Paillier modulus size, used to size ciphers on the wire.
        active_party: id of the label holder (Party B); messages headed
            anywhere else pass the privacy guard first.
    """

    def __init__(self, key_bits: int, active_party: int = 0) -> None:
        self.key_bits = key_bits
        self.active_party = active_party
        self._queues: dict[tuple[int, int], deque[Message]] = defaultdict(deque)
        self.stats: dict[tuple[int, int], ChannelStats] = defaultdict(ChannelStats)
        self.log: list[Message] = []

    @property
    def by_type(self) -> dict[str, ChannelStats]:
        """Per-message-type totals: :attr:`stats` summed over directions.

        A read-only view built on demand — :meth:`send` records a
        message once, in its direction's ledger.
        """
        totals: dict[str, ChannelStats] = defaultdict(ChannelStats)
        for stats in self.stats.values():
            for type_name, per_type in stats.by_type.items():
                total = totals[type_name]
                total.messages += per_type.messages
                total.bytes += per_type.bytes
        return totals

    def send(self, message: Message) -> None:
        """Enqueue a message after the privacy guard; account its bytes.

        Raises:
            PrivacyViolation: when a message toward a passive party
                carries plaintext floats and is neither a ``"model"``
                disclosure nor a :class:`CountedCipherPayload`.
        """
        if (
            message.receiver != self.active_party
            and message.disclosure != "model"
            and not isinstance(message, CountedCipherPayload)
            and _carries_floats(message)
        ):
            raise PrivacyViolation(
                f"{type(message).__name__} carries plaintext floats toward "
                f"passive party {message.receiver}; encrypt the payload"
            )
        size = message.payload_bytes(self.key_bits)
        type_name = type(message).__name__
        direction = (message.sender, message.receiver)
        self._queues[direction].append(message)
        self.stats[direction].record(type_name, size)
        self.log.append(message)

    def receive(self, sender: int, receiver: int) -> Message:
        """Dequeue the next message of a direction (FIFO).

        Raises:
            LookupError: when the queue is empty.
        """
        queue = self._queues[(sender, receiver)]
        if not queue:
            raise LookupError(f"no message pending from {sender} to {receiver}")
        return queue.popleft()

    def receive_all(self, sender: int, receiver: int) -> list[Message]:
        """Drain a direction's queue."""
        queue = self._queues[(sender, receiver)]
        messages = list(queue)
        queue.clear()
        return messages

    def pending(self, sender: int, receiver: int) -> int:
        """Number of undelivered messages in a direction."""
        return len(self._queues[(sender, receiver)])

    def total_bytes(self) -> int:
        """All bytes ever sent, both directions, all parties."""
        return sum(stats.bytes for stats in self.stats.values())

    def wire_ledger(self) -> dict[str, dict[str, int]]:
        """Per-message-type wire ledger, JSON-ready.

        ``{type_name: {"messages": n, "bytes": b}}`` — the ``by_type`` of
        :func:`~repro.obs.report.channel_report`, and what
        ``tests/golden/party_sweep.json`` pins per golden fit.
        """
        return {
            type_name: {"messages": stats.messages, "bytes": stats.bytes}
            for type_name, stats in sorted(self.by_type.items())
        }
