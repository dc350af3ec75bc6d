"""Typed cross-party messages of the vertical federated GBDT protocol.

Every message that crosses the public channel is one of these
dataclasses.  Each knows its own wire size, so the recording channel
can account for every byte (the paper reports 3.2 GB -> 1.1 GB per tree
from histogram packing), and each declares whether it may legally
contain plaintext label-derived information — the hook the privacy
tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crypto.ciphertext import EncryptedNumber
from repro.crypto.packing import PackedCipher

__all__ = [
    "Message",
    "Ack",
    "CountedCipherPayload",
    "EncryptedGradHessBatch",
    "EncryptedHistogramMessage",
    "PackedHistogramMessage",
    "SplitDecision",
    "SplitQuery",
    "SplitAnswer",
    "InstancePlacement",
    "RouteAnswer",
    "RouteQuery",
    "RouteAnswerBatch",
    "RouteQueryBatch",
    "DirtyNodeNotice",
    "LeafWeightBroadcast",
]

#: bytes of one Paillier cipher on the wire given key bits S: 2S bits.
def cipher_bytes(key_bits: int) -> int:
    """Wire size of one cipher in bytes."""
    return key_bits // 4


@dataclass
class Message:
    """Base class: sender/receiver party ids plus wire accounting.

    ``seq`` is the per-(sender, receiver) sequence number the reliable
    delivery layer (:mod:`repro.fed.reliable`) stamps on every message
    so receivers can deduplicate retransmissions; -1 means the message
    never crossed a fault-injected channel.
    """

    sender: int
    receiver: int
    seq: int = -1

    def payload_bytes(self, key_bits: int) -> int:
        """Serialized size in bytes."""
        raise NotImplementedError

    @property
    def carries_ciphertext_only(self) -> bool:
        """True when the payload is ciphertext (safe toward Party A)."""
        return False


@dataclass
class EncryptedGradHessBatch(Message):
    """One blaster batch of encrypted (g, h) pairs (§4.1).

    Attributes:
        instance_offset: row index of the first instance in the batch.
        grads / hesses: ciphers aligned with the batch's instances.
    """

    instance_offset: int = 0
    grads: list[EncryptedNumber] = field(default_factory=list)
    hesses: list[EncryptedNumber] = field(default_factory=list)

    def payload_bytes(self, key_bits: int) -> int:
        return (len(self.grads) + len(self.hesses)) * cipher_bytes(key_bits) + 8

    @property
    def carries_ciphertext_only(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.grads)


@dataclass
class EncryptedHistogramMessage(Message):
    """Raw (unpacked) encrypted histograms of one or more nodes.

    ``histograms`` maps ``node_id -> (grad_bins, hess_bins)`` where each
    bins object is a list of per-feature lists of ciphers.
    """

    histograms: dict[int, tuple[list[list[EncryptedNumber]], list[list[EncryptedNumber]]]] = field(
        default_factory=dict
    )

    def cipher_count(self) -> int:
        """Total ciphers carried."""
        total = 0
        for grad_bins, hess_bins in self.histograms.values():
            total += sum(len(row) for row in grad_bins)
            total += sum(len(row) for row in hess_bins)
        return total

    def payload_bytes(self, key_bits: int) -> int:
        return self.cipher_count() * cipher_bytes(key_bits) + 16

    @property
    def carries_ciphertext_only(self) -> bool:
        return True


@dataclass
class PackedHistogramMessage(Message):
    """Histogram bins packed t-per-cipher (§5.2).

    ``packed`` maps ``node_id -> list of PackedCipher``: the node's
    ``D * (s - 1)`` two-limb prefix-sum slots, feature-major, ``t`` to a
    cipher.  The layout and the gradient shift are not sent — both
    sides derive them from the config and the node's size.
    """

    packed: dict[int, list[PackedCipher]] = field(default_factory=dict)

    def cipher_count(self) -> int:
        """Total packed ciphers carried."""
        return sum(len(items) for items in self.packed.values())

    def payload_bytes(self, key_bits: int) -> int:
        return self.cipher_count() * cipher_bytes(key_bits) + 32

    @property
    def carries_ciphertext_only(self) -> bool:
        return True


@dataclass
class CountedCipherPayload(Message):
    """Counted-mode stand-in for a bulk cipher transfer.

    Carries no actual ciphers — only how many the real run would ship —
    so the channel's byte ledger stays exact while the arithmetic runs
    on plaintext.  ``opens_to`` is counted mode's one shortcut: what the
    absent ciphers would open to (a batch's ``(g, h)`` arrays, or
    ``node -> Histogram``) at zero wire bytes, so the receiver acts on
    what it received.  The ciphertext-only rule reports the real run's
    payload, which is ciphertext.
    """

    kind: str = ""
    n_ciphers: int = 0
    extra_bytes: int = 0
    opens_to: object = None

    def payload_bytes(self, key_bits: int) -> int:
        return self.n_ciphers * cipher_bytes(key_bits) + self.extra_bytes + 8

    @property
    def carries_ciphertext_only(self) -> bool:
        return True


@dataclass
class SplitDecision(Message):
    """Scheduler B's verdict for one node after global split finding.

    When the winner belongs to a Party A, only the histogram *bin
    index* is disclosed (the owner recovers feature/value locally);
    when it belongs to B, Party A learns nothing but the owner id.
    """

    node_id: int = 0
    owner: int = 0
    bin_flat_index: int = -1  # owner-local (feature * s + bin); -1 if owner==B
    gain_is_leaf: bool = False

    def payload_bytes(self, key_bits: int) -> int:
        return 24


@dataclass
class SplitQuery(Message):
    """B asks the owning Party A to materialize a split: which rows go left."""

    node_id: int = 0
    bin_flat_index: int = 0

    def payload_bytes(self, key_bits: int) -> int:
        return 16


@dataclass
class SplitAnswer(Message):
    """Owner's reply to a :class:`SplitQuery` with the placement bitmap."""

    node_id: int = 0
    placement: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def payload_bytes(self, key_bits: int) -> int:
        # Bitmap encoding (§3.2): one bit per instance on the node.
        return int(np.ceil(self.placement.size / 8)) + 8


@dataclass
class InstancePlacement(Message):
    """Broadcast of a node's left/right placement as a bitmap."""

    node_id: int = 0
    placement: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def payload_bytes(self, key_bits: int) -> int:
        return int(np.ceil(self.placement.size / 8)) + 8


@dataclass
class DirtyNodeNotice(Message):
    """B tells A an optimistic split was invalid (§4.2, Figure 6)."""

    node_id: int = 0
    corrected_owner: int = 0
    bin_flat_index: int = -1

    def payload_bytes(self, key_bits: int) -> int:
        return 24


@dataclass
class RouteQuery(Message):
    """Serving-time routing query: which of these rows go left at a node?

    The owner learns which instances reached its node — exactly what
    training-time instance placement already disclosed, nothing more.
    """

    tree_index: int = 0
    node_id: int = 0
    instance_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def payload_bytes(self, key_bits: int) -> int:
        return 16 + 4 * int(self.instance_ids.size)


@dataclass
class RouteAnswer(Message):
    """Owner's reply to a :class:`RouteQuery`: a left/right bitmap."""

    tree_index: int = 0
    node_id: int = 0
    goes_left: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def payload_bytes(self, key_bits: int) -> int:
        return 16 + int(np.ceil(self.goes_left.size / 8))


@dataclass
class RouteQueryBatch(Message):
    """Coalesced routing queries for *all* of one party's frontier nodes.

    The serving runtime (and the offline predictor's coalesced path)
    collapses the per-node :class:`RouteQuery` round trips of one layer
    — across every concurrent request — into a single message per
    (party, layer).  ``items`` is a list of ``(tree_index, node_id,
    instance_ids)`` tuples; the owner answers each item independently.

    Disclosure: identical to :class:`RouteQuery` — the owner learns
    which instances reached which of its nodes, exactly the placement
    information training already revealed.  Batching changes message
    *count*, not message *content*.
    """

    batch_id: int = 0
    items: list[tuple[int, int, np.ndarray]] = field(default_factory=list)

    def row_count(self) -> int:
        """Total instance ids carried across all items."""
        return sum(int(ids.size) for _, _, ids in self.items)

    def payload_bytes(self, key_bits: int) -> int:
        # 16B header + per item: tree/node ids (12B) + 4B per instance id.
        return 16 + sum(12 + 4 * int(ids.size) for _, _, ids in self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class RouteAnswerBatch(Message):
    """Owner's reply to a :class:`RouteQueryBatch`: one bitmap per item.

    ``items`` mirrors the query's order: ``(tree_index, node_id,
    goes_left)`` with a boolean bitmap aligned to the query's
    ``instance_ids``.
    """

    batch_id: int = 0
    items: list[tuple[int, int, np.ndarray]] = field(default_factory=list)

    def payload_bytes(self, key_bits: int) -> int:
        return 16 + sum(
            12 + int(np.ceil(mask.size / 8)) for _, _, mask in self.items
        )

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class Ack(Message):
    """Delivery acknowledgement of the reliable channel (ARQ layer).

    Carries only the acknowledged sequence number and message type name
    — pure transport metadata with no model- or label-derived content,
    which is why it may legally travel in plaintext toward any party.
    """

    acked_seq: int = -1
    acked_type: str = ""

    def payload_bytes(self, key_bits: int) -> int:
        # 8B seq + 4B type tag.
        return 12


@dataclass
class LeafWeightBroadcast(Message):
    """Final leaf weights of one tree (B -> A, model sync)."""

    weights: dict[int, float] = field(default_factory=dict)

    def payload_bytes(self, key_bits: int) -> int:
        return 12 * len(self.weights) + 8
