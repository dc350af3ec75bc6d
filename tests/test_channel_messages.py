"""Tests for typed messages, channel accounting and privacy guards."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.crypto.ciphertext import PaillierContext
from repro.fed import messages
from repro.fed.channel import PrivacyViolation, RecordingChannel
from repro.fed.messages import (
    Ack,
    CountedCipherPayload,
    EncryptedGradHessBatch,
    EncryptedHistogramMessage,
    InstancePlacement,
    LeafWeightBroadcast,
    Message,
    PackedHistogramMessage,
    RouteAnswer,
    RouteAnswerBatch,
    RouteQuery,
    RouteQueryBatch,
    SplitAnswer,
    SplitDecision,
    SplitQuery,
    cipher_bytes,
)
from repro.obs.report import channel_report

CTX = PaillierContext.create(256, seed=21)


class TestMessageSizes:
    def test_cipher_bytes(self):
        assert cipher_bytes(2048) == 512
        assert cipher_bytes(256) == 64

    def test_grad_hess_batch_size(self):
        grads = [CTX.encrypt(0.1) for _ in range(3)]
        hesses = [CTX.encrypt(0.2) for _ in range(3)]
        msg = EncryptedGradHessBatch(0, 1, grads=grads, hesses=hesses)
        assert msg.payload_bytes(256) == 6 * 64 + 8
        assert len(msg) == 3
        assert msg.disclosure == "ciphertext"

    def test_placement_bitmap_size(self):
        msg = InstancePlacement(0, 1, node_id=3, placement=np.ones(100, dtype=bool))
        assert msg.payload_bytes(256) == 13 + 8  # ceil(100/8) + header

    def test_counted_payload_size(self):
        # Sized as the message it stands for, that message's header included.
        batch = EncryptedGradHessBatch(0, 1, grads=[CTX.encrypt(0.1)] * 10)
        msg = CountedCipherPayload(0, 1, stands_for=EncryptedGradHessBatch, n_ciphers=10)
        assert msg.payload_bytes(256) == batch.payload_bytes(256) == 10 * 64 + 8
        for stands_for, header in (
            (EncryptedHistogramMessage, 16),
            (PackedHistogramMessage, 32),
        ):
            msg = CountedCipherPayload(1, 0, stands_for=stands_for, n_ciphers=10)
            assert msg.payload_bytes(256) == 10 * 64 + header
        assert msg.disclosure == "ciphertext"

    def test_control_messages_small(self):
        assert SplitDecision(0, 1).payload_bytes(2048) < 100
        assert SplitQuery(0, 1).payload_bytes(2048) < 100

    def test_split_answer_size(self):
        msg = SplitAnswer(1, 0, node_id=1, placement=np.zeros(16, dtype=bool))
        assert msg.payload_bytes(256) == 2 + 8

    def test_leaf_broadcast_size(self):
        msg = LeafWeightBroadcast(0, 1, weights={1: 0.5, 2: -0.5})
        assert msg.payload_bytes(256) == 32


class TestChannelQueues:
    def test_fifo_order(self):
        channel = RecordingChannel(256)
        channel.send(SplitQuery(0, 1, node_id=1))
        channel.send(SplitQuery(0, 1, node_id=2))
        assert channel.receive(0, 1).node_id == 1
        assert channel.receive(0, 1).node_id == 2

    def test_empty_receive_raises(self):
        with pytest.raises(LookupError):
            RecordingChannel(256).receive(0, 1)

    def test_receive_all_drains(self):
        channel = RecordingChannel(256)
        for k in range(3):
            channel.send(SplitQuery(0, 1, node_id=k))
        assert len(channel.receive_all(0, 1)) == 3
        assert channel.pending(0, 1) == 0

    def test_directions_independent(self):
        channel = RecordingChannel(256)
        channel.send(SplitQuery(0, 1))
        channel.send(SplitAnswer(1, 0, placement=np.zeros(2, dtype=bool)))
        assert channel.pending(0, 1) == 1
        assert channel.pending(1, 0) == 1


class TestChannelAccounting:
    def test_bytes_accumulate(self):
        channel = RecordingChannel(256)
        channel.send(
            CountedCipherPayload(0, 1, stands_for=EncryptedGradHessBatch, n_ciphers=4)
        )
        channel.send(
            CountedCipherPayload(1, 0, stands_for=PackedHistogramMessage, n_ciphers=2)
        )
        assert channel.total_bytes() == (4 * 64 + 8) + (2 * 64 + 32)
        assert channel.stats[(0, 1)].bytes == 4 * 64 + 8

    def test_by_type_stats(self):
        channel = RecordingChannel(256)
        channel.send(SplitQuery(0, 1))
        channel.send(SplitQuery(0, 1))
        stats = channel.by_type["SplitQuery"]
        assert stats.messages == 2

    def test_per_direction_by_type_breakdown(self):
        channel = RecordingChannel(256)
        channel.send(SplitQuery(0, 1))
        channel.send(SplitQuery(0, 1))
        channel.send(
            CountedCipherPayload(1, 0, stands_for=PackedHistogramMessage, n_ciphers=2)
        )
        forward = channel.stats[(0, 1)]
        assert forward.by_type["SplitQuery"].messages == 2
        assert forward.by_type["SplitQuery"].bytes == forward.bytes
        assert "CountedCipherPayload" not in forward.by_type
        backward = channel.stats[(1, 0)]
        assert backward.by_type["CountedCipherPayload"].bytes == 2 * 64 + 32

    def test_stats_report_structure(self):
        channel = RecordingChannel(256)
        channel.send(SplitQuery(0, 1))
        channel.send(
            CountedCipherPayload(1, 0, stands_for=PackedHistogramMessage, n_ciphers=1)
        )
        report = channel_report(channel)
        assert report["total_messages"] == 2
        assert report["directions"]["0->1"]["by_type"]["SplitQuery"]["messages"] == 1
        assert report["directions"]["1->0"]["bytes"] == 64 + 32


class TestPrivacyGuard:
    def test_label_derived_plaintext_to_passive_rejected(self):
        channel = RecordingChannel(256, active_party=0)
        with pytest.raises(PrivacyViolation, match="EncryptedGradHessBatch"):
            channel.send(EncryptedGradHessBatch(0, 1, grads=[0.5], hesses=[0.25]))

    def test_same_message_to_active_party_allowed(self):
        channel = RecordingChannel(256, active_party=0)
        # Toward the label holder itself, plaintext is fine.
        channel.send(PackedHistogramMessage(1, 0, packed={0: [0.5]}))

    def test_ciphertext_messages_pass(self):
        channel = RecordingChannel(256)
        channel.send(
            EncryptedGradHessBatch(
                0, 1, grads=[CTX.encrypt(0.5)], hesses=[CTX.encrypt(0.1)]
            )
        )
        assert channel.pending(0, 1) == 1


@dataclass
class _ResidualDump(Message):
    """A message type the channel has never heard of, carrying floats."""

    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def payload_bytes(self, key_bits: int) -> int:
        return 8 * int(self.residuals.size)


@dataclass
class _NodeCountReport(Message):
    """Undeclared type carrying only integer metadata."""

    counts: dict = field(default_factory=dict)

    def payload_bytes(self, key_bits: int) -> int:
        return 8 * len(self.counts)


@dataclass
class _NestedLeak(Message):
    """Floats buried inside nested plain containers."""

    payload: dict = field(default_factory=dict)

    def payload_bytes(self, key_bits: int) -> int:
        return 64


class TestDefaultDeny:
    """Message types defined elsewhere meet the same guard."""

    def test_undeclared_float_message_to_passive_rejected(self):
        channel = RecordingChannel(256, active_party=0)
        message = _ResidualDump(0, 1, residuals=np.asarray([0.25, -0.5]))
        with pytest.raises(PrivacyViolation, match="_ResidualDump carries plaintext floats"):
            channel.send(message)

    def test_undeclared_float_message_to_active_allowed(self):
        channel = RecordingChannel(256, active_party=0)
        channel.send(_ResidualDump(1, 0, residuals=np.asarray([0.25])))
        assert channel.pending(1, 0) == 1

    def test_undeclared_int_only_message_allowed(self):
        channel = RecordingChannel(256, active_party=0)
        channel.send(_NodeCountReport(0, 1, counts={3: 17, 4: 12}))
        assert channel.pending(0, 1) == 1

    def test_floats_found_in_nested_containers(self):
        channel = RecordingChannel(256, active_party=0)
        message = _NestedLeak(0, 1, payload={"stats": [(1, 2.5)]})
        with pytest.raises(PrivacyViolation):
            channel.send(message)

    def test_declared_disclosure_still_allowed(self):
        # LeafWeightBroadcast carries floats but is the "model" disclosure
        # (the published model); it must keep flowing.
        channel = RecordingChannel(256, active_party=0)
        channel.send(LeafWeightBroadcast(0, 1, weights={1: 0.5}))
        assert channel.pending(0, 1) == 1

    def test_empty_float_array_not_flagged(self):
        channel = RecordingChannel(256, active_party=0)
        channel.send(_ResidualDump(0, 1, residuals=np.zeros(0)))
        assert channel.pending(0, 1) == 1


#: toward a passive party, a plaintext float is refused...
REFUSED = ("accept",) * 3 + ("reject",)
#: ...but in the two types that carry one on purpose
PUBLISHED = ("accept",) * 4

#: every message type with a payload holding a plaintext float, and the
#: guard's (toward B, toward B + float, toward A, toward A + float)
#: outcomes; ``_ResidualDump`` is a type defined outside the module
GUARD_TABLE = [
    (EncryptedGradHessBatch, {"grads": [0.5]}, REFUSED),
    (EncryptedHistogramMessage, {"histograms": {0: ([[0.5]], [[0.5]])}}, REFUSED),
    (PackedHistogramMessage, {"packed": {0: [0.5]}}, REFUSED),
    (CountedCipherPayload, {"opens_to": [0.5]}, PUBLISHED),
    (SplitDecision, {"bin_flat_index": 0.5}, REFUSED),
    (SplitQuery, {"bin_flat_index": 0.5}, REFUSED),
    (SplitAnswer, {"placement": np.asarray([0.5])}, REFUSED),
    (InstancePlacement, {"placement": np.asarray([0.5])}, REFUSED),
    (RouteQuery, {"instance_ids": np.asarray([0.5])}, REFUSED),
    (RouteAnswer, {"goes_left": np.asarray([0.5])}, REFUSED),
    (RouteQueryBatch, {"items": [(0, 0, np.asarray([0.5]))]}, REFUSED),
    (RouteAnswerBatch, {"items": [(0, 0, np.asarray([0.5]))]}, REFUSED),
    (Ack, {"acked_seq": 0.5}, REFUSED),
    (LeafWeightBroadcast, {"weights": {1: 0.5}}, PUBLISHED),
    (_ResidualDump, {"residuals": np.asarray([0.5])}, REFUSED),
]


def _guard_outcome(message: Message) -> str:
    try:
        RecordingChannel(256, active_party=0).send(message)
    except PrivacyViolation:
        return "reject"
    return "accept"


#: fields a message type cannot be built without
_REQUIRED = {CountedCipherPayload: {"stands_for": EncryptedGradHessBatch}}


def _guard_outcomes(cls, float_payload) -> tuple[str, ...]:
    return tuple(
        _guard_outcome(cls(sender, receiver, **_REQUIRED.get(cls, {}), **payload))
        for sender, receiver in ((1, 0), (0, 1))
        for payload in ({}, float_payload)
    )


_TABLE_IDS = [row[0].__name__ for row in GUARD_TABLE]


@pytest.mark.parametrize("cls, float_payload, expected", GUARD_TABLE, ids=_TABLE_IDS)
def test_guard_outcome_table(cls, float_payload, expected):
    assert _guard_outcomes(cls, float_payload) == expected


class TestOneDeclaration:
    """A message type's disclosure is written once, on its class."""

    CLASSES = [
        cls
        for cls in vars(messages).values()
        if isinstance(cls, type) and issubclass(cls, Message)
    ]

    def test_table_covers_every_message_class(self):
        assert {row[0] for row in GUARD_TABLE} - {_ResidualDump} == set(self.CLASSES) - {
            Message
        }

    def test_every_class_declares_in_its_own_body(self):
        for cls in self.CLASSES:
            assert "disclosure" in vars(cls), cls.__name__
            assert cls.disclosure in (None, "ciphertext", "metadata", "model")
            assert (cls.disclosure is None) == (cls is Message), cls.__name__

    def test_guard_exempts_exactly_the_published_types(self):
        # The one guard of §3.2's rule: every other type refuses a
        # plaintext float toward a passive party (test_guard_outcome_table
        # sends one in each).
        published = {row[0] for row in GUARD_TABLE if row[2] == PUBLISHED}
        assert published == {LeafWeightBroadcast, CountedCipherPayload}
