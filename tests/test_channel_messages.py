"""Tests for typed messages, channel accounting and privacy guards."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.crypto.ciphertext import PaillierContext
from repro.fed.channel import PrivacyViolation, RecordingChannel
from repro.fed.messages import (
    CountedCipherPayload,
    EncryptedGradHessBatch,
    InstancePlacement,
    LeafWeightBroadcast,
    Message,
    PackedHistogramMessage,
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
        assert msg.carries_ciphertext_only

    def test_placement_bitmap_size(self):
        msg = InstancePlacement(0, 1, node_id=3, placement=np.ones(100, dtype=bool))
        assert msg.payload_bytes(256) == 13 + 8  # ceil(100/8) + header

    def test_counted_payload_size(self):
        msg = CountedCipherPayload(1, 0, kind="histograms", n_ciphers=10)
        assert msg.payload_bytes(256) == 10 * 64 + 8
        assert msg.carries_ciphertext_only

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
        channel.send(CountedCipherPayload(0, 1, kind="gh", n_ciphers=4))
        channel.send(CountedCipherPayload(1, 0, kind="hist", n_ciphers=2))
        assert channel.total_bytes() == (4 * 64 + 8) + (2 * 64 + 8)
        assert channel.bytes_toward(1) == 4 * 64 + 8

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
        channel.send(CountedCipherPayload(1, 0, kind="hist", n_ciphers=2))
        forward = channel.stats[(0, 1)]
        assert forward.by_type["SplitQuery"].messages == 2
        assert forward.by_type["SplitQuery"].bytes == forward.bytes
        assert "CountedCipherPayload" not in forward.by_type
        backward = channel.stats[(1, 0)]
        assert backward.by_type["CountedCipherPayload"].bytes == 2 * 64 + 8

    def test_stats_report_structure(self):
        channel = RecordingChannel(256)
        channel.send(SplitQuery(0, 1))
        channel.send(CountedCipherPayload(1, 0, kind="hist", n_ciphers=1))
        report = channel_report(channel)
        assert report["total_messages"] == 2
        assert report["directions"]["0->1"]["by_type"]["SplitQuery"]["messages"] == 1
        assert report["directions"]["1->0"]["bytes"] == 64 + 8

    def test_reset_stats_keeps_queue(self):
        channel = RecordingChannel(256)
        channel.send(SplitQuery(0, 1))
        channel.reset_stats()
        assert channel.total_bytes() == 0
        assert channel.pending(0, 1) == 1


class TestPrivacyGuard:
    def test_label_derived_plaintext_to_passive_rejected(self):
        channel = RecordingChannel(256, active_party=0, strict=True)

        class LeakyBatch(EncryptedGradHessBatch):
            @property
            def carries_ciphertext_only(self):
                return False

        with pytest.raises(PrivacyViolation):
            channel.send(LeakyBatch(0, 1))

    def test_same_message_to_active_party_allowed(self):
        channel = RecordingChannel(256, active_party=0, strict=True)

        class LeakyHist(PackedHistogramMessage):
            @property
            def carries_ciphertext_only(self):
                return False

        # Toward the label holder itself, plaintext is fine.
        channel.send(LeakyHist(1, 0))

    def test_non_strict_mode_allows(self):
        channel = RecordingChannel(256, strict=False)

        class LeakyBatch(EncryptedGradHessBatch):
            @property
            def carries_ciphertext_only(self):
                return False

        channel.send(LeakyBatch(0, 1))  # no exception

    def test_ciphertext_messages_pass(self):
        channel = RecordingChannel(256, strict=True)
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
    """Unrecognized message types carrying floats are rejected by default."""

    def test_undeclared_float_message_to_passive_rejected(self):
        channel = RecordingChannel(256, active_party=0, strict=True)
        message = _ResidualDump(0, 1, residuals=np.asarray([0.25, -0.5]))
        with pytest.raises(PrivacyViolation, match="undeclared"):
            channel.send(message)

    def test_undeclared_float_message_to_active_allowed(self):
        channel = RecordingChannel(256, active_party=0, strict=True)
        channel.send(_ResidualDump(1, 0, residuals=np.asarray([0.25])))
        assert channel.pending(1, 0) == 1

    def test_undeclared_int_only_message_allowed(self):
        channel = RecordingChannel(256, active_party=0, strict=True)
        channel.send(_NodeCountReport(0, 1, counts={3: 17, 4: 12}))
        assert channel.pending(0, 1) == 1

    def test_floats_found_in_nested_containers(self):
        channel = RecordingChannel(256, active_party=0, strict=True)
        message = _NestedLeak(0, 1, payload={"stats": [(1, 2.5)]})
        with pytest.raises(PrivacyViolation):
            channel.send(message)

    def test_declared_disclosure_still_allowed(self):
        # LeafWeightBroadcast carries floats but is a declared disclosure
        # (the published model); it must keep flowing.
        channel = RecordingChannel(256, active_party=0, strict=True)
        channel.send(LeafWeightBroadcast(0, 1, weights={1: 0.5}))
        assert channel.pending(0, 1) == 1

    def test_non_strict_allows_undeclared(self):
        channel = RecordingChannel(256, active_party=0, strict=False)
        channel.send(_ResidualDump(0, 1, residuals=np.asarray([1.0])))
        assert channel.pending(0, 1) == 1

    def test_empty_float_array_not_flagged(self):
        channel = RecordingChannel(256, active_party=0, strict=True)
        channel.send(_ResidualDump(0, 1, residuals=np.zeros(0)))
        assert channel.pending(0, 1) == 1
