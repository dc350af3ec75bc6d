"""Federation substrate: messages, channels, clusters, event simulation,
fault injection, and reliable delivery."""

from repro.fed.channel import ChannelStats, PrivacyViolation, RecordingChannel
from repro.fed.cluster import PAPER_CLUSTER, ClusterSpec
from repro.fed.faults import FaultPlan, FaultyEngine, LaneSlowdown, PauseWindow
from repro.fed.messages import (
    Ack,
    CountedCipherPayload,
    DirtyNodeNotice,
    EncryptedGradHessBatch,
    EncryptedHistogramMessage,
    InstancePlacement,
    LeafWeightBroadcast,
    Message,
    PackedHistogramMessage,
    RouteAnswer,
    RouteQuery,
    SplitAnswer,
    SplitDecision,
    SplitQuery,
    cipher_bytes,
)
from repro.fed.reliable import DeliveryError, ReliableChannel
from repro.fed.retry import RetryPolicy
from repro.fed.simtime import Resource, SimEngine, SimTask

__all__ = [
    "PAPER_CLUSTER",
    "Ack",
    "ChannelStats",
    "ClusterSpec",
    "CountedCipherPayload",
    "DeliveryError",
    "DirtyNodeNotice",
    "EncryptedGradHessBatch",
    "EncryptedHistogramMessage",
    "FaultPlan",
    "FaultyEngine",
    "InstancePlacement",
    "LaneSlowdown",
    "LeafWeightBroadcast",
    "Message",
    "PackedHistogramMessage",
    "PauseWindow",
    "PrivacyViolation",
    "ReliableChannel",
    "Resource",
    "RetryPolicy",
    "RouteAnswer",
    "RouteQuery",
    "SimEngine",
    "SimTask",
    "SplitAnswer",
    "SplitDecision",
    "SplitQuery",
    "cipher_bytes",
]
