"""Seeded, deterministic fault injection for the discrete-event world.

VF²Boost targets cross-enterprise WAN deployments where "the network
between two parties is unstable" (paper §2) — yet a simulator that
injected faults from a live RNG would break the repository's exact
repeatability contract.  A :class:`FaultPlan` therefore derives *every*
fault decision from an explicit seed through a pure hash function:
given the same plan, a message keyed by ``(sender, receiver, seq,
attempt)`` is dropped/duplicated/delayed identically on every run, a
party's pause windows sit at the same simulated times, and a straggler
lane slows by the same factor.  Fault schedules are replayable
artifacts, not noise.

Three perturbation surfaces share one plan:

* **channel faults** — consumed by
  :class:`repro.fed.reliable.ReliableChannel`, which turns a lossy
  channel back into exactly-once delivery via seq/ack/resend/dedupe;
* **party availability** — pause windows during which a party neither
  receives nor acks (crash-restart), and tree-boundary crash points the
  trainer honors by checkpointing and raising
  :class:`~repro.core.trainer.TrainingInterrupted`;
* **engine perturbations** — :class:`~repro.fed.simtime.FaultyEngine`
  scales task durations on straggler lanes and pushes task starts out
  of a party's pause windows, so scheduled makespans price recovery
  cost.

The headline invariant (enforced by ``tests/test_faults.py``): under
any *survivable* plan — one where every message is eventually delivered
within its retry budget — the trained model is bit-identical to the
fault-free run.  Faults perturb *when* and *how often* bytes move,
never *what* they say.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

__all__ = ["DELAY_SECONDS", "FaultPlan", "LaneSlowdown", "PauseWindow"]

#: lateness of a delayed message, in simulated seconds
DELAY_SECONDS = 0.05


@dataclass(frozen=True)
class PauseWindow:
    """One crash-restart window: the party is dead during [start, end).

    While paused a party neither applies nor acknowledges messages
    (channel view) and starts no new compute task (engine view).
    """

    party: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("pause window must have end > start")
        if self.start < 0:
            raise ValueError("pause window must start at time >= 0")

    def contains(self, time: float) -> bool:
        """Whether ``time`` falls inside the window."""
        return self.start <= time < self.end


@dataclass(frozen=True)
class LaneSlowdown:
    """A straggler resource: every task on it runs ``factor`` x longer."""

    resource: str
    factor: float

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1 (a slowdown)")


@dataclass(frozen=True)
class FaultPlan:
    """A replayable fault schedule derived from one seed.

    Attributes:
        seed: the schedule's identity — every per-message decision is a
            pure hash of ``(seed, kind, key)``.
        drop_rate: probability a message transmission attempt is lost.
        duplicate_rate: probability a delivered message arrives twice.
        delay_rate: probability a delivered message is late by
            :data:`DELAY_SECONDS`.
        ack_drop_rate: probability a delivery *ack* is lost (forces a
            resend the receiver must deduplicate).
        pauses: crash-restart windows per party, in simulated seconds
            of the reliable channel's fault clock.
        slowdowns: straggler factors per engine resource.
        crash_after_trees: tree indices after which the trainer crashes
            (checkpoint + :class:`TrainingInterrupted`); resume via
            ``fit(resume_from=...)``.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    ack_drop_rate: float = 0.0
    pauses: tuple[PauseWindow, ...] = ()
    slowdowns: tuple[LaneSlowdown, ...] = ()
    crash_after_trees: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate", "ack_drop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate!r}")
        if any(t < 0 for t in self.crash_after_trees):
            raise ValueError("crash_after_trees indices must be >= 0")

    # ------------------------------------------------------------------
    # Deterministic decisions
    # ------------------------------------------------------------------
    def _uniform(self, kind: str, *key: object) -> float:
        """Pure uniform draw in [0, 1) keyed by (seed, kind, key)."""
        material = repr((self.seed, kind, key)).encode()
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def drops_message(
        self, sender: int, receiver: int, seq: int, attempt: int
    ) -> bool:
        """Whether this transmission attempt is lost on the wire."""
        return self._uniform("drop", sender, receiver, seq, attempt) < self.drop_rate

    def duplicates_message(
        self, sender: int, receiver: int, seq: int, attempt: int
    ) -> bool:
        """Whether this delivered message arrives a second time."""
        return (
            self._uniform("dup", sender, receiver, seq, attempt)
            < self.duplicate_rate
        )

    def delay_of_message(
        self, sender: int, receiver: int, seq: int, attempt: int
    ) -> float:
        """Lateness (seconds) of this delivered message; usually 0.0."""
        if self._uniform("delay", sender, receiver, seq, attempt) < self.delay_rate:
            return DELAY_SECONDS
        return 0.0

    def drops_ack(self, sender: int, receiver: int, seq: int, attempt: int) -> bool:
        """Whether the delivery ack of this attempt is lost."""
        return (
            self._uniform("ackdrop", sender, receiver, seq, attempt)
            < self.ack_drop_rate
        )

    # ------------------------------------------------------------------
    # Availability / engine views
    # ------------------------------------------------------------------
    def paused_at(self, party: int, time: float) -> PauseWindow | None:
        """The pause window covering ``time`` for ``party``, if any."""
        for window in self.pauses:
            if window.party == party and window.contains(time):
                return window
        return None

    def slowdown_factor(self, resource: str) -> float:
        """Straggler factor of an engine resource (1.0 = healthy)."""
        factor = 1.0
        for slowdown in self.slowdowns:
            if slowdown.resource == resource:
                factor = max(factor, slowdown.factor)
        return factor

    def crashes_after(self, tree_index: int) -> bool:
        """Whether the trainer crashes at this tree boundary."""
        return tree_index in self.crash_after_trees

    @property
    def is_null(self) -> bool:
        """True when the plan perturbs nothing (fault-free fast path)."""
        return (
            self.drop_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.delay_rate == 0.0
            and self.ack_drop_rate == 0.0
            and not self.pauses
            and not self.slowdowns
            and not self.crash_after_trees
        )

    # ------------------------------------------------------------------
    # Serialization (CLI flags, RunReport)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_rate": self.delay_rate,
            "ack_drop_rate": self.ack_drop_rate,
            "pauses": [
                {"party": w.party, "start": w.start, "end": w.end}
                for w in self.pauses
            ],
            "slowdowns": [
                {"resource": s.resource, "factor": s.factor}
                for s in self.slowdowns
            ],
            "crash_after_trees": list(self.crash_after_trees),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {unknown}")
        kwargs = dict(data)
        kwargs["pauses"] = tuple(
            PauseWindow(**w) for w in data.get("pauses", ())
        )
        kwargs["slowdowns"] = tuple(
            LaneSlowdown(**s) for s in data.get("slowdowns", ())
        )
        kwargs["crash_after_trees"] = tuple(data.get("crash_after_trees", ()))
        return cls(**kwargs)

    def describe(self) -> str:
        """One-line human summary (CLI output, report labels)."""
        parts = [f"seed={self.seed}"]
        for name in ("drop_rate", "duplicate_rate", "delay_rate", "ack_drop_rate"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name.removesuffix('_rate')}={value:g}")
        if self.pauses:
            parts.append(f"pauses={len(self.pauses)}")
        if self.slowdowns:
            parts.append(f"stragglers={len(self.slowdowns)}")
        if self.crash_after_trees:
            parts.append(f"crash_after={list(self.crash_after_trees)}")
        return "FaultPlan(" + ", ".join(parts) + ")"
