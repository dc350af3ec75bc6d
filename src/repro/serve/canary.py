"""Staged rollout: canary a registered version on a traffic slice.

The state machine is deliberately small::

    canary ──(``decision_after`` clean candidate completions)──► promoted
       └────(any golden mismatch)────────────────────────────────► rolled_back

While in ``canary``, a deterministic slice of sessions — chosen by a
seeded hash of the session key, so the same sessions canary on every
run — is served by the candidate :class:`~repro.serve.registry.
ModelVersion` through the runtimes' ``version_selector`` seam; the
registry's *active* pointer still names the incumbent, so every other
request is untouched.  The verdict is the golden contract of a lossless
system: the candidate's margins must be **bit-identical** to the
incumbent's for every non-degraded row, checked against an offline
golden replay of the incumbent (:func:`golden_margins`).  A single
mismatch rolls the canary back immediately.

Promotion reuses the registry's existing hot-swap path — one atomic
:meth:`~repro.serve.registry.ModelRegistry.activate` call.  Rollback is
equally atomic by construction: the active pointer never moved, so
flipping the controller state back to the incumbent is a single
assignment and **zero** requests are ever served by a promoted bad
version.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.obs.events import EventLog
from repro.obs.metrics import nearest_rank
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.session import Prediction, Request

__all__ = ["CanaryConfig", "CanaryController", "golden_margins"]


def golden_margins(version: ModelVersion, rows: dict[int, np.ndarray]) -> np.ndarray:
    """Offline golden replay: margins of ``version`` on raw rows.

    The model's own prediction with every party's codes held locally —
    no event loop, no batching.  It accumulates leaf weights in the
    serving runtime's order (base score, then one ``learning_rate *
    weights`` add per tree), so the result is bit-identical to what an
    undegraded serve of the same version produces.
    """
    codes = {
        party: version.bin_rows(party, rows[party])
        for party in sorted(version.bin_edges)
    }
    return version.model.predict_margin(codes)


@dataclass(frozen=True)
class CanaryConfig:
    """Rollout policy for one candidate version.

    Attributes:
        candidate: registry label of the version under canary.
        traffic_fraction: deterministic slice of sessions served by the
            candidate while the canary is open.
        decision_after: candidate-served completions to observe before
            a promote verdict (violations roll back earlier).
        seed: slicing seed — which sessions canary is a pure function
            of (seed, session key).
    """

    candidate: str
    traffic_fraction: float = 0.05
    decision_after: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.traffic_fraction < 1.0:
            raise ValueError("traffic_fraction must be in (0, 1)")
        if self.decision_after < 1:
            raise ValueError("decision_after must be >= 1")


class CanaryController:
    """Drives one candidate version through the canary state machine.

    Plug :meth:`select` into every runtime's ``version_selector`` and
    feed :meth:`observe` from the completion stream (the
    :class:`~repro.serve.fleet.ServingFleet` wires both when given a
    controller).  All decisions run on completion timestamps from the
    simulated clock — the controller is as deterministic as the loop
    it watches.

    Args:
        registry: the model registry holding incumbent and candidate.
        config: the rollout policy.
        event_log: the :class:`~repro.obs.events.EventLog` every
            transition is recorded in under subsystem
            ``"serve.canary"`` (the shared flight recorder); the
            controller creates its own when omitted.
        labels: constant labels (scenario / arm tags) merged into every
            emitted event.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: CanaryConfig,
        event_log=None,
        labels: dict | None = None,
    ) -> None:
        self.registry = registry
        self.config = config
        self.incumbent = registry.active()
        self.candidate = registry.get(config.candidate)
        if self.candidate.version == self.incumbent.version:
            raise ValueError("candidate is already the active version")
        self.state = "canary"
        self.event_log = event_log if event_log is not None else EventLog()
        self.labels = dict(labels or {})
        #: exact per-kind totals (the log is a ring buffer and may evict)
        self._tally: dict[str, int] = {}
        self.mismatches = 0
        self.canary_served = 0
        self.baseline_served = 0
        self._canary_latencies: list[float] = []
        self._baseline_latencies: list[float] = []

    # ------------------------------------------------------------------
    # Traffic slicing
    # ------------------------------------------------------------------
    def _in_slice(self, key: int) -> bool:
        digest = hashlib.sha256(
            f"{self.config.seed}:canary:{key}".encode()
        ).digest()[:8]
        point = int.from_bytes(digest, "big") / float(1 << 64)
        return point < self.config.traffic_fraction

    def select(self, request: Request) -> ModelVersion:
        """The ``version_selector`` hook: slice while the canary is
        open, otherwise whatever the registry says is active."""
        if self.state == "canary" and self._in_slice(request.session_key()):
            return self.candidate
        return self.registry.active()

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------
    def observe(self, request: Request | None, outcome: Prediction) -> None:
        """Ingest one completion (no-op once the canary is decided)."""
        if self.state != "canary" or outcome.rejected:
            return
        if outcome.version == self.candidate.version:
            self.canary_served += 1
            self._canary_latencies.append(outcome.latency)
            if request is not None:
                golden = golden_margins(self.incumbent, request.rows)
                clean = ~outcome.degraded_rows
                if not np.array_equal(
                    outcome.margins[clean], golden[clean]
                ):
                    self.mismatches += 1
                    self._emit(
                        "golden_mismatch",
                        outcome.finished,
                        request_id=outcome.request_id,
                    )
                    self._rollback(outcome.finished)
                    return
            if self.canary_served >= self.config.decision_after:
                # Every observed canary margin matched bit-for-bit (a
                # mismatch would have rolled back before reaching here).
                self._promote(outcome.finished)
        else:
            self.baseline_served += 1
            self._baseline_latencies.append(outcome.latency)

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    def _promote(self, now: float) -> None:
        self.registry.activate(self.candidate.version, now=now)  # hot-swap
        self.state = "promoted"
        self._emit("promoted", now, version=self.candidate.version)

    def _rollback(self, now: float) -> None:
        # The active pointer never moved off the incumbent, so rollback
        # is one state assignment — atomically zero candidate traffic
        # from the next select() on.
        self.state = "rolled_back"
        self._emit("rolled_back", now, version=self.candidate.version)

    def _emit(self, kind: str, now: float, **fields) -> None:
        self.event_log.emit(now, "serve.canary", kind, labels=self.labels, **fields)
        self._tally[kind] = self._tally.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready rollout posture."""
        return {
            "candidate": self.candidate.version,
            "incumbent": self.incumbent.version,
            "state": self.state,
            "canary_served": self.canary_served,
            "baseline_served": self.baseline_served,
            "mismatches": self.mismatches,
            "canary_p99": nearest_rank(self._canary_latencies, 0.99),
            "baseline_p99": nearest_rank(self._baseline_latencies, 0.99),
            "events": dict(sorted(self._tally.items())),
        }
