"""Staged rollout: canary a registered version on a traffic slice.

The state machine is deliberately small::

    canary ──(golden metrics hold for `decision_after` requests)──► promoted
       └────(any golden violation)────────────────────────────────► rolled_back

While in ``canary``, a deterministic slice of sessions — chosen by a
seeded hash of the session key, so the same sessions canary on every
run — is served by the candidate :class:`~repro.serve.registry.
ModelVersion` through the runtimes' ``version_selector`` seam; the
registry's *active* pointer still names the incumbent, so every other
request is untouched.  The verdict compares golden metrics per
:class:`CanaryConfig`:

* ``expect_identical=True`` (infra-only rollout, model unchanged): the
  candidate's margins must be **bit-identical** to the incumbent's for
  every non-degraded row, checked against an offline golden replay of
  the incumbent (:func:`golden_margins`).  A single mismatch rolls the
  canary back immediately.
* ``expect_identical=False`` (model changed): the candidate's
  nearest-rank p99 latency and degraded-request rate must stay inside
  multiplicative bands of the incumbent's, measured over the same
  observation period.

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

from repro.core.inference import apply_route, route_local, split_frontier
from repro.core.trainer import ACTIVE
from repro.obs.events import EventLog
from repro.obs.metrics import nearest_rank
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.session import Prediction, Request

__all__ = ["CanaryConfig", "CanaryController", "golden_margins"]


def golden_margins(version: ModelVersion, rows: dict[int, np.ndarray]) -> np.ndarray:
    """Offline golden replay: margins of ``version`` on raw rows.

    Traverses every tree with all parties' codes held locally — no
    event loop, no batching — accumulating leaf weights in the same
    order as the serving runtime (base score, then one
    ``learning_rate * weights`` add per tree), so the result is
    bit-identical to what an undegraded serve of the same version
    produces.
    """
    codes = {
        party: version.bin_rows(party, rows[party])
        for party in sorted(version.bin_edges)
    }
    n = next(iter(codes.values())).shape[0]
    model = version.model
    margins = np.full(n, model.base_score, dtype=np.float64)
    for tree in model.trees:
        weights = np.zeros(n, dtype=np.float64)
        frontier: dict[int, np.ndarray] = {0: np.arange(n, dtype=np.int64)}
        while frontier:
            layer = split_frontier(tree, frontier, local_party=ACTIVE)
            next_frontier: dict[int, np.ndarray] = {}
            for node_id, node_rows in layer.leaves.items():
                weights[node_rows] = tree.nodes[node_id].weight
            for node_id, node_rows in layer.local.items():
                goes_left = route_local(
                    codes[ACTIVE], tree.nodes[node_id], node_rows
                )
                apply_route(tree, node_id, node_rows, goes_left, next_frontier)
            for owner in sorted(layer.remote):
                for node_id in sorted(layer.remote[owner]):
                    node_rows = layer.remote[owner][node_id]
                    goes_left = route_local(
                        codes[owner], tree.nodes[node_id], node_rows
                    )
                    apply_route(
                        tree, node_id, node_rows, goes_left, next_frontier
                    )
            frontier = next_frontier
        margins += model.learning_rate * weights
    return margins


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
        expect_identical: the golden contract.  ``True`` demands
            bit-identical margins vs. the incumbent (model unchanged);
            ``False`` compares p99/degraded-rate bands (model changed).
        p99_band: candidate p99 may be at most this multiple of the
            incumbent's observed p99 (banded mode only).
        degraded_band: same, for the degraded-request rate.
        degraded_allowance: absolute degraded-rate floor applied when
            the incumbent shows zero degradation (a strictly-zero band
            would fail a candidate on one unlucky WAN timeout).
        min_baseline: incumbent-served completions required before a
            banded verdict (defers the decision, never blocks rollback).
    """

    candidate: str
    traffic_fraction: float = 0.05
    decision_after: int = 128
    seed: int = 0
    expect_identical: bool = True
    p99_band: float = 1.5
    degraded_band: float = 2.0
    degraded_allowance: float = 0.0
    min_baseline: int = 32

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
            controller creates its own when omitted, so a rollback
            bundle always carries the events that led to it.
        labels: constant labels (scenario / arm tags) merged into every
            emitted event.
        incident_store: optional
            :class:`~repro.obs.incident.IncidentStore`; a rollback
            snapshots a ``canary_rollback`` post-mortem bundle there
            (path recorded in :attr:`incidents`).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: CanaryConfig,
        event_log=None,
        labels: dict | None = None,
        incident_store=None,
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
        self.incident_store = incident_store
        self.incidents: list[str] = []
        #: exact per-kind totals (the log is a ring buffer and may evict)
        self._tally: dict[str, int] = {}
        self.mismatches = 0
        self.canary_served = 0
        self.baseline_served = 0
        self._canary_latencies: list[float] = []
        self._baseline_latencies: list[float] = []
        self._canary_degraded = 0
        self._baseline_degraded = 0

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
            if outcome.degraded:
                self._canary_degraded += 1
            if self.config.expect_identical and request is not None:
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
                self._decide(outcome.finished)
        else:
            self.baseline_served += 1
            self._baseline_latencies.append(outcome.latency)
            if outcome.degraded:
                self._baseline_degraded += 1

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    def _decide(self, now: float) -> None:
        if self.config.expect_identical:
            # Every observed canary margin matched bit-for-bit (a
            # mismatch would have rolled back before reaching here).
            self._promote(now)
            return
        if self.baseline_served < self.config.min_baseline:
            return  # defer: not enough incumbent evidence yet
        canary_p99 = nearest_rank(self._canary_latencies, 0.99)
        baseline_p99 = nearest_rank(self._baseline_latencies, 0.99)
        canary_rate = self._canary_degraded / self.canary_served
        baseline_rate = self._baseline_degraded / self.baseline_served
        degraded_limit = max(
            self.config.degraded_band * baseline_rate,
            self.config.degraded_allowance,
        )
        if canary_p99 > self.config.p99_band * baseline_p99:
            self._emit(
                "p99_band_violation", now, canary=canary_p99, baseline=baseline_p99
            )
            self._rollback(now)
        elif canary_rate > degraded_limit:
            self._emit(
                "degraded_band_violation",
                now,
                canary=canary_rate,
                baseline=baseline_rate,
            )
            self._rollback(now)
        else:
            self._promote(now)

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
        if self.incident_store is not None:
            from repro.obs.incident import snapshot_incident

            bundle = snapshot_incident(
                "canary_rollback",
                label=self.candidate.version,
                time=now,
                event_log=self.event_log,
                context={
                    "candidate": self.candidate.version,
                    "incumbent": self.incumbent.version,
                    "mismatches": self.mismatches,
                    "canary_served": self.canary_served,
                    "baseline_served": self.baseline_served,
                    "state": self.state,
                },
            )
            self.incidents.append(self.incident_store.save(bundle))

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
