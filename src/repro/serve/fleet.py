"""Fleet-scale serving: sharded replicas, load shedding, rollout seam.

One :class:`~repro.serve.session.ServingRuntime` has a finite capacity
of ``1 / admission_cost`` requests per simulated second (admission is
priced on a serial CPU).  The fleet scales that horizontally: a
:class:`FleetRouter` consistent-hash-routes *sessions* to ``N`` replica
runtimes, each with its own :class:`~repro.serve.batcher.MicroBatcher`,
prediction cache and :class:`~repro.serve.slo.SLOWatcher` — so a
session sticks to one replica (cache affinity) and ≤ K/N sessions move
when a replica is added or removed.

Everything stays on the simulated clock.  The fleet owns a single
global event loop: at every step it picks the earliest pending event
across *all* replicas and the arrival queue (ties broken
arrival-first, then by replica index), so an N-replica run is exactly
as deterministic and byte-repeatable as a single runtime — the same
contract the training-side simulator keeps.

Load shedding happens at the fleet door, *before* the error budget
burns: an arrival routed to a replica whose SLO watcher reports a burn
rate at or above :attr:`ShedPolicy.burn_threshold` (strictly below the
watcher's own ``burn_alert``) is turned away with ``shed=True`` instead
of being admitted to a queue it would only deepen.  Shed decisions read
only simulated-clock state — never a wall clock (the analyzer's DET001
rule polices exactly this).

The fleet counts routed, shed and completed requests into its own
:class:`~repro.obs.metrics.MetricsRegistry` under ``fleet.*``;
:meth:`ServingFleet.summary` adds each replica's SLO posture (window
p99, burn rate) from its watcher.  Transitions (every replica's SLO
events and every shed decision) go to one
:class:`~repro.obs.events.EventLog`, seq-ordered across replicas.
Canary rollout plugs in through the runtimes' ``version_selector``
seam (see :mod:`repro.serve.canary`).
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.fed.cluster import ClusterSpec
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.serve.registry import ModelRegistry
from repro.serve.session import (
    Prediction,
    Request,
    ServeConfig,
    ServingRuntime,
)
from repro.serve.slo import SLOPolicy, SLOWatcher

__all__ = ["ShedPolicy", "FleetConfig", "FleetRouter", "ServingFleet"]

_PREFIX = "fleet."

#: virtual nodes per replica on the consistent-hash ring
_VNODES = 64


def _stable_hash(payload: str) -> int:
    """64-bit integer from sha256 — stable across processes and runs
    (``hash()`` is salted per process, useless for a consistent ring)."""
    return int.from_bytes(
        hashlib.sha256(payload.encode()).digest()[:8], "big"
    )


@dataclass(frozen=True)
class ShedPolicy:
    """When the fleet door turns an arrival away.

    Attributes:
        burn_threshold: shed when the target replica's burn rate is at
            or above this.  Keep it *below* the SLO policy's
            ``burn_alert`` so shedding starts while the budget is still
            intact — the alert is the failure mode shedding prevents.
        min_window: completions the replica's sliding window must hold
            before its burn rate is trusted (a cold window of one slow
            request must not shed a whole session).
    """

    burn_threshold: float = 0.5
    min_window: int = 8

    def __post_init__(self) -> None:
        if self.burn_threshold <= 0.0:
            raise ValueError("burn_threshold must be > 0")
        if self.min_window < 1:
            raise ValueError("min_window must be >= 1")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet shape and policies.

    Attributes:
        n_replicas: serving runtimes behind the router.
        seed: consistent-hash ring seed (routing is a pure function of
            the seed, the replica set and the session key).
        shed: admission-control policy, ``None`` disables shedding.
        slo: per-replica SLO policy (the shedding signal's source).
    """

    n_replicas: int = 2
    seed: int = 0
    shed: ShedPolicy | None = field(default_factory=ShedPolicy)
    slo: SLOPolicy = field(default_factory=SLOPolicy)

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")


class FleetRouter:
    """Consistent-hash ring mapping session keys to replica indices.

    Each replica owns :data:`_VNODES` points on a 64-bit ring; a key
    routes to the first vnode clockwise from its own hash.  Adding or
    removing one replica only re-routes the keys whose closest vnode
    changed — in expectation K/N of them — which is what keeps
    per-replica caches warm through membership changes.
    """

    def __init__(self, replicas: int, seed: int = 0) -> None:
        self.seed = seed
        self._points: list[int] = []  # sorted vnode hashes
        self._owner: dict[int, int] = {}  # vnode hash -> replica
        self._members: set[int] = set()
        for replica in range(replicas):
            self.add(replica)

    def add(self, replica: int) -> None:
        """Place one replica's vnodes on the ring."""
        if replica in self._members:
            raise ValueError(f"replica {replica} already on the ring")
        self._members.add(replica)
        for v in range(_VNODES):
            point = _stable_hash(f"{self.seed}:replica:{replica}:{v}")
            # sha256 collisions across distinct labels are not a
            # realistic event; last writer would win if one occurred.
            self._owner[point] = replica
            bisect.insort(self._points, point)

    def remove(self, replica: int) -> None:
        """Take one replica's vnodes off the ring."""
        if replica not in self._members:
            raise ValueError(f"replica {replica} not on the ring")
        self._members.remove(replica)
        for v in range(_VNODES):
            point = _stable_hash(f"{self.seed}:replica:{replica}:{v}")
            if self._owner.get(point) == replica:
                del self._owner[point]
                index = bisect.bisect_left(self._points, point)
                del self._points[index]

    def members(self) -> list[int]:
        """Replica indices currently on the ring, sorted."""
        return sorted(self._members)

    def route(self, key: int) -> int:
        """Replica owning ``key`` (first vnode clockwise of its hash)."""
        if not self._points:
            raise LookupError("ring is empty")
        point = _stable_hash(f"{self.seed}:key:{key}")
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap: the ring is circular
        return self._owner[self._points[index]]


class ServingFleet:
    """N replica runtimes behind a consistent-hash router.

    Args:
        registry: shared model registry (one control plane; every
            replica serves the same version set, hot-swaps included).
        config: fleet shape + shedding/SLO policies.
        cluster / serve_config: forwarded to every replica runtime,
            same meaning as on
            :class:`~repro.serve.session.ServingRuntime`.
        canary: optional :class:`~repro.serve.canary.CanaryController`;
            when given, its ``select`` is every replica's version
            selector and every completion is fed to its ``observe``
            with the originating request.
        event_log: the :class:`~repro.obs.events.EventLog` the
            per-replica SLO watchers record into and every shed
            decision lands in under subsystem ``"serve.fleet"`` (the
            shared flight recorder); the fleet creates one for all its
            replicas when omitted.
        slo_labels: constant labels (scenario / arm tags) merged into
            every watcher's and shed event's labels, in addition to the
            per-watcher ``replica`` index.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: FleetConfig | None = None,
        cluster: ClusterSpec | None = None,
        serve_config: ServeConfig | None = None,
        canary=None,
        event_log=None,
        slo_labels: dict | None = None,
    ) -> None:
        self.registry = registry
        self.config = config or FleetConfig()
        #: the ``fleet.*`` counters; each replica runtime keeps its own
        #: registry, so their ``serve.*`` names never collide
        self.metrics = MetricsRegistry()
        self.canary = canary
        version_selector = canary.select if canary is not None else None
        self.router = FleetRouter(self.config.n_replicas, self.config.seed)
        self.event_log = event_log if event_log is not None else EventLog()
        self.slo_labels = dict(slo_labels or {})
        self._requests: dict[int, Request] = {}  # in flight, by request id
        self.completed: list[Prediction] = []
        self.watchers: list[SLOWatcher] = []
        self.replicas: list[ServingRuntime] = []
        for i in range(self.config.n_replicas):
            watcher = SLOWatcher(
                self.config.slo,
                labels={**self.slo_labels, "replica": i},
                event_log=self.event_log,
            )
            self.watchers.append(watcher)
            runtime = ServingRuntime(
                registry,
                cluster=cluster,
                config=serve_config,
                slo=watcher,
                version_selector=version_selector,
            )
            runtime.set_on_complete(self._on_complete)
            self.replicas.append(runtime)
        self._arrivals: list[tuple[float, int, Request]] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Queue one arrival (routed when its timestamp comes up)."""
        self._seq += 1
        heapq.heappush(self._arrivals, (request.arrival, self._seq, request))

    def _route_or_shed(self, request: Request, now: float) -> None:
        replica = self.router.route(request.session_key())
        if self._should_shed(replica):
            self.metrics.inc(_PREFIX + "shed")
            self.metrics.inc(_PREFIX + f"replica{replica}.shed")
            self.event_log.emit(
                now,
                "serve.fleet",
                "shed",
                labels={**self.slo_labels, "replica": replica},
                request_id=request.request_id,
                session=request.session_key(),
                burn_rate=self.watchers[replica].burn_rate(),
            )
            empty = np.zeros(0, dtype=np.float64)
            outcome = Prediction(
                request_id=request.request_id,
                version="",
                margins=empty,
                probabilities=empty,
                degraded=False,
                degraded_rows=np.zeros(0, dtype=bool),
                cache_hits=0,
                admitted=now,
                finished=now,
                deadline_missed=False,
                rejected=True,
                shed=True,
            )
            self.completed.append(outcome)
            return
        self.metrics.inc(_PREFIX + "routed")
        self.metrics.inc(_PREFIX + f"replica{replica}.routed")
        self._requests[request.request_id] = request
        self.replicas[replica].submit(request)

    def _should_shed(self, replica: int) -> bool:
        policy = self.config.shed
        if policy is None:
            return False
        watcher = self.watchers[replica]
        if watcher.window_size() < policy.min_window:
            return False
        return watcher.burn_rate() >= policy.burn_threshold

    # ------------------------------------------------------------------
    # Egress
    # ------------------------------------------------------------------
    def _on_complete(self, outcome: Prediction) -> None:
        """Collect one replica completion, feed the canary, count it."""
        self.completed.append(outcome)
        request = self._requests.pop(outcome.request_id, None)
        if self.canary is not None:
            self.canary.observe(request, outcome)
        if outcome.rejected:
            self.metrics.inc(_PREFIX + "rejected")
        else:
            self.metrics.inc(_PREFIX + "completed")
            if outcome.degraded:
                self.metrics.inc(_PREFIX + "degraded")
            if outcome.deadline_missed:
                self.metrics.inc(_PREFIX + "deadline_misses")

    # ------------------------------------------------------------------
    # The global event loop
    # ------------------------------------------------------------------
    def run(self) -> list[Prediction]:
        """Drain arrivals + every replica, globally time-ordered.

        At each step the earliest event across the arrival queue and
        all replica loops fires; an arrival beats a replica event at
        the same timestamp (source index -1 < any replica index), and
        replicas tie-break by index.  One total order, so an N-replica
        run is byte-deterministic.
        """
        while True:
            source = -2  # sentinel: nothing pending
            when = 0.0
            if self._arrivals:
                when, source = self._arrivals[0][0], -1
            for index, replica in enumerate(self.replicas):
                t = replica.next_event_time()
                if t is not None and (source == -2 or (t, index) < (when, source)):
                    when, source = t, index
            if source == -2:
                return self.completed
            if source == -1:
                when, _, request = heapq.heappop(self._arrivals)
                self._route_or_shed(request, when)
            else:
                self.replicas[source].step()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def request(self, request_id: int) -> Request | None:
        """The in-flight request for an id (None once completed)."""
        return self._requests.get(request_id)

    def summary(self) -> dict:
        """JSON-ready fleet posture: router, rollup, per-replica SLO."""
        counters = self.metrics.counters(_PREFIX)
        return {
            "n_replicas": self.config.n_replicas,
            "seed": self.config.seed,
            "routed": counters.get("routed", 0),
            "shed": counters.get("shed", 0),
            "completed": counters.get("completed", 0),
            "rejected": counters.get("rejected", 0),
            "degraded": counters.get("degraded", 0),
            "per_replica": [
                {
                    "routed": counters.get(f"replica{i}.routed", 0),
                    "shed": counters.get(f"replica{i}.shed", 0),
                    "slo": self.watchers[i].summary(),
                }
                for i in range(self.config.n_replicas)
            ],
        }
