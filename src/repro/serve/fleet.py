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

A fleet-level aggregator rolls per-replica SLO posture into the shared
:class:`~repro.obs.metrics.MetricsRegistry` under ``fleet.*`` — routed
and shed counters, per-replica p99/burn-rate gauges and their fleet-wide
maxima — so one snapshot shows the whole fleet.  Transitions (every
replica's SLO events and every shed decision) go to one
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
from repro.fed.retry import RetryPolicy
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
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
        vnodes: virtual nodes per replica on the ring; more vnodes
            smooth the key distribution at slightly more memory.
        shed: admission-control policy, ``None`` disables shedding.
        slo: per-replica SLO policy (the shedding signal's source).
    """

    n_replicas: int = 2
    seed: int = 0
    vnodes: int = 64
    shed: ShedPolicy | None = field(default_factory=ShedPolicy)
    slo: SLOPolicy = field(default_factory=SLOPolicy)

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")


class FleetRouter:
    """Consistent-hash ring mapping session keys to replica indices.

    Each replica owns ``vnodes`` points on a 64-bit ring; a key routes
    to the first vnode clockwise from its own hash.  Adding or removing
    one replica only re-routes the keys whose closest vnode changed —
    in expectation K/N of them — which is what keeps per-replica caches
    warm through membership changes.
    """

    def __init__(self, replicas: int, seed: int = 0, vnodes: int = 64) -> None:
        self.seed = seed
        self.vnodes = vnodes
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
        for v in range(self.vnodes):
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
        for v in range(self.vnodes):
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
        cluster / serve_config / retry / party_delay: forwarded to
            every replica runtime, same meaning as on
            :class:`~repro.serve.session.ServingRuntime`.
        metrics_registry: shared sink for the ``fleet.*`` rollup
            (created when omitted).  Per-replica runtimes keep private
            registries so their ``serve.*`` names never collide.
        tracer: optional shared tracer; replica ``i`` prefixes its
            tracks ``replica{i}.`` so spans land on distinct tracks.
        version_selector: optional ``request -> ModelVersion`` hook
            installed on every replica (the canary controller's seam).
        canary: optional :class:`~repro.serve.canary.CanaryController`;
            when given, its ``select`` becomes the version selector (if
            none was passed) and every completion is fed to its
            ``observe`` with the originating request.
        on_complete: optional callback fed every outcome — completions
            *and* fleet-level sheds — in event order.
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
        retry: RetryPolicy | None = None,
        party_delay=None,
        metrics_registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        version_selector=None,
        canary=None,
        on_complete=None,
        event_log=None,
        slo_labels: dict | None = None,
    ) -> None:
        self.registry = registry
        self.config = config or FleetConfig()
        self.metrics = metrics_registry or MetricsRegistry()
        self.canary = canary
        if canary is not None and version_selector is None:
            version_selector = canary.select
        self.router = FleetRouter(
            self.config.n_replicas, self.config.seed, self.config.vnodes
        )
        self._on_complete = on_complete
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
                retry=retry,
                party_delay=party_delay,
                tracer=tracer,
                slo=watcher,
                version_selector=version_selector,
                track_prefix=f"replica{i}.",
            )
            runtime.set_on_complete(self._make_sink(i))
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
            if self._on_complete is not None:
                self._on_complete(outcome)
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
    # Egress / aggregation
    # ------------------------------------------------------------------
    def _make_sink(self, replica: int):
        def sink(outcome: Prediction) -> None:
            self.completed.append(outcome)
            request = self._requests.pop(outcome.request_id, None)
            if self.canary is not None:
                self.canary.observe(request, outcome)
            self._aggregate(replica, outcome)
            if self._on_complete is not None:
                self._on_complete(outcome)

        return sink

    def _aggregate(self, replica: int, outcome: Prediction) -> None:
        """Roll one replica's SLO posture into the shared registry."""
        if outcome.rejected:
            self.metrics.inc(_PREFIX + "rejected")
        else:
            self.metrics.inc(_PREFIX + "completed")
            if outcome.degraded:
                self.metrics.inc(_PREFIX + "degraded")
            if outcome.deadline_missed:
                self.metrics.inc(_PREFIX + "deadline_misses")
        watcher = self.watchers[replica]
        self.metrics.set_gauge(
            _PREFIX + f"replica{replica}.p99", watcher.window_p99()
        )
        self.metrics.set_gauge(
            _PREFIX + f"replica{replica}.burn_rate", watcher.burn_rate()
        )
        self.metrics.set_gauge(
            _PREFIX + "p99_max",
            max(w.window_p99() for w in self.watchers),
        )
        self.metrics.set_gauge(
            _PREFIX + "burn_rate_max",
            max(w.burn_rate() for w in self.watchers),
        )

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
