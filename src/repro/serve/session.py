"""Request lifecycle and the serving event loop.

A request travels: admission queue → per-party binning of its raw
feature rows (with the model's stored bin edges) → prediction cache
probe → layered tree traversal (local splits resolved inline,
cross-party splits coalesced through the :class:`MicroBatcher`) →
margin → probability.  The whole runtime advances on *simulated* time:
arrivals come stamped by the load generator, WAN hops are priced by the
:class:`~repro.fed.cluster.ClusterSpec`, and compute by fixed unit
costs — so a serving experiment is exactly repeatable, the same
contract the training-side simulator keeps.

Concurrency model: a deterministic discrete-event loop (a heap of
``(time, seq, event)``).  Any number of requests are in flight at once;
their cross-party routing work shares batches.  Hot-swapping the model
registry between events never mixes versions inside a request — each
session pins the :class:`~repro.serve.registry.ModelVersion` it was
admitted under.

Failure path: an unanswered batch is retried with exponential backoff
(:class:`~repro.fed.retry.RetryPolicy`); once the retry budget
is exhausted the affected nodes are routed by the registry's
majority-direction fallback and every touched prediction is flagged
``degraded`` instead of failing (see
:class:`repro.serve.registry.DegradedRouter` for the privacy argument).

Admission is priced on a *serial* per-runtime CPU: binning + cache
probing of consecutive requests queue behind one another, so one
runtime has a finite capacity of ``1 / admission_cost`` requests per
simulated second.  That queueing is what makes horizontal scale-out
(:mod:`repro.serve.fleet`) and burn-rate load shedding meaningful —
overload shows up as admission backlog, exactly the resource a replica
shard takes over.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.inference import (
    answer_route_items,
    apply_route,
    route_local,
    split_frontier,
)
from repro.core.trainer import ACTIVE
from repro.fed.channel import RecordingChannel
from repro.fed.cluster import ClusterSpec
from repro.fed.messages import RouteAnswerBatch, RouteQueryBatch
from repro.gbdt.loss import sigmoid
from repro.fed.retry import RetryPolicy
from repro.obs.metrics import COUNT_BUCKETS, LATENCY_BUCKETS, MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve.batcher import MicroBatcher, RouteWork
from repro.serve.registry import ModelRegistry, ModelVersion

__all__ = ["ServeConfig", "Request", "Prediction", "ServingRuntime"]

#: the runtime's distributions and their bucket bounds
_HISTOGRAMS = {
    "serve.latency": LATENCY_BUCKETS,
    "serve.batch_occupancy": COUNT_BUCKETS,
    "serve.batch_rows": COUNT_BUCKETS,
    "serve.queue_depth": COUNT_BUCKETS,
}


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving runtime.

    Attributes:
        max_batch_size: flush a party's batch at this many work items.
        max_delay: flush a party's batch this long after its first item.
        deadline: per-request latency SLO in simulated seconds; misses
            are counted (the answer is still delivered).
        max_queue: admission bound on concurrently in-flight requests.
        enable_cache: serve repeated rows from the prediction cache.
        degraded_enabled: fall back to majority-direction routing when a
            party exhausts its retry budget (``False`` = keep waiting,
            i.e. retry errors surface as huge latencies).
        key_bits: Paillier modulus assumed for wire accounting.
        admission_cost: simulated seconds to bin + cache-probe a request.
        route_cost_per_row: owner-side seconds per routed instance id.
    """

    max_batch_size: int = 64
    max_delay: float = 0.005
    deadline: float = 2.0
    max_queue: int = 1024
    enable_cache: bool = True
    degraded_enabled: bool = True
    key_bits: int = 2048
    admission_cost: float = 1e-4
    route_cost_per_row: float = 2e-7


@dataclass
class Request:
    """One inference request: raw feature rows, one block per party.

    ``session_id`` groups requests of one logical client; the fleet
    router consistent-hashes it so a session sticks to one replica
    (cache affinity).  ``-1`` means "no session": routing falls back to
    the request id.
    """

    request_id: int
    arrival: float
    rows: dict[int, np.ndarray]
    session_id: int = -1

    def n_rows(self) -> int:
        """Instances carried by the request."""
        return int(next(iter(self.rows.values())).shape[0])

    def session_key(self) -> int:
        """Routing key: the session when set, else the request id."""
        return self.session_id if self.session_id >= 0 else self.request_id


@dataclass
class Prediction:
    """Completed (or rejected) request outcome."""

    request_id: int
    version: str
    margins: np.ndarray
    probabilities: np.ndarray
    degraded: bool
    degraded_rows: np.ndarray
    cache_hits: int
    admitted: float
    finished: float
    deadline_missed: bool
    rejected: bool = False
    shed: bool = False

    @property
    def latency(self) -> float:
        """Arrival-to-completion simulated seconds."""
        return self.finished - self.admitted


class _Arena:
    """Append-only per-party code store with amortized growth.

    Wire messages carry arena row ids; the owning party indexes this
    buffer to answer them — the in-process stand-in for each party's
    request-row store keyed by a shared request id.
    """

    def __init__(self) -> None:
        self._buf: np.ndarray | None = None
        self._size = 0

    def append(self, codes: np.ndarray) -> int:
        """Store rows; returns the offset of the first one."""
        n, d = codes.shape
        if self._buf is None:
            self._buf = np.empty((max(64, n), d), dtype=np.uint16)
        while self._size + n > self._buf.shape[0]:
            grown = np.empty(
                (2 * self._buf.shape[0], self._buf.shape[1]), dtype=np.uint16
            )
            grown[: self._size] = self._buf[: self._size]
            self._buf = grown
        offset = self._size
        self._buf[offset : offset + n] = codes
        self._size += n
        return offset

    def view(self) -> np.ndarray:
        """The filled prefix (valid arena ids index into this)."""
        assert self._buf is not None
        return self._buf[: self._size]


@dataclass(eq=False)
class _Session:
    """Mutable traversal state of one in-flight request."""

    request: Request
    version: ModelVersion
    admitted: float
    deadline: float
    codes: dict[int, np.ndarray]
    offsets: dict[int, int]
    leaf_weights: np.ndarray  # (n_rows, n_trees)
    margins: np.ndarray  # filled for cache-hit rows up front
    cached_mask: np.ndarray  # rows answered by the cache
    degraded_mask: np.ndarray
    frontier: dict[int, dict[int, np.ndarray]]
    outstanding: int = 0
    finished: bool = False


@dataclass(eq=False)
class _InFlight:
    """One routing batch on the wire (possibly a retry attempt)."""

    party: int
    batch_id: int
    items: list[RouteWork]
    attempt: int
    answers: list[tuple[int, int, np.ndarray]]


class ServingRuntime:
    """Online federated inference over a registry, batcher and channel.

    Args:
        registry: model versions; :meth:`ModelRegistry.active` at each
            request's admission decides which model serves it.
        cluster: WAN latency/bandwidth used to price round trips.
        config: batching/deadline/cache knobs.
        retry: per-party timeout and backoff policy.
        channel: strict :class:`RecordingChannel` for wire accounting
            and the privacy guard (created when omitted).
        metrics: the :class:`~repro.obs.metrics.MetricsRegistry` the
            runtime counts into under ``serve.*`` — counters
            ``requests``, ``predictions`` (rows), ``completed``,
            ``rejected`` (admission-queue overflow), ``deadline_misses``,
            ``degraded_requests``, ``degraded_rows``, ``cache_lookups``,
            ``cache_hits``, ``round_trips``, ``retries``, ``timeouts``
            and histograms ``latency`` (admission -> completion,
            simulated s), ``batch_occupancy`` / ``batch_rows`` (items /
            instance ids per flushed routing batch), ``queue_depth``
            (in-flight requests at each admission).  The runtime
            creates its own when omitted, which keeps independent
            runtimes (fleet replicas) isolated.
        party_delay: deterministic fault injection —
            ``(party, batch_id, attempt) -> extra seconds`` added to
            that attempt's answer time (``None`` = healthy parties).
        tracer: optional :class:`~repro.obs.tracer.Tracer` collecting
            admission / request / round-trip spans on the simulated
            clock (exportable as a Chrome trace).
        slo: optional :class:`~repro.serve.slo.SLOWatcher`; fed every
            completion (including rejections) and every batch timeout
            on the simulated clock.
        version_selector: optional ``request -> ModelVersion`` hook
            deciding which registered version serves a request (canary
            traffic slicing); defaults to :meth:`ModelRegistry.active`.
        track_prefix: prefix for every tracer track name — a fleet
            passes ``"replica3."`` so per-replica spans land on their
            own Perfetto tracks.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        cluster: ClusterSpec | None = None,
        config: ServeConfig | None = None,
        retry: RetryPolicy | None = None,
        channel: RecordingChannel | None = None,
        metrics: MetricsRegistry | None = None,
        party_delay: Callable[[int, int, int], float] | None = None,
        tracer: Tracer | None = None,
        slo=None,
        version_selector: Callable[[Request], ModelVersion] | None = None,
        track_prefix: str = "",
    ) -> None:
        self.registry = registry
        self.cluster = cluster or ClusterSpec()
        self.config = config or ServeConfig()
        self.retry = retry or RetryPolicy()
        self.channel = channel or RecordingChannel(
            self.config.key_bits, active_party=ACTIVE
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Up front: bounds apply on creation only, and an idle runtime
        # still snapshots all four.
        for name, bounds in _HISTOGRAMS.items():
            self.metrics.histogram(name, bounds)
        self.party_delay = party_delay
        self.tracer = tracer
        self.slo = slo
        self.version_selector = version_selector
        self.track_prefix = track_prefix
        self.batcher = MicroBatcher(
            self.config.max_batch_size, self.config.max_delay
        )
        self.completed: list[Prediction] = []
        self._sessions: dict[int, _Session] = {}
        self._arenas: dict[int, _Arena] = {}
        self._cache: dict[tuple[str, bytes], float] = {}
        self._events: list[tuple[float, int, str, object]] = []
        self._seq = 0
        self._on_complete: Callable[[Prediction], None] | None = None
        #: the serial admission CPU is busy until this simulated time
        self._cpu_free = 0.0

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _push(self, when: float, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._events, (when, self._seq, kind, payload))

    def submit(self, request: Request) -> None:
        """Schedule a request's arrival (callable mid-run: closed loop)."""
        self._push(request.arrival, "arrive", request)

    def set_on_complete(
        self, on_complete: Callable[[Prediction], None] | None
    ) -> None:
        """Install the completion callback without entering :meth:`run`
        (a fleet steps the loop itself via :meth:`step`)."""
        self._on_complete = on_complete

    def next_event_time(self) -> float | None:
        """Timestamp of the earliest pending event (None when idle)."""
        return self._events[0][0] if self._events else None

    def step(self) -> None:
        """Pop and process exactly one event (fleet interleaving)."""
        now, _, kind, payload = heapq.heappop(self._events)
        self._dispatch(now, kind, payload)

    def _dispatch(self, now: float, kind: str, payload: object) -> None:
        if kind == "arrive":
            self._admit(payload, now)
        elif kind == "timer":
            party, generation = payload
            items = self.batcher.on_timer(party, generation)
            if items:
                self._flush(party, items, now)
        elif kind == "send":
            self._send_attempt(payload, now)
        elif kind == "deliver":
            self._deliver(payload, now)
        elif kind == "timeout":
            self._timeout(payload, now)

    def run(
        self, on_complete: Callable[[Prediction], None] | None = None
    ) -> list[Prediction]:
        """Drain the event loop; returns completions in finish order."""
        self._on_complete = on_complete
        while self._events:
            self.step()
        return self.completed

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, request: Request, now: float) -> None:
        self.metrics.inc("serve.requests")
        self.metrics.observe("serve.queue_depth", float(len(self._sessions)))
        if len(self._sessions) >= self.config.max_queue:
            self.metrics.inc("serve.rejected")
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
            )
            self.completed.append(outcome)
            if self.slo is not None:
                self.slo.on_completion(outcome, now)
            if self._on_complete is not None:
                self._on_complete(outcome)
            return
        version = (
            self.version_selector(request)
            if self.version_selector is not None
            else self.registry.active()
        )
        # Binning + cache probing occupy the serial admission CPU, so
        # concurrent arrivals queue: max(now, cpu_free) is the backlog.
        admitted = max(now, self._cpu_free) + self.config.admission_cost
        self._cpu_free = admitted
        if self.tracer is not None:
            self.tracer.add(
                f"admit#{request.request_id}",
                now,
                admitted,
                category="Admit",
                track=self.track_prefix + "B.serve",
                request_id=request.request_id,
            )
        n_rows = request.n_rows()
        n_trees = len(version.model.trees)

        codes: dict[int, np.ndarray] = {}
        offsets: dict[int, int] = {}
        for party in sorted(version.bin_edges):
            party_codes = version.bin_rows(party, request.rows[party])
            codes[party] = party_codes
            offsets[party] = self._arena(party).append(party_codes)

        session = _Session(
            request=request,
            version=version,
            admitted=now,
            deadline=now + self.config.deadline,
            codes=codes,
            offsets=offsets,
            leaf_weights=np.zeros((n_rows, n_trees), dtype=np.float64),
            margins=np.zeros(n_rows, dtype=np.float64),
            cached_mask=np.zeros(n_rows, dtype=bool),
            degraded_mask=np.zeros(n_rows, dtype=bool),
            frontier={},
        )
        self._sessions[request.request_id] = session

        miss_rows = self._probe_cache(session, n_rows)
        if miss_rows.size:
            root = {0: miss_rows}
            session.frontier = {
                t: dict(root) for t in range(n_trees)
            }
        self._advance(session, admitted)

    def _arena(self, party: int) -> _Arena:
        if party not in self._arenas:
            self._arenas[party] = _Arena()
        return self._arenas[party]

    def _row_key(self, session: _Session, row: int) -> tuple[str, bytes]:
        parts = [
            session.codes[party][row].tobytes()
            for party in sorted(session.codes)
        ]
        return (session.version.version, b"|".join(parts))

    def _probe_cache(self, session: _Session, n_rows: int) -> np.ndarray:
        """Fill cached margins; returns the rows that must traverse."""
        if not self.config.enable_cache:
            return np.arange(n_rows, dtype=np.int64)
        misses = []
        for row in range(n_rows):
            self.metrics.inc("serve.cache_lookups")
            hit = self._cache.get(self._row_key(session, row))
            if hit is None:
                misses.append(row)
            else:
                self.metrics.inc("serve.cache_hits")
                session.margins[row] = hit
                session.cached_mask[row] = True
        return np.asarray(misses, dtype=np.int64)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _advance(self, session: _Session, now: float) -> None:
        """Push every tree's frontier as deep as local data allows."""
        if session.finished:
            return
        model = session.version.model
        progress = True
        while progress:
            progress = False
            for tree_index in sorted(session.frontier):
                frontier = session.frontier[tree_index]
                if not frontier:
                    continue
                tree = model.trees[tree_index]
                layer = split_frontier(tree, frontier, local_party=ACTIVE)
                next_frontier: dict[int, np.ndarray] = {}
                for node_id, rows in layer.leaves.items():
                    session.leaf_weights[rows, tree_index] = tree.nodes[
                        node_id
                    ].weight
                for node_id, rows in layer.local.items():
                    goes_left = route_local(
                        session.codes[ACTIVE], tree.nodes[node_id], rows
                    )
                    apply_route(tree, node_id, rows, goes_left, next_frontier)
                for owner in sorted(layer.remote):
                    for node_id in sorted(layer.remote[owner]):
                        rows = layer.remote[owner][node_id]
                        self._enqueue_remote(
                            session, owner, tree_index, node_id, rows, now
                        )
                session.frontier[tree_index] = next_frontier
                if next_frontier:
                    progress = True
        self._maybe_finish(session, now)

    def _enqueue_remote(
        self,
        session: _Session,
        owner: int,
        tree_index: int,
        node_id: int,
        rows: np.ndarray,
        now: float,
    ) -> None:
        work = RouteWork(
            request_id=session.request.request_id,
            tree_index=tree_index,
            node_id=node_id,
            rows=rows,
            instance_ids=rows + session.offsets[owner],
            version=session.version.version,
        )
        session.outstanding += 1
        verdict = self.batcher.add(owner, work, now)
        if verdict is None:
            return
        if verdict[0] == "flush":
            self._flush(owner, verdict[1], now)
        else:  # ("timer", deadline, generation)
            self._push(verdict[1], "timer", (owner, verdict[2]))

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------
    def _flush(self, party: int, items: list[RouteWork], now: float) -> None:
        batch_id = self.batcher.next_batch_id()
        self.metrics.observe("serve.batch_occupancy", float(len(items)))
        self.metrics.observe(
            "serve.batch_rows",
            float(sum(int(w.instance_ids.size) for w in items)),
        )
        self._send_attempt(
            _InFlight(
                party=party, batch_id=batch_id, items=items, attempt=1, answers=[]
            ),
            now,
        )

    def _send_attempt(self, record: _InFlight, now: float) -> None:
        """Ship one attempt of a batch and schedule its outcome."""
        party = record.party
        self.metrics.inc("serve.round_trips")
        if record.attempt > 1:
            self.metrics.inc("serve.retries")
        query = self.batcher.build_query(ACTIVE, party, record.batch_id, record.items)
        self.channel.send(query)
        received = self.channel.receive(ACTIVE, party)
        assert isinstance(received, RouteQueryBatch)
        # Owner side: answer each item against the model version it was
        # admitted under, indexing the owner's code arena.
        arena = self._arena(party).view()
        answers: list[tuple[int, int, np.ndarray]] = []
        for work, (tree_index, node_id, instance_ids) in zip(
            record.items, received.items
        ):
            model = self.registry.get(work.version).model
            answers.extend(
                answer_route_items(model, arena, [(tree_index, node_id, instance_ids)])
            )
        answer_msg = RouteAnswerBatch(
            party, ACTIVE, batch_id=record.batch_id, items=answers
        )
        self.channel.send(answer_msg)
        delivered = self.channel.receive(party, ACTIVE)
        assert isinstance(delivered, RouteAnswerBatch)
        record.answers = delivered.items

        wire_bytes = query.payload_bytes(self.config.key_bits) + answer_msg.payload_bytes(
            self.config.key_bits
        )
        rtt = (
            2 * self.cluster.wan_latency
            + wire_bytes / self.cluster.wan_bandwidth
            + self.config.route_cost_per_row * query.row_count()
        )
        if self.party_delay is not None:
            rtt += self.party_delay(party, record.batch_id, record.attempt)
        if rtt <= self.retry.timeout or not self.config.degraded_enabled:
            done, outcome = now + rtt, "deliver"
        else:
            done, outcome = now + self.retry.timeout, "timeout"
        if self.tracer is not None:
            self.tracer.add(
                f"rt#{record.batch_id}.{record.attempt}",
                now,
                done,
                category="RoundTrip",
                track=f"{self.track_prefix}party{party}.wire",
                lane=record.batch_id % 8,
                batch_id=record.batch_id,
                attempt=record.attempt,
                outcome=outcome,
            )
        self._push(done, outcome, record)

    def _deliver(self, record: _InFlight, now: float) -> None:
        touched: list[_Session] = []
        for work, (tree_index, node_id, goes_left) in zip(
            record.items, record.answers
        ):
            session = self._sessions.get(work.request_id)
            if session is None or session.finished:
                continue  # already resolved (e.g. degraded completion)
            tree = session.version.model.trees[tree_index]
            apply_route(
                tree, node_id, work.rows, goes_left, session.frontier[tree_index]
            )
            session.outstanding -= 1
            if session not in touched:
                touched.append(session)
        for session in touched:
            self._advance(session, now)

    def _timeout(self, record: _InFlight, now: float) -> None:
        self.metrics.inc("serve.timeouts")
        if self.slo is not None:
            self.slo.on_timeout(
                record.party,
                record.batch_id,
                record.attempt,
                now,
                exhausted=record.attempt > self.retry.max_retries,
            )
        if record.attempt <= self.retry.max_retries:
            retry = _InFlight(
                party=record.party,
                batch_id=record.batch_id,
                items=record.items,
                attempt=record.attempt + 1,
                answers=[],
            )
            self._push(now + self.retry.backoff(record.attempt), "send", retry)
            return
        # Retry budget exhausted: degrade every item of the batch.
        touched: list[_Session] = []
        for work in record.items:
            session = self._sessions.get(work.request_id)
            if session is None or session.finished:
                continue
            router = session.version.degraded
            goes_left = router.route(work.tree_index, work.node_id, work.rows.size)
            tree = session.version.model.trees[work.tree_index]
            apply_route(
                tree,
                work.node_id,
                work.rows,
                goes_left,
                session.frontier[work.tree_index],
            )
            session.degraded_mask[work.rows] = True
            session.outstanding -= 1
            if session not in touched:
                touched.append(session)
        for session in touched:
            self._advance(session, now)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _maybe_finish(self, session: _Session, now: float) -> None:
        if session.finished or session.outstanding > 0:
            return
        if any(frontier for frontier in session.frontier.values()):
            return
        session.finished = True
        del self._sessions[session.request.request_id]

        model = session.version.model
        fresh = ~session.cached_mask
        if fresh.any():
            margins = np.full(
                int(fresh.sum()), model.base_score, dtype=np.float64
            )
            for t in range(session.leaf_weights.shape[1]):
                margins += model.learning_rate * session.leaf_weights[fresh, t]
            session.margins[fresh] = margins
        degraded_rows = session.degraded_mask.copy()
        if self.config.enable_cache:
            for row in np.flatnonzero(fresh & ~degraded_rows):
                self._cache[self._row_key(session, int(row))] = float(
                    session.margins[row]
                )

        n_rows = session.request.n_rows()
        self.metrics.inc("serve.completed")
        self.metrics.inc("serve.predictions", n_rows)
        self.metrics.observe("serve.latency", now - session.admitted)
        if self.tracer is not None:
            self.tracer.add(
                f"req#{session.request.request_id}",
                session.admitted,
                now,
                category="Request",
                track=self.track_prefix + "requests",
                lane=session.request.request_id % 16,
                request_id=session.request.request_id,
                rows=n_rows,
            )
        missed = now > session.deadline
        if missed:
            self.metrics.inc("serve.deadline_misses")
        if degraded_rows.any():
            self.metrics.inc("serve.degraded_requests")
            self.metrics.inc("serve.degraded_rows", int(degraded_rows.sum()))
        outcome = Prediction(
            request_id=session.request.request_id,
            version=session.version.version,
            margins=session.margins.copy(),
            probabilities=sigmoid(session.margins),
            degraded=bool(degraded_rows.any()),
            degraded_rows=degraded_rows,
            cache_hits=int(session.cached_mask.sum()),
            admitted=session.admitted,
            finished=now,
            deadline_missed=missed,
        )
        self.completed.append(outcome)
        if self.slo is not None:
            self.slo.on_completion(outcome, now)
        if self._on_complete is not None:
            self._on_complete(outcome)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view of the ``serve.*`` counters and distributions,
        with wire bytes read from the channel's ledger."""
        counters = self.metrics.counters("serve.")
        wire_bytes = self.channel.total_bytes()

        def per(value: float, denominator: str) -> float:
            total = counters.get(denominator, 0)
            return value / total if total else 0.0

        return {
            "counters": counters,
            "rates": {
                "cache_hit_rate": per(counters.get("cache_hits", 0), "cache_lookups"),
                "degraded_rate": per(
                    counters.get("degraded_requests", 0), "completed"
                ),
                "rejection_rate": per(counters.get("rejected", 0), "requests"),
            },
            "per_1k_predictions": {
                "round_trips": per(
                    1000.0 * counters.get("round_trips", 0), "predictions"
                ),
                "wire_bytes": per(1000.0 * wire_bytes, "predictions"),
            },
            "wire_bytes": wire_bytes,
            **{
                name[len("serve."):]: self.metrics.histogram(name).snapshot()
                for name in _HISTOGRAMS
            },
        }
