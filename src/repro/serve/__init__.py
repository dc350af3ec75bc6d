"""Online federated inference serving.

The subsystem turns the offline :class:`repro.core.inference.
FederatedPredictor` protocol into a latency-aware serving runtime:

* :mod:`repro.serve.registry` — versioned model registry with atomic
  hot-swap; validates skeleton + every split owner's sidecar + bin
  edges at registration time, and holds each version's
  majority-direction degraded router (timeout/retry policy lives in
  :mod:`repro.fed.retry`, shared with the training path).
* :mod:`repro.serve.batcher` — cross-request micro-batching of routing
  queries per passive party under a max-batch-size / max-delay policy.
* :mod:`repro.serve.session` — request lifecycle (admission → binning →
  layered traversal → margin → probability) on a deterministic
  discrete-event loop; counts into a
  :class:`~repro.obs.metrics.MetricsRegistry` under ``serve.*``
  (``ServingRuntime.snapshot()`` is the JSON view, wire bytes read
  from the channel ledger).
* :mod:`repro.serve.slo` — sliding-window p99 + error-budget burn
  watcher; transitions go to the shared
  :class:`~repro.obs.events.EventLog`.
* :mod:`repro.serve.fleet` — consistent-hash sharding across N replica
  runtimes, burn-rate load shedding at the fleet door, ``fleet.*``
  metric rollup.
* :mod:`repro.serve.canary` — staged rollout of a registry version on
  a deterministic traffic slice with golden-metric promotion/rollback.
* :mod:`repro.serve.loadgen` / :mod:`repro.serve.bench` — seeded
  open/closed-loop load generation with heavy-tail traces, the
  naive-vs-batched benchmark and the replica-count sweep
  (``python -m repro.serve.bench --replicas 4 --trace flashcrowd``).
"""

from repro.fed.retry import RetryPolicy
from repro.serve.batcher import MicroBatcher, RouteWork
from repro.serve.canary import CanaryConfig, CanaryController, golden_margins
from repro.serve.fleet import (
    FleetConfig,
    FleetRouter,
    ServingFleet,
    ShedPolicy,
)
from repro.serve.loadgen import (
    TRACES,
    LoadgenConfig,
    make_party_delay,
    make_requests,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.registry import (
    DegradedRouter,
    ModelRegistry,
    ModelVersion,
    majority_directions,
)
from repro.serve.session import (
    Prediction,
    Request,
    ServeConfig,
    ServingRuntime,
)
from repro.serve.slo import SLOPolicy, SLOWatcher

__all__ = [
    "MicroBatcher",
    "RouteWork",
    "CanaryConfig",
    "CanaryController",
    "golden_margins",
    "FleetConfig",
    "FleetRouter",
    "ServingFleet",
    "ShedPolicy",
    "TRACES",
    "LoadgenConfig",
    "make_party_delay",
    "make_requests",
    "run_closed_loop",
    "run_open_loop",
    "ModelRegistry",
    "ModelVersion",
    "DegradedRouter",
    "RetryPolicy",
    "majority_directions",
    "Prediction",
    "Request",
    "SLOPolicy",
    "SLOWatcher",
    "ServeConfig",
    "ServingRuntime",
]
