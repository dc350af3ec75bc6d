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
