"""Serving benchmark: naive per-node routing vs. the micro-batched runtime.

Usage::

    python -m repro.serve.bench            # full run, writes BENCH_serve.json
    python -m repro.serve.bench --smoke    # small sizes (tier-1 CI gate)

Both modes are end-to-end: train a small federated model (counted
crypto mode — the protocol is lossless, so the model is the one a real
run would produce), register it, replay a seeded closed-loop workload
against (a) the offline predictor issuing one ``RouteQuery`` per
cross-party node per request and (b) the serving runtime coalescing
routing work per (party, layer) across requests.  Margins must match
bit-for-bit; the interesting numbers are cross-party round trips and
bytes per 1k predictions, p50/p99 latency and throughput.

A third scenario injects a deterministic slow party to exercise the
timeout → retry → degraded-routing path and prove degraded requests are
flagged and counted.

A fourth stage sweeps the **fleet**: the same seeded heavy-tail trace
(``--trace`` — flashcrowd by default) is replayed against 1/2/4/8
replica :class:`~repro.serve.fleet.ServingFleet` deployments (override
with ``--replicas N``), reporting p99 vs. replica count, shed counts
under burn-rate admission control, and bit-parity of every non-shed
prediction against a single-runtime baseline.  A canary stage then
rolls out an identical model (auto-promoted on bit-identical golden
margins) and a deliberately different one (auto-rolled back on the
first golden mismatch, with the active pointer never leaving the
incumbent).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from repro.bench.scenario import SERVE_FULL, SERVE_SMOKE, Scenario
from repro.core.inference import FederatedPredictor
from repro.core.trainer import ACTIVE, FederatedTrainer
from repro.fed.channel import RecordingChannel
from repro.fed.cluster import ClusterSpec
from repro.fed.messages import RouteQuery
from repro.obs import (
    AlertEngine,
    EventLog,
    MetricsRegistry,
    RunReport,
    Tracer,
    band_rule,
    burn_rate_rule,
    channel_report,
    write_chrome_trace,
)
from repro.obs.metrics import nearest_rank
from repro.serve.canary import CanaryConfig, CanaryController
from repro.serve.fleet import FleetConfig, ServingFleet, ShedPolicy
from repro.serve.loadgen import (
    LoadgenConfig,
    make_party_delay,
    make_requests,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.registry import ModelRegistry
from repro.fed.retry import RetryPolicy
from repro.serve.session import ServeConfig, ServingRuntime
from repro.serve.slo import SLOPolicy, SLOWatcher

__all__ = [
    "build_registry",
    "canary_stage",
    "fleet_sweep",
    "main",
    "run_bench",
    "train_model",
]


def train_model(scenario: Scenario):
    """Train the demo model; the *second* half of the columns is Party B's."""
    parties, labels = scenario.parties()
    parties.reverse()
    config = scenario.config(crypto_mode="counted")
    result = FederatedTrainer(config).fit(parties, labels)
    return result.model, parties


def _register(registry: ModelRegistry, version: str, model, parties) -> None:
    registry.register(
        version,
        model,
        bin_edges={k: party.cut_points for k, party in enumerate(parties)},
        calibration_codes={k: party.codes for k, party in enumerate(parties)},
    )


def build_registry(
    model, parties, event_log=None, event_labels=None
) -> ModelRegistry:
    registry = ModelRegistry(event_log=event_log, event_labels=event_labels)
    _register(registry, "v1", model, parties)
    registry.activate("v1")
    return registry


def _naive_baseline(
    registry: ModelRegistry,
    requests,
    cluster: ClusterSpec,
    serve_config: ServeConfig,
) -> dict:
    """Per-request offline prediction with one round trip per node.

    Requests are served by ``concurrency`` independent sequential
    streams (the closed-loop equivalent); each request's latency is its
    own routing chain priced on the same WAN constants as the runtime.
    """
    version = registry.active()
    latencies: list[float] = []
    margins: dict[int, np.ndarray] = {}
    round_trips = 0
    wire_bytes = 0
    for request in requests:
        codes = {
            party: version.bin_rows(party, block)
            for party, block in sorted(request.rows.items())
        }
        channel = RecordingChannel(serve_config.key_bits, active_party=ACTIVE)
        predictor = FederatedPredictor(
            version.model,
            codes,
            channel=channel,
            key_bits=serve_config.key_bits,
            coalesce=False,
        )
        margins[request.request_id] = predictor.predict_margin()
        routed_rows = sum(
            int(message.instance_ids.size)
            for message in channel.log
            if isinstance(message, RouteQuery)
        )
        round_trips += predictor.routing_queries
        wire_bytes += channel.total_bytes()
        latencies.append(
            serve_config.admission_cost
            + 2 * cluster.wan_latency * predictor.routing_queries
            + channel.total_bytes() / cluster.wan_bandwidth
            + serve_config.route_cost_per_row * routed_rows
        )
    predictions = sum(request.n_rows() for request in requests)
    return {
        "margins": margins,
        "round_trips": round_trips,
        "round_trips_per_1k": 1000.0 * round_trips / predictions,
        "wire_bytes": wire_bytes,
        "wire_bytes_per_1k": 1000.0 * wire_bytes / predictions,
        "latency_p50": nearest_rank(latencies, 0.50),
        "latency_p99": nearest_rank(latencies, 0.99),
        "total_stream_seconds": sum(latencies),
    }


def fleet_sweep(
    registry: ModelRegistry,
    feature_dims: dict[int, int],
    cluster: ClusterSpec,
    seed: int,
    smoke: bool,
    trace: str,
    replica_counts: list[int],
    event_log=None,
) -> dict:
    """p99 vs. replica count over one seeded heavy-tail trace.

    The fleet serve config prices admission at 2 ms of serial CPU per
    request — a per-replica capacity of 500 req/s — so the trace's
    burst genuinely overloads small fleets and the sweep shows both
    levers: horizontal scale-out flattening p99, and burn-rate shedding
    bounding it when capacity still falls short.  Every non-shed
    prediction is checked bit-identical against a single plain runtime
    serving the identical request list.
    """
    fleet_serve = ServeConfig(
        max_batch_size=64,
        max_delay=0.005,
        admission_cost=2e-3,
        max_queue=4096,
    )
    # latency_slo sits above the ~0.1 s intrinsic WAN latency of an
    # unloaded request and below the admission-backlog latencies an
    # overloaded replica produces, so breaches mean *queueing*.
    slo_policy = SLOPolicy(
        latency_slo=0.15, window=32, error_budget=0.1, burn_alert=2.0
    )
    shed_policy = ShedPolicy(burn_threshold=1.0, min_window=16)
    load = LoadgenConfig(
        n_requests=600 if smoke else 2000,
        feature_dims=feature_dims,
        seed=seed + 200,
        mode="open",
        rate=300.0,
        trace=trace,
        n_sessions=16 if smoke else 64,
        session_skew=1.0,
    )
    requests = make_requests(load)

    # Single-runtime golden baseline: no fleet, no shedding.
    baseline_runtime = ServingRuntime(
        registry, cluster=cluster, config=fleet_serve
    )
    baseline = run_open_loop(baseline_runtime, requests)
    baseline_ok = [o for o in baseline if not o.rejected]
    baseline_margins = {o.request_id: o.margins for o in baseline_ok}

    sweep = []
    for n_replicas in replica_counts:
        metrics = MetricsRegistry()
        fleet = ServingFleet(
            registry,
            FleetConfig(
                n_replicas=n_replicas,
                seed=seed,
                shed=shed_policy,
                slo=slo_policy,
            ),
            cluster=cluster,
            serve_config=fleet_serve,
            metrics_registry=metrics,
            event_log=event_log,
            slo_labels={"scenario": f"fleet{n_replicas}"},
        )
        for request in requests:
            fleet.submit(request)
        completions = fleet.run()
        served = [o for o in completions if not o.rejected]
        parity = all(
            np.array_equal(o.margins, baseline_margins[o.request_id])
            for o in served
        )
        counters = metrics.counters("fleet.")
        sweep.append(
            {
                "replicas": n_replicas,
                "routed": counters.get("routed", 0),
                "shed": counters.get("shed", 0),
                "completed": counters.get("completed", 0),
                "rejected": counters.get("rejected", 0),
                "degraded": counters.get("degraded", 0),
                "deadline_misses": counters.get("deadline_misses", 0),
                "burn_alerts": sum(w.alerts for w in fleet.watchers),
                "p99": nearest_rank([o.latency for o in served], 0.99),
                "shed_fraction": (
                    counters.get("shed", 0) / len(requests) if requests else 0.0
                ),
                "parity_bit_identical": bool(parity),
            }
        )
    # Attribute each scale-out step's p99 movement: diff every entry
    # against the smallest fleet with the shared forensics differ, so
    # the report says *what* moved with the latency (shed volume,
    # degraded routes, burn alerts) — not just that it moved.
    if sweep:
        from repro.obs.forensics import diff_scalar_maps

        attributed = (
            "p99", "shed", "degraded", "deadline_misses", "burn_alerts",
            "completed",
        )
        base = {key: float(sweep[0][key]) for key in attributed}
        for entry in sweep[1:]:
            entry["p99_attribution"] = [
                contribution.to_dict()
                for contribution in diff_scalar_maps(
                    base, {key: float(entry[key]) for key in attributed}
                )
            ]
    return {
        "trace": trace,
        "rate": load.rate,
        "n_requests": load.n_requests,
        "n_sessions": load.n_sessions,
        "admission_cost": fleet_serve.admission_cost,
        "slo": slo_policy.to_dict(),
        "shed_policy": {
            "burn_threshold": shed_policy.burn_threshold,
            "min_window": shed_policy.min_window,
        },
        "baseline_p99": nearest_rank([o.latency for o in baseline_ok], 0.99),
        "sweep": sweep,
    }


def canary_stage(
    scenario: Scenario,
    model,
    parties,
    cluster: ClusterSpec,
    smoke: bool,
    event_log=None,
) -> dict:
    """Two rollouts through the canary state machine.

    ``identical``: the incumbent model re-registered as v2 — golden
    margins match bit-for-bit, so the canary auto-promotes and the
    registry's active pointer hot-swaps to v2.  ``bad``: a model
    trained on different data registered as v2-bad — the first
    canary-served request mismatches the golden replay, the canary
    rolls back, and the active pointer never leaves v1 (zero promoted
    traffic).
    """
    seed = scenario.seed
    bad_model, bad_parties = train_model(replace(scenario, seed=seed + 17))
    load = LoadgenConfig(
        n_requests=160 if smoke else 600,
        feature_dims={k: party.n_features for k, party in enumerate(parties)},
        seed=seed + 300,
        mode="open",
        rate=200.0,
        n_sessions=16 if smoke else 64,
        session_skew=1.0,
    )
    requests = make_requests(load)

    def rollout(candidate: str, candidate_model, candidate_parties) -> dict:
        arm = {"scenario": "canary", "arm": candidate}
        registry = build_registry(
            model, parties, event_log=event_log, event_labels=arm
        )
        _register(registry, candidate, candidate_model, candidate_parties)
        controller = CanaryController(
            registry,
            CanaryConfig(
                candidate=candidate,
                traffic_fraction=0.25,
                decision_after=20 if smoke else 60,
                seed=seed,
                expect_identical=True,
            ),
            event_log=event_log,
            labels=arm,
        )
        fleet = ServingFleet(
            registry,
            FleetConfig(n_replicas=2, seed=seed, shed=None),
            cluster=cluster,
            canary=controller,
            event_log=event_log,
            slo_labels=arm,
        )
        for request in requests:
            fleet.submit(request)
        fleet.run()
        summary = controller.summary()
        summary["active_after"] = registry.active().version
        return summary

    return {
        "identical": rollout("v2", model, parties),
        "bad": rollout("v2-bad", bad_model, bad_parties),
    }


def run_bench(
    smoke: bool = False,
    n_requests: int | None = None,
    concurrency: int | None = None,
    seed: int = 7,
    trace_out: str | None = None,
    report_out: str | None = None,
    events_out: str | None = None,
    replicas: list[int] | None = None,
    trace: str = "flashcrowd",
) -> dict:
    """Run every scenario; returns the JSON-ready report.

    Args:
        replicas: fleet sweep replica counts (defaults to ``[1, 2]``
            in smoke mode, ``[1, 2, 4, 8]`` otherwise).
        trace: heavy-tail trace name for the fleet sweep (a
            :data:`~repro.serve.loadgen.TRACES` key).
        trace_out: also write a Chrome trace of the batched runtime's
            admission / request / round-trip spans (Perfetto-loadable).
        report_out: also write a :class:`~repro.obs.RunReport` whose
            phase totals equal the trace's per-category duration sums
            and whose metrics come from the shared registry.
        events_out: also write the bench's unified flight-recorder
            event log as JSONL — every scenario's SLO events plus
            fleet shed decisions, canary / registry transitions and
            alert open/close, each line tagged with its scenario label;
            the path lands in the RunReport under
            ``artifacts["events"]``.
    """
    scenario = replace(SERVE_SMOKE if smoke else SERVE_FULL, seed=seed)
    n_requests = n_requests or (48 if smoke else 400)
    concurrency = concurrency or (16 if smoke else 32)

    model, parties = train_model(scenario)
    registry = build_registry(model, parties)
    cluster = ClusterSpec()
    serve_config = ServeConfig(max_batch_size=64, max_delay=0.005)

    feature_dims = {0: parties[0].n_features, 1: parties[1].n_features}
    load = LoadgenConfig(
        n_requests=n_requests,
        feature_dims=feature_dims,
        seed=seed,
        mode="closed",
        concurrency=concurrency,
        duplicate_fraction=0.25,
    )
    requests = make_requests(load)

    # --- micro-batched serving runtime --------------------------------
    # One metrics registry for the batched scenario's serve counters
    # and the SLO gauges the alert rules read.  One
    # flight-recorder event log for the whole bench: SLO watchers,
    # fleet shed decisions, canary transitions, registry hot-swaps and
    # alert transitions all interleave in it, each tagged with its
    # scenario.  Capacity is sized so no smoke or full run evicts.
    obs_registry = MetricsRegistry()
    tracer = Tracer()
    event_log = EventLog(capacity=65536)
    slo = SLOWatcher(
        SLOPolicy(),
        registry=obs_registry,
        labels={"scenario": "batched"},
        event_log=event_log,
    )
    runtime = ServingRuntime(
        registry,
        cluster=cluster,
        config=serve_config,
        metrics=obs_registry,
        tracer=tracer,
        slo=slo,
    )
    completions = run_closed_loop(runtime, requests, concurrency)
    snapshot = runtime.snapshot()
    wall = max(outcome.finished for outcome in completions)
    served = {
        "snapshot": snapshot,
        "throughput_rps": len(completions) / wall if wall else 0.0,
        "wall_seconds": wall,
    }

    # --- naive per-node baseline --------------------------------------
    naive = _naive_baseline(registry, requests, cluster, serve_config)
    naive["throughput_rps"] = (
        len(requests) / (naive["total_stream_seconds"] / concurrency)
    )

    # --- parity -------------------------------------------------------
    version = registry.active()
    max_diff = 0.0
    exact = True
    by_id = {request.request_id: request for request in requests}
    for outcome in completions:
        reference = naive["margins"][outcome.request_id]
        request = by_id[outcome.request_id]
        codes = {
            party: version.bin_rows(party, block)
            for party, block in sorted(request.rows.items())
        }
        centralized = version.model.predict_margin(codes)
        diff = max(
            float(np.abs(outcome.margins - reference).max(initial=0.0)),
            float(np.abs(outcome.margins - centralized).max(initial=0.0)),
        )
        max_diff = max(max_diff, diff)
        exact = exact and bool(
            np.array_equal(outcome.margins, reference)
            and np.array_equal(outcome.margins, centralized)
        )

    # --- degraded-mode scenario ---------------------------------------
    degraded_load = LoadgenConfig(
        n_requests=min(32, n_requests),
        feature_dims=feature_dims,
        seed=seed + 100,
        mode="closed",
        concurrency=min(8, concurrency),
        slow_party=1,
        slow_probability=0.45,
        slow_delay=1.0,
    )
    degraded_slo = SLOWatcher(
        SLOPolicy(),
        registry=obs_registry,
        labels={"scenario": "degraded"},
        event_log=event_log,
    )
    degraded_runtime = ServingRuntime(
        registry,
        cluster=cluster,
        config=serve_config,
        retry=RetryPolicy(timeout=0.25, max_retries=2),
        party_delay=make_party_delay(degraded_load),
        slo=degraded_slo,
    )
    degraded_completions = run_closed_loop(
        degraded_runtime, make_requests(degraded_load), degraded_load.concurrency
    )
    degraded_snapshot = degraded_runtime.snapshot()

    # --- alert engine over the shared registry ------------------------
    # Evaluated at two deterministic instants: the end of the healthy
    # batched scenario (rules quiet) and the end of the degraded
    # scenario (burn-rate and p99-band rules fire on the gauges the
    # degraded watcher just published).  The second instant is offset
    # past the first because each runtime's simulated clock starts at
    # zero — the offset keeps the alert timeline monotone.
    alert_engine = AlertEngine(
        obs_registry,
        [
            burn_rate_rule("slo-burn", value=1.0),
            band_rule("p99-band", "serve.slo.p99", 0.0, SLOPolicy().latency_slo),
        ],
        event_log=event_log,
        labels={"scenario": "bench"},
    )
    alert_engine.evaluate(wall)
    degraded_wall = max(
        (outcome.finished for outcome in degraded_completions), default=0.0
    )
    alert_engine.evaluate(wall + degraded_wall)

    # --- fleet sweep + canary rollout ---------------------------------
    replica_counts = replicas or ([1, 2] if smoke else [1, 2, 4, 8])
    fleet_report = fleet_sweep(
        registry,
        feature_dims,
        cluster,
        seed,
        smoke,
        trace,
        replica_counts,
        event_log=event_log,
    )
    fleet_report["canary"] = canary_stage(
        scenario, model, parties, cluster, smoke, event_log=event_log
    )

    batched_rt_1k = snapshot["per_1k_predictions"]["round_trips"]
    report = {
        "config": {
            "smoke": smoke,
            "seed": seed,
            "n_requests": n_requests,
            "concurrency": concurrency,
            "n_trees": scenario.n_trees,
            "n_layers": scenario.n_layers,
            "max_batch_size": serve_config.max_batch_size,
            "max_delay": serve_config.max_delay,
        },
        "parity": {
            "margins_bit_identical": exact,
            "max_abs_diff": max_diff,
        },
        "naive": {k: v for k, v in naive.items() if k != "margins"},
        "batched": served,
        "ratios": {
            "round_trip_reduction": (
                naive["round_trips_per_1k"] / batched_rt_1k
                if batched_rt_1k
                else float("inf")
            ),
            "byte_reduction": (
                naive["wire_bytes_per_1k"]
                / snapshot["per_1k_predictions"]["wire_bytes"]
                if snapshot["per_1k_predictions"]["wire_bytes"]
                else float("inf")
            ),
            "throughput_gain": (
                served["throughput_rps"] / naive["throughput_rps"]
                if naive["throughput_rps"]
                else float("inf")
            ),
        },
        "degraded_scenario": {
            "requests": degraded_snapshot["counters"].get("requests", 0),
            "degraded_requests": degraded_snapshot["counters"].get(
                "degraded_requests", 0
            ),
            "degraded_rows": degraded_snapshot["counters"].get("degraded_rows", 0),
            "timeouts": degraded_snapshot["counters"].get("timeouts", 0),
            "retries": degraded_snapshot["counters"].get("retries", 0),
            "degraded_rate": degraded_snapshot["rates"]["degraded_rate"],
            "slo": degraded_slo.summary(),
        },
        "slo": slo.summary(),
        "fleet": fleet_report,
        "alerts": alert_engine.summary(),
        "event_log": event_log.summary(),
    }

    if events_out:
        # One unified stream: every scenario's SLO events plus fleet
        # shed decisions, canary/registry transitions and alert
        # open/close, each line tagged with its scenario label.
        report["events_written"] = event_log.write_jsonl(events_out)

    if trace_out or report_out:
        run_report = RunReport(
            kind="serve",
            label="smoke" if smoke else "full",
            config=dict(report["config"]),
            metrics=obs_registry.snapshot(),
            phases=tracer.phase_totals(),
            channels=channel_report(runtime.channel),
            makespan=tracer.makespan,
            spans=[span.to_dict() for span in tracer.spans],
            artifacts={"events": events_out} if events_out else {},
            events=event_log.to_dicts(),
            alerts=alert_engine.summary(),
        )
        if trace_out:
            write_chrome_trace(
                trace_out,
                tracer.spans,
                instants=alert_engine.instant_events() or None,
            )
        if report_out:
            run_report.save(report_out)
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI entry point. Returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.serve.bench",
        description="Benchmark naive vs. micro-batched federated serving.",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI (seconds)"
    )
    parser.add_argument("--out", default="BENCH_serve.json", help="report path")
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write a Chrome trace (Perfetto) of the batched runtime",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        help="write a RunReport JSON (metrics + phases + spans)",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        help="write the SLO watchers' structured event log as JSONL",
    )
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--concurrency", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="sweep only this replica count (default: 1,2,4,8; 1,2 in smoke)",
    )
    parser.add_argument(
        "--trace",
        default="flashcrowd",
        choices=["diurnal", "flashcrowd", "overload"],
        help="heavy-tail arrival trace for the fleet sweep",
    )
    args = parser.parse_args(argv)

    report = run_bench(
        smoke=args.smoke,
        n_requests=args.requests,
        concurrency=args.concurrency,
        seed=args.seed,
        trace_out=args.trace_out,
        report_out=args.report_out,
        events_out=args.events_out,
        replicas=[args.replicas] if args.replicas else None,
        trace=args.trace,
    )
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
    ratios = report["ratios"]
    parity = report["parity"]
    print(f"wrote {args.out}")
    if args.trace_out:
        print(f"wrote {args.trace_out} (open at https://ui.perfetto.dev)")
    if args.report_out:
        print(f"wrote {args.report_out}")
    if args.events_out:
        print(f"wrote {args.events_out} ({report['events_written']} events)")
    print(
        "round trips/1k: naive "
        f"{report['naive']['round_trips_per_1k']:.1f} -> batched "
        f"{report['batched']['snapshot']['per_1k_predictions']['round_trips']:.1f} "
        f"({ratios['round_trip_reduction']:.1f}x fewer)"
    )
    print(
        f"throughput: {ratios['throughput_gain']:.1f}x, "
        f"bytes/1k: {ratios['byte_reduction']:.2f}x fewer, "
        f"margins bit-identical: {parity['margins_bit_identical']}"
    )
    print(
        "degraded scenario: "
        f"{report['degraded_scenario']['degraded_requests']} degraded / "
        f"{report['degraded_scenario']['requests']} requests, "
        f"{report['degraded_scenario']['timeouts']} timeouts, "
        f"{report['degraded_scenario']['retries']} retries"
    )
    fleet = report["fleet"]
    for entry in fleet["sweep"]:
        print(
            f"fleet[{fleet['trace']}] replicas={entry['replicas']}: "
            f"p99 {entry['p99'] * 1000:.1f}ms, shed {entry['shed']}, "
            f"parity {entry['parity_bit_identical']}"
        )
    canary = fleet["canary"]
    print(
        f"canary: identical -> {canary['identical']['state']} "
        f"(active {canary['identical']['active_after']}), "
        f"bad -> {canary['bad']['state']} "
        f"(active {canary['bad']['active_after']})"
    )
    if not parity["margins_bit_identical"]:
        print("PARITY FAILURE: batched margins diverge", file=sys.stderr)
        return 1
    if not all(entry["parity_bit_identical"] for entry in fleet["sweep"]):
        print("PARITY FAILURE: fleet margins diverge", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    raise SystemExit(main())
