"""Append-only performance database and benchmark regression gate.

The repository's performance claims rest on two kinds of numbers with
very different trust models:

* **exact** scalars — op counts from a counted-mode training run and
  simulated makespans from the analytic scheduler.  These are seeded,
  deterministic quantities; any change at all is a regression (or an
  intentional cost change that must re-baseline the database).  They
  are gated *bit-exactly* against the most recent baseline.
* **measured** scalars — real crypto throughputs (Figure 7).  These
  are noisy; they are gated against the median of a sliding window of
  prior entries with a noise-aware tolerance, and only in the
  direction that means "worse".

``BENCH_perf.json`` at the repository root is the committed database:
every ``python -m repro bench-gate`` run appends one entry per scenario
after the gate passes, so the history *is* the baseline.  The gate
exits nonzero on any regression, making it a CI tripwire in the same
spirit as the golden op-count guard — but covering end-to-end scenario
totals and real throughput rather than per-op fingerprints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "PERF_SHAPE",
    "FAULT_SHAPE",
    "SERVE_SHAPE",
    "GateResult",
    "GateVerdict",
    "PerfDB",
    "PerfEntry",
    "PerfScalar",
    "counted_scenario",
    "faults_scenario",
    "fig7_scenario",
    "serve_fleet_scenario",
    "gate",
    "gate_events",
]

#: database file schema version
DB_VERSION = 1

#: the fixed workload shape of the op-count scenario: tiny but
#: real-crypto, so every op total is a physically executed count
PERF_SHAPE = {
    "n_instances": 32,
    "n_features": 4,
    "n_trees": 1,
    "n_layers": 2,
    "n_bins": 4,
    "key_bits": 256,
    "blaster_batch_size": 16,
    "seed": 20210614,
}


@dataclass(frozen=True)
class PerfScalar:
    """One gated number.

    Attributes:
        value: the number itself.
        kind: ``"exact"`` (bit-equal gate) or ``"measured"``
            (windowed, noise-aware gate).
        direction: which way is *better* — ``"lower"`` (times, op
            counts, bytes) or ``"higher"`` (throughputs).  Measured
            scalars only fail in the worse direction.
    """

    value: float
    kind: str = "exact"
    direction: str = "lower"

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "measured"):
            raise ValueError(f"unknown scalar kind {self.kind!r}")
        if self.direction not in ("lower", "higher"):
            raise ValueError(f"unknown direction {self.direction!r}")

    def to_dict(self) -> dict:
        return {"value": self.value, "kind": self.kind, "direction": self.direction}

    @classmethod
    def from_dict(cls, data: dict) -> "PerfScalar":
        return cls(**data)


@dataclass(frozen=True)
class PerfEntry:
    """One scenario run: a named bag of scalars plus free-form meta."""

    name: str
    scalars: dict
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scalars": {
                key: scalar.to_dict() for key, scalar in sorted(self.scalars.items())
            },
            "meta": dict(sorted(self.meta.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PerfEntry":
        return cls(
            name=data["name"],
            scalars={
                key: PerfScalar.from_dict(value)
                for key, value in data.get("scalars", {}).items()
            },
            meta=dict(data.get("meta", {})),
        )


class PerfDB:
    """The append-only entry list behind ``BENCH_perf.json``."""

    def __init__(self, entries: list[PerfEntry] | None = None) -> None:
        self.entries: list[PerfEntry] = list(entries or [])

    def history(self, name: str) -> list[PerfEntry]:
        """Prior entries of one scenario, oldest first."""
        return [entry for entry in self.entries if entry.name == name]

    def append(self, entry: PerfEntry) -> None:
        self.entries.append(entry)

    def to_dict(self) -> dict:
        return {
            "version": DB_VERSION,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "PerfDB":
        """Read a database file; a missing file is an empty database."""
        try:
            with open(path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return cls()
        return cls([PerfEntry.from_dict(item) for item in data.get("entries", [])])


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _train_perf_shape() -> tuple:
    """Train the :data:`PERF_SHAPE` workload with real crypto.

    Returns:
        ``(result, parties, half, totals)`` — the train result, the
        per-party binned datasets, the active party's feature count,
        and the summed cipher-op totals.
    """
    import numpy as np

    from repro.core.config import VF2BoostConfig
    from repro.core.trainer import FederatedTrainer
    from repro.gbdt.binning import bin_dataset
    from repro.gbdt.params import GBDTParams

    shape = PERF_SHAPE
    params = GBDTParams(
        n_trees=shape["n_trees"],
        n_layers=shape["n_layers"],
        n_bins=shape["n_bins"],
    )
    config = VF2BoostConfig.vf2boost(
        params=params,
        crypto_mode="real",
        key_bits=shape["key_bits"],
        blaster_batch_size=shape["blaster_batch_size"],
        seed=shape["seed"],
    )
    rng = np.random.default_rng(shape["seed"])
    n, d = shape["n_instances"], shape["n_features"]
    features = rng.normal(size=(n, d))
    labels = ((features @ rng.normal(size=d)) > 0).astype(float)
    full = bin_dataset(features, shape["n_bins"])
    half = d // 2
    parties = [
        full.subset_features(np.arange(0, half)),
        full.subset_features(np.arange(half, d)),
    ]
    result = FederatedTrainer(config).fit(parties, labels)

    totals = {"enc": 0, "dec": 0, "hadd": 0, "scale": 0, "smul": 0}
    for stats in result.crypto_stats.values():
        totals["enc"] += stats.encryptions
        totals["dec"] += stats.decryptions
        totals["hadd"] += stats.additions
        totals["scale"] += stats.scalings
        totals["smul"] += stats.scalar_multiplications
    return result, parties, half, totals


def counted_scenario() -> PerfEntry:
    """Exact scenario: counted op totals + simulated makespan.

    Trains a tiny real-crypto VF2Boost run at :data:`PERF_SHAPE` (ops
    physically execute, so :class:`OpStats` counts them exactly) and
    prices the same shape through the analytic scheduler at paper
    costs.  Every scalar is a seeded, deterministic quantity, gated
    bit-exactly.
    """
    import hashlib

    from repro.bench.costmodel import CostModel
    from repro.core.config import VF2BoostConfig
    from repro.core.profile import analytic_trace
    from repro.core.protocol import ProtocolScheduler
    from repro.fed.cluster import PAPER_CLUSTER
    from repro.gbdt.params import GBDTParams

    shape = PERF_SHAPE
    result, parties, half, totals = _train_perf_shape()
    d = shape["n_features"]
    params = GBDTParams(
        n_trees=shape["n_trees"],
        n_layers=shape["n_layers"],
        n_bins=shape["n_bins"],
    )
    config = VF2BoostConfig.vf2boost(
        params=params,
        crypto_mode="real",
        key_bits=shape["key_bits"],
        blaster_batch_size=shape["blaster_batch_size"],
        seed=shape["seed"],
    )

    trace = analytic_trace(
        shape["n_instances"],
        half,
        [d - half],
        density=1.0,
        n_bins=shape["n_bins"],
        n_layers=shape["n_layers"],
        n_trees=shape["n_trees"],
    )
    schedule = ProtocolScheduler(config, CostModel.paper(), PAPER_CLUSTER).schedule(
        trace, collect_tasks=True
    )
    makespan = schedule.makespan

    scalars = {
        f"ops.{op}": PerfScalar(float(count), kind="exact", direction="lower")
        for op, count in sorted(totals.items())
    }
    scalars["bytes_on_wire"] = PerfScalar(
        float(result.channel.total_bytes()), kind="exact", direction="lower"
    )
    scalars["messages"] = PerfScalar(
        float(sum(s.messages for s in result.channel.stats.values())),
        kind="exact",
        direction="lower",
    )
    # The trained model's margins on the training codes, pinned by the
    # first 48 bits of their SHA-256 as a float: exact in IEEE double,
    # so the gate holds the model bytes without a string scalar.
    margins = result.model.predict_margin(
        {index: party.codes for index, party in enumerate(parties)}
    )
    digest = hashlib.sha256(margins.tobytes()).hexdigest()
    scalars["model_digest"] = PerfScalar(
        float(int(digest[:12], 16)), kind="exact", direction="lower"
    )
    scalars["sim_makespan"] = PerfScalar(makespan, kind="exact", direction="lower")
    # Per-phase and per-resource critical-path attributions of the same
    # analytic schedule: deterministic floats, gated bit-exactly.  When
    # sim_makespan regresses, these are the scalars the --explain differ
    # decomposes the delta into (which phase grew, which lane owns it).
    for phase, seconds in sorted(schedule.phase_totals.items()):
        scalars[f"phase.{phase}"] = PerfScalar(
            seconds, kind="exact", direction="lower"
        )
    section = schedule.critical_path_section()
    for resource, seconds in sorted(section.get("by_resource", {}).items()):
        scalars[f"critical.{resource}"] = PerfScalar(
            seconds, kind="exact", direction="lower"
        )
    scalars["critical.wait"] = PerfScalar(
        float(section.get("wait_seconds", 0.0)), kind="exact", direction="lower"
    )
    return PerfEntry(name="counted-train", scalars=scalars, meta=dict(shape))


#: the fixed workload + fault schedule of the recovery-cost scenario;
#: counted crypto (models must stay bit-identical to fault-free) with a
#: fault plan whose every decision is hash-derived, so each scalar is
#: exact and gated bit-equally.
FAULT_SHAPE = {
    "n_instances": 64,
    "n_features": 6,
    "n_trees": 2,
    "n_layers": 3,
    "n_bins": 6,
    "key_bits": 256,
    "seed": 20210614,
    "fault_seed": 77,
    "drop_rate": 0.1,
    "duplicate_rate": 0.1,
    "ack_drop_rate": 0.1,
    "max_retries": 6,
    "straggler_factor": 2.0,
    # Pause the active party across the first optimistic-split boundary
    # (~t=1.0 on this workload) so the window provably displaces task
    # starts and the recovery-overhead scalar gates a nonzero cost.
    "pause_party": 0,
    "pause_start": 1.0,
    "pause_end": 1.5,
}


def faults_scenario() -> PerfEntry:
    """Exact scenario: recovery cost of a fixed fault schedule.

    Trains a counted-mode run under the :data:`FAULT_SHAPE` fault plan
    and prices a straggler + pause schedule through the fault-injected
    scheduler.  Every scalar (resend counts, recovery-clock seconds,
    dropped bytes, faulty makespan) is a deterministic function of the
    seeds, so the gate catches any change in the recovery machinery's
    cost — a resend storm, a dedupe miss, a scheduler perturbation
    drift — bit-exactly.  The model-identity invariant itself is
    enforced by the test suite; this entry gates the *price* of
    recovery.
    """
    import numpy as np

    from repro.bench.costmodel import CostModel
    from repro.core.config import VF2BoostConfig
    from repro.core.profile import analytic_trace
    from repro.core.protocol import ProtocolScheduler
    from repro.core.trainer import FederatedTrainer
    from repro.fed.cluster import PAPER_CLUSTER
    from repro.fed.faults import FaultPlan, LaneSlowdown, PauseWindow
    from repro.fed.retry import RetryPolicy
    from repro.gbdt.binning import bin_dataset
    from repro.gbdt.params import GBDTParams

    shape = FAULT_SHAPE
    params = GBDTParams(
        n_trees=shape["n_trees"],
        n_layers=shape["n_layers"],
        n_bins=shape["n_bins"],
    )
    config = VF2BoostConfig.vf2boost(
        params=params,
        crypto_mode="counted",
        key_bits=shape["key_bits"],
        seed=shape["seed"],
    )
    rng = np.random.default_rng(shape["seed"])
    n, d = shape["n_instances"], shape["n_features"]
    features = rng.normal(size=(n, d))
    labels = ((features @ rng.normal(size=d)) > 0).astype(float)
    full = bin_dataset(features, shape["n_bins"])
    half = d // 2
    parties = [
        full.subset_features(np.arange(0, half)),
        full.subset_features(np.arange(half, d)),
    ]
    plan = FaultPlan(
        seed=shape["fault_seed"],
        drop_rate=shape["drop_rate"],
        duplicate_rate=shape["duplicate_rate"],
        ack_drop_rate=shape["ack_drop_rate"],
    )
    result = FederatedTrainer(config).fit(
        parties,
        labels,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=shape["max_retries"]),
    )
    summary = result.faults

    schedule_plan = FaultPlan(
        seed=shape["fault_seed"],
        slowdowns=(LaneSlowdown("A1", shape["straggler_factor"]),),
        pauses=(
            PauseWindow(
                party=shape["pause_party"],
                start=shape["pause_start"],
                end=shape["pause_end"],
            ),
        ),
    )
    trace = analytic_trace(
        shape["n_instances"],
        half,
        [d - half],
        density=1.0,
        n_bins=shape["n_bins"],
        n_layers=shape["n_layers"],
        n_trees=shape["n_trees"],
    )
    scheduler = ProtocolScheduler(config, CostModel.paper(), PAPER_CLUSTER)
    clean_makespan = scheduler.schedule(trace).makespan
    faulty_makespan = scheduler.schedule(trace, fault_plan=schedule_plan).makespan

    scalars = {
        key: PerfScalar(float(summary[key]), kind="exact", direction="lower")
        for key in (
            "drops",
            "duplicates",
            "ack_drops",
            "resends",
            "dedupe_dropped",
            "dropped_bytes",
            "recovery_seconds",
        )
    }
    scalars["sim_makespan_faulty"] = PerfScalar(
        faulty_makespan, kind="exact", direction="lower"
    )
    scalars["sim_recovery_overhead"] = PerfScalar(
        faulty_makespan - clean_makespan, kind="exact", direction="lower"
    )
    return PerfEntry(name="faults-recovery", scalars=scalars, meta=dict(shape))


#: the fixed workload of the fleet-serving scenario: a smoke-sized
#: model behind a 2-replica fleet replaying a seeded flash-crowd trace,
#: plus one identical-model and one changed-model canary rollout.  The
#: whole pipeline runs on the simulated clock, so the routed/shed and
#: canary counts are exact; p99 is gated as measured so deliberate
#: retunes of the SLO knobs do not require a flag day.
SERVE_SHAPE = {
    "n_train": 240,
    "n_features": 8,
    "n_trees": 3,
    "n_layers": 4,
    "n_bins": 8,
    "seed": 7,
    "n_requests": 600,
    "rate": 300.0,
    "trace": "flashcrowd",
    "n_replicas": 2,
    "n_sessions": 16,
    "session_skew": 1.0,
    "admission_cost": 2e-3,
    "latency_slo": 0.15,
    "slo_window": 32,
    "error_budget": 0.1,
    "burn_alert": 2.0,
    "burn_threshold": 1.0,
    "min_window": 16,
    "canary_requests": 160,
    "canary_rate": 200.0,
    "canary_fraction": 0.25,
    "canary_decide": 20,
}


def serve_fleet_scenario() -> PerfEntry:
    """Exact scenario: fleet routing/shedding + canary verdict counts.

    Replays the :data:`SERVE_SHAPE` flash-crowd trace against a
    2-replica :class:`~repro.serve.fleet.ServingFleet` with burn-rate
    shedding, then drives one identical-model canary (must promote)
    and one changed-model canary (must roll back on its first golden
    mismatch, active pointer never leaving the incumbent).  Routed /
    shed / canary-served counts and the rollout verdicts gate
    bit-exactly; the fleet p99 gates against the sliding-window median.
    """
    from repro.gbdt.params import GBDTParams
    from repro.obs.metrics import MetricsRegistry, nearest_rank
    from repro.serve.bench import _build_registry, _train
    from repro.serve.canary import CanaryConfig, CanaryController
    from repro.serve.fleet import FleetConfig, ServingFleet, ShedPolicy
    from repro.serve.loadgen import LoadgenConfig, make_requests
    from repro.serve.session import ServeConfig
    from repro.serve.slo import SLOPolicy

    shape = SERVE_SHAPE
    params = GBDTParams(
        n_trees=shape["n_trees"],
        n_layers=shape["n_layers"],
        n_bins=shape["n_bins"],
    )
    model, parties = _train(
        shape["seed"], shape["n_train"], shape["n_features"], params
    )
    feature_dims = {0: parties[0].n_features, 1: parties[1].n_features}
    serve_config = ServeConfig(
        admission_cost=shape["admission_cost"], max_queue=4096
    )
    requests = make_requests(
        LoadgenConfig(
            n_requests=shape["n_requests"],
            feature_dims=feature_dims,
            seed=shape["seed"] + 200,
            mode="open",
            rate=shape["rate"],
            trace=shape["trace"],
            n_sessions=shape["n_sessions"],
            session_skew=shape["session_skew"],
        )
    )
    metrics = MetricsRegistry()
    fleet = ServingFleet(
        _build_registry(model, parties),
        FleetConfig(
            n_replicas=shape["n_replicas"],
            seed=shape["seed"],
            shed=ShedPolicy(
                burn_threshold=shape["burn_threshold"],
                min_window=shape["min_window"],
            ),
            slo=SLOPolicy(
                latency_slo=shape["latency_slo"],
                window=shape["slo_window"],
                error_budget=shape["error_budget"],
                burn_alert=shape["burn_alert"],
            ),
        ),
        serve_config=serve_config,
        metrics_registry=metrics,
    )
    for request in requests:
        fleet.submit(request)
    completions = fleet.run()
    served = [o for o in completions if not o.rejected]
    counters = metrics.counters("fleet.")

    canary_requests = make_requests(
        LoadgenConfig(
            n_requests=shape["canary_requests"],
            feature_dims=feature_dims,
            seed=shape["seed"] + 300,
            mode="open",
            rate=shape["canary_rate"],
            n_sessions=shape["n_sessions"],
            session_skew=shape["session_skew"],
        )
    )
    bad_model, bad_parties = _train(
        shape["seed"] + 17, shape["n_train"], shape["n_features"], params
    )

    def rollout(candidate, candidate_model, candidate_parties):
        registry = _build_registry(model, parties)
        registry.register(
            candidate,
            candidate_model,
            bin_edges={
                k: party.cut_points
                for k, party in enumerate(candidate_parties)
            },
        )
        controller = CanaryController(
            registry,
            CanaryConfig(
                candidate=candidate,
                traffic_fraction=shape["canary_fraction"],
                decision_after=shape["canary_decide"],
                seed=shape["seed"],
            ),
        )
        canary_fleet = ServingFleet(
            registry,
            FleetConfig(
                n_replicas=shape["n_replicas"], seed=shape["seed"], shed=None
            ),
            canary=controller,
        )
        for request in canary_requests:
            canary_fleet.submit(request)
        canary_fleet.run()
        return controller, registry

    identical, identical_reg = rollout("v2", model, parties)
    bad, bad_reg = rollout("v2-bad", bad_model, bad_parties)

    def exact(value: float) -> PerfScalar:
        return PerfScalar(float(value), kind="exact", direction="lower")

    scalars = {
        "fleet.routed": exact(counters.get("routed", 0)),
        "fleet.shed": exact(counters.get("shed", 0)),
        "fleet.completed": exact(counters.get("completed", 0)),
        "fleet.degraded": exact(counters.get("degraded", 0)),
        "canary.identical.served": exact(identical.canary_served),
        "canary.identical.promoted": exact(
            1.0
            if identical.state == "promoted"
            and identical_reg.active().version == "v2"
            else 0.0
        ),
        "canary.bad.served": exact(bad.canary_served),
        "canary.bad.mismatches": exact(bad.mismatches),
        "canary.bad.rolled_back": exact(
            1.0
            if bad.state == "rolled_back"
            and bad_reg.active().version == "v1"
            else 0.0
        ),
        "fleet.p99": PerfScalar(
            nearest_rank((o.latency for o in served), 0.99),
            kind="measured",
            direction="lower",
        ),
    }
    return PerfEntry(name="serve-fleet", scalars=scalars, meta=dict(shape))


def fig7_scenario(key_bits: int = 512, samples: int = 48) -> PerfEntry:
    """Measured scenario: real Figure 7 throughputs (noise-gated)."""
    from repro.bench.microbench import crypto_throughputs

    report = crypto_throughputs(key_bits=key_bits, samples=samples)
    scalars = {
        name: PerfScalar(value, kind="measured", direction="higher")
        for name, value in (
            ("enc_ops_per_s", report.enc),
            ("dec_ops_per_s", report.dec),
            ("hadd_reordered_ops_per_s", report.hadd_reordered),
            ("dec_packed_values_per_s", report.dec_packed),
        )
    }
    return PerfEntry(
        name="fig7",
        scalars=scalars,
        meta={"key_bits": key_bits, "samples": samples},
    )


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GateVerdict:
    """One scalar's gate outcome."""

    entry: str
    scalar: str
    value: float
    baseline: float | None
    ok: bool
    reason: str

    def to_dict(self) -> dict:
        return {
            "entry": self.entry,
            "scalar": self.scalar,
            "value": self.value,
            "baseline": self.baseline,
            "ok": self.ok,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class GateResult:
    """All verdicts of one gate run."""

    verdicts: tuple

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    def failures(self) -> list[GateVerdict]:
        return [verdict for verdict in self.verdicts if not verdict.ok]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "verdicts": [v.to_dict() for v in self.verdicts]}

    def lines(self) -> list[str]:
        out = []
        for verdict in self.verdicts:
            status = "ok" if verdict.ok else "REGRESSION"
            out.append(
                f"{verdict.entry}.{verdict.scalar}: {verdict.value:g} "
                f"({verdict.reason}) {status}"
            )
        return out


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def gate(
    db: PerfDB,
    entries: list[PerfEntry],
    window: int = 5,
    measured_rtol: float = 0.25,
) -> GateResult:
    """Judge new entries against the database history.

    * A scenario with no history bootstraps: every scalar passes.
    * An **exact** scalar must be bit-equal to the most recent baseline
      value; an exact scalar present in the latest baseline but absent
      from the new entry fails (silently dropped coverage).
    * A **measured** scalar is compared against the median of the last
      ``window`` baseline values with tolerance
      ``max(measured_rtol * |median|, 2 * window_spread)`` — and only
      fails when it is *worse* (per its ``direction``) beyond that.
    """
    verdicts = []
    for entry in entries:
        history = db.history(entry.name)
        if not history:
            for key, scalar in sorted(entry.scalars.items()):
                verdicts.append(
                    GateVerdict(
                        entry=entry.name,
                        scalar=key,
                        value=scalar.value,
                        baseline=None,
                        ok=True,
                        reason="bootstrap: no prior entries",
                    )
                )
            continue
        latest = history[-1]
        for key in sorted(latest.scalars):
            if latest.scalars[key].kind == "exact" and key not in entry.scalars:
                verdicts.append(
                    GateVerdict(
                        entry=entry.name,
                        scalar=key,
                        value=float("nan"),
                        baseline=latest.scalars[key].value,
                        ok=False,
                        reason="exact scalar missing from new entry",
                    )
                )
        for key, scalar in sorted(entry.scalars.items()):
            if scalar.kind == "exact":
                if key not in latest.scalars:
                    verdicts.append(
                        GateVerdict(
                            entry=entry.name,
                            scalar=key,
                            value=scalar.value,
                            baseline=None,
                            ok=True,
                            reason="new exact scalar",
                        )
                    )
                    continue
                baseline = latest.scalars[key].value
                ok = scalar.value == baseline
                verdicts.append(
                    GateVerdict(
                        entry=entry.name,
                        scalar=key,
                        value=scalar.value,
                        baseline=baseline,
                        ok=ok,
                        reason=f"exact vs {baseline:g}",
                    )
                )
                continue
            # Measured: sliding-window median with noise-aware tolerance.
            values = [
                prior.scalars[key].value
                for prior in history[-window:]
                if key in prior.scalars
            ]
            if not values:
                verdicts.append(
                    GateVerdict(
                        entry=entry.name,
                        scalar=key,
                        value=scalar.value,
                        baseline=None,
                        ok=True,
                        reason="new measured scalar",
                    )
                )
                continue
            center = _median(values)
            spread = max(values) - min(values)
            tolerance = max(measured_rtol * abs(center), 2.0 * spread)
            if scalar.direction == "higher":
                ok = scalar.value >= center - tolerance
            else:
                ok = scalar.value <= center + tolerance
            verdicts.append(
                GateVerdict(
                    entry=entry.name,
                    scalar=key,
                    value=scalar.value,
                    baseline=center,
                    ok=ok,
                    reason=(
                        f"measured vs median {center:g} "
                        f"+/- {tolerance:g} over {len(values)} entries"
                    ),
                )
            )
    return GateResult(verdicts=tuple(verdicts))


def gate_events(result: GateResult, log, now: float = 0.0) -> int:
    """Mirror a gate run's verdicts into a flight-recorder event log.

    One event per verdict under subsystem ``"bench.gate"`` — kind
    ``"gate_pass"`` or ``"gate_regression"`` — so bench-gate outcomes
    interleave with the rest of the unified event stream and incident
    bundles can carry them.  Returns the number of events emitted.
    """
    for verdict in result.verdicts:
        log.emit(
            now,
            "bench.gate",
            "gate_pass" if verdict.ok else "gate_regression",
            labels={"entry": verdict.entry, "scalar": verdict.scalar},
            value=verdict.value,
            baseline=verdict.baseline,
            reason=verdict.reason,
        )
    return len(result.verdicts)
