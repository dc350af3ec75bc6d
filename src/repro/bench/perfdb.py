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
spirit as the golden party sweep — but covering end-to-end scenario
totals and real throughput rather than per-fit fingerprints.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

__all__ = [
    "FAULT_PLAN",
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
        return asdict(self)

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
        """Read a database file; a missing file is an empty database.

        Raises:
            ValueError: naming ``path`` — the file is not valid JSON,
                was written by a newer schema version, or holds an
                entry or scalar this build cannot read.
        """
        try:
            with open(path) as handle:
                data = json.load(handle)
            version = data.get("version", DB_VERSION)
            if version > DB_VERSION:
                raise ValueError(
                    f"schema version {version}; this build reads up to {DB_VERSION}"
                )
            return cls([PerfEntry.from_dict(item) for item in data.get("entries", [])])
        except FileNotFoundError:
            return cls()
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"perf database {path} cannot be read: {exc!r}") from exc


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _exact(value: float) -> PerfScalar:
    return PerfScalar(float(value), kind="exact", direction="lower")


#: ``ops.*`` scalar name -> :class:`~repro.crypto.ciphertext.OpStats` field
_OP_FIELDS = {
    "enc": "encryptions",
    "dec": "decryptions",
    "hadd": "additions",
    "scale": "scalings",
    "smul": "scalar_multiplications",
}


def counted_scenario() -> PerfEntry:
    """Exact scenario: counted op totals + simulated makespan.

    Trains the real-crypto :data:`~repro.bench.scenario.PERF` workload
    (ops physically execute, so :class:`OpStats` counts them exactly)
    and prices the same shape through the analytic scheduler at paper
    costs.  Every scalar is a seeded, deterministic quantity, gated
    bit-exactly.
    """
    import hashlib

    from repro.bench.scenario import PERF
    from repro.core.trainer import FederatedTrainer

    config = PERF.config(crypto_mode="real")
    parties, labels = PERF.parties()
    result = FederatedTrainer(config).fit(parties, labels)
    schedule = PERF.schedule(config, collect_tasks=True)

    ops = result.profile["ops"]
    scalars = {f"ops.{op}": _exact(ops[name]) for op, name in _OP_FIELDS.items()}
    scalars["bytes_on_wire"] = _exact(result.channel.total_bytes())
    scalars["messages"] = _exact(
        sum(s.messages for s in result.channel.stats.values())
    )
    # The trained model's margins on the training codes, pinned by the
    # first 48 bits of their SHA-256 as a float: exact in IEEE double,
    # so the gate holds the model bytes without a string scalar.
    margins = result.model.predict_margin(
        {index: party.codes for index, party in enumerate(parties)}
    )
    digest = hashlib.sha256(margins.tobytes()).hexdigest()
    scalars["model_digest"] = _exact(int(digest[:12], 16))
    scalars["sim_makespan"] = _exact(schedule.makespan)
    # Per-phase and per-resource critical-path attributions of the same
    # analytic schedule: deterministic floats, gated bit-exactly.  When
    # sim_makespan regresses, these are the scalars the --explain differ
    # decomposes the delta into (which phase grew, which lane owns it).
    for phase, seconds in schedule.phase_totals.items():
        scalars[f"phase.{phase}"] = _exact(seconds)
    section = schedule.critical_path_section()
    for resource, seconds in section.get("by_resource", {}).items():
        scalars[f"critical.{resource}"] = _exact(seconds)
    scalars["critical.wait"] = _exact(section.get("wait_seconds", 0.0))
    return PerfEntry(name="counted-train", scalars=scalars, meta=PERF.to_dict())


#: the fault schedule of the recovery-cost scenario, run over the
#: :data:`~repro.bench.scenario.FAULT` workload; every decision is
#: hash-derived, so each scalar is exact and gated bit-equally.
FAULT_PLAN = {
    "fault_seed": 77,
    "messages": {"drop_rate": 0.1, "duplicate_rate": 0.1, "ack_drop_rate": 0.1},
    "max_retries": 6,
    "straggler": {"resource": "A1", "factor": 2.0},
    # Pause the active party across the first optimistic-split boundary
    # (~t=1.0 on this workload) so the window provably displaces task
    # starts and the recovery-overhead scalar gates a nonzero cost.
    "pause": {"party": 0, "start": 1.0, "end": 1.5},
}


def faults_scenario() -> PerfEntry:
    """Exact scenario: recovery cost of a fixed fault schedule.

    Trains a counted-mode run (models must stay bit-identical to
    fault-free) under the :data:`FAULT_PLAN` message faults and prices
    a straggler + pause schedule through the fault-injected scheduler.
    Every scalar (resend counts, recovery-clock seconds, dropped bytes,
    faulty makespan) is a deterministic function of the seeds, so the
    gate catches any change in the recovery machinery's cost — a resend
    storm, a dedupe miss, a scheduler perturbation drift — bit-exactly.
    The model-identity invariant itself is enforced by the test suite;
    this entry gates the *price* of recovery.
    """
    from repro.bench.scenario import FAULT
    from repro.core.trainer import FederatedTrainer
    from repro.fed.faults import FaultPlan, LaneSlowdown, PauseWindow
    from repro.fed.retry import RetryPolicy

    plan = FAULT_PLAN
    config = FAULT.config(crypto_mode="counted")
    parties, labels = FAULT.parties()
    summary = FederatedTrainer(config).fit(
        parties,
        labels,
        fault_plan=FaultPlan(seed=plan["fault_seed"], **plan["messages"]),
        retry_policy=RetryPolicy(max_retries=plan["max_retries"]),
    ).faults

    schedule_plan = FaultPlan(
        seed=plan["fault_seed"],
        slowdowns=(LaneSlowdown(**plan["straggler"]),),
        pauses=(PauseWindow(**plan["pause"]),),
    )
    clean_makespan = FAULT.schedule(config).makespan
    faulty_makespan = FAULT.schedule(config, fault_plan=schedule_plan).makespan

    scalars = {
        key: _exact(summary[key])
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
    scalars["sim_makespan_faulty"] = _exact(faulty_makespan)
    scalars["sim_recovery_overhead"] = _exact(faulty_makespan - clean_makespan)
    return PerfEntry(
        name="faults-recovery", scalars=scalars, meta={**FAULT.to_dict(), **plan}
    )


def serve_fleet_scenario() -> PerfEntry:
    """Exact scenario: fleet routing/shedding + canary verdict counts.

    The serving bench's own fleet and canary stages at ``--smoke`` size
    (:data:`~repro.bench.scenario.SERVE_SMOKE`): the seeded flash-crowd
    trace against a 2-replica fleet with burn-rate shedding, then one
    identical-model canary (must promote) and one changed-model canary
    (must roll back on its first golden mismatch, active pointer never
    leaving the incumbent).  The whole pipeline runs on the simulated
    clock, so routed / shed / canary-served counts and the rollout
    verdicts gate bit-exactly; the fleet p99 gates as measured, against
    the sliding-window median, so deliberate retunes of the SLO knobs do
    not require a flag day.
    """
    from repro.bench.scenario import SERVE_SMOKE
    from repro.fed.cluster import ClusterSpec
    from repro.serve import bench

    model, parties = bench.train_model(SERVE_SMOKE)
    feature_dims = {k: party.n_features for k, party in enumerate(parties)}
    cluster = ClusterSpec()
    fleet = bench.fleet_sweep(
        bench.build_registry(model, parties),
        feature_dims,
        cluster,
        SERVE_SMOKE.seed,
        smoke=True,
        trace="flashcrowd",
        replica_counts=[2],
    )
    (row,) = fleet.pop("sweep")
    canary = bench.canary_stage(SERVE_SMOKE, model, parties, cluster, smoke=True)
    identical, bad = canary["identical"], canary["bad"]

    scalars = {
        f"fleet.{key}": _exact(row[key])
        for key in ("routed", "shed", "completed", "degraded")
    }
    scalars["fleet.p99"] = PerfScalar(row["p99"], kind="measured", direction="lower")
    scalars["canary.identical.served"] = _exact(identical["canary_served"])
    scalars["canary.identical.promoted"] = _exact(
        identical["state"] == "promoted" and identical["active_after"] == "v2"
    )
    scalars["canary.bad.served"] = _exact(bad["canary_served"])
    scalars["canary.bad.mismatches"] = _exact(bad["mismatches"])
    scalars["canary.bad.rolled_back"] = _exact(
        bad["state"] == "rolled_back" and bad["active_after"] == "v1"
    )
    return PerfEntry(
        name="serve-fleet",
        scalars=scalars,
        meta={**SERVE_SMOKE.to_dict(), "n_replicas": row["replicas"], **fleet},
    )


def fig7_scenario(key_bits: int = 512, samples: int = 48) -> PerfEntry:
    """Measured scenario: real Figure 7 throughputs (noise-gated)."""
    from repro.bench.calibrate import crypto_throughputs

    report = crypto_throughputs(key_bits=key_bits, samples=samples)
    scalars = {
        name: PerfScalar(value, kind="measured", direction="higher")
        for name, value in (
            ("enc_ops_per_s", report.enc),
            ("dec_ops_per_s", report.dec),
            ("dec_one_prime_ops_per_s", report.dec_one_prime),
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
        return asdict(self)


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
        latest = history[-1].scalars if history else {}

        def judge(key, value, baseline, ok, reason):
            verdicts.append(GateVerdict(entry.name, key, value, baseline, ok, reason))

        for key in sorted(latest):
            if latest[key].kind == "exact" and key not in entry.scalars:
                judge(
                    key,
                    float("nan"),
                    latest[key].value,
                    False,
                    "exact scalar missing from new entry",
                )
        for key, scalar in sorted(entry.scalars.items()):
            if not history:
                judge(key, scalar.value, None, True, "bootstrap: no prior entries")
                continue
            if scalar.kind == "exact":
                if key in latest:
                    baseline = latest[key].value
                    ok = scalar.value == baseline
                    judge(key, scalar.value, baseline, ok, f"exact vs {baseline:g}")
                else:
                    judge(key, scalar.value, None, True, "new exact scalar")
                continue
            # Measured: sliding-window median with noise-aware tolerance.
            values = [
                prior.scalars[key].value
                for prior in history[-window:]
                if key in prior.scalars
            ]
            if not values:
                judge(key, scalar.value, None, True, "new measured scalar")
                continue
            center = _median(values)
            spread = max(values) - min(values)
            tolerance = max(measured_rtol * abs(center), 2.0 * spread)
            if scalar.direction == "higher":
                ok = scalar.value >= center - tolerance
            else:
                ok = scalar.value <= center + tolerance
            judge(
                key,
                scalar.value,
                center,
                ok,
                f"measured vs median {center:g} +/- {tolerance:g} "
                f"over {len(values)} entries",
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
