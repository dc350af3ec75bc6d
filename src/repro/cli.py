"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro table1
    python -m repro table2 fig7
    python -m repro fig7 util --json
    python -m repro all
    python -m repro list
    python -m repro trace run.report.json -o run.trace.json
    python -m repro trace run.report.json --summary
    python -m repro whatif --speedup powmod=2 --break-even powmod
    python -m repro bench-gate --db BENCH_perf.json --explain
    python -m repro calibrate -o profile.json --check
    python -m repro train --trees 8 --checkpoint-dir ckpts --fault-seed 7
    python -m repro faults
    python -m repro events serve.report.json --subsystem serve.slo
    python -m repro incidents list --dir incidents
    python -m repro incidents diff 1 2 --dir incidents

Each experiment prints its rendered table; heavier experiments accept
the same keyword knobs through the library API (see
``repro.bench.experiments``).  ``--json`` switches the experiments
that produce structured data (``fig7``, ``util``) to machine-readable
output.  The ``trace`` subcommand re-exports the spans stored in a
saved :class:`~repro.obs.report.RunReport` as Chrome trace-event JSON
(openable at https://ui.perfetto.dev) and prints the report's phase
breakdown; ``--summary`` prints the phase table and per-lane
utilization (a train report: its per-phase crypto-op table) without
writing any file.  ``whatif`` re-prices the analytic schedule under
perturbed unit costs and predicts makespan / Figure-7 deltas plus the
break-even point where the critical-path bottleneck shifts lanes.
``bench-gate`` runs the benchmark scenarios, gates them
against the append-only performance database and appends the new
entries when the gate passes (exit 1 on regression; ``--faults`` adds
the recovery-cost scenario, ``--serve`` the fleet-serving scenario,
``--explain`` prints a per-phase/per-op forensic diff of any
regression).  ``calibrate`` microbenchmarks this host
into a calibration profile and optionally checks its cost ratios for
drift against the paper references.  ``train`` runs a federated
training job on synthetic data with optional fault injection,
checkpointing and resume; ``faults`` sweeps fault rates and verifies
the fault-free model is reproduced bit-exactly at every point.
``events`` filters and pretty-prints the flight-recorder events of a
saved RunReport (an incident included); ``incidents`` lists, shows and
diffs the post-mortem reports a failure drops into ``--incident-dir``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench import experiments
from repro.bench.calibrate import crypto_throughputs
from repro.gbdt.params import GBDTParams

__all__ = ["main", "EXPERIMENTS"]

_FAST = GBDTParams(n_trees=6, n_layers=5, n_bins=16)


def _fig10() -> str:
    return experiments.run_fig10(params=_FAST)[1]


def _table4() -> str:
    return experiments.run_table4(params=_FAST)[1]


def _table6() -> str:
    return experiments.run_table6(params=_FAST)[1]


EXPERIMENTS: dict[str, tuple[str, object]] = {
    "fig7": ("crypto operation throughputs (measured)", experiments.run_fig7),
    "table1": ("root-node ablation (analytic)", lambda: experiments.run_table1()[1]),
    "table2": ("per-tree ablation (analytic)", lambda: experiments.run_table2()[1]),
    "table3": ("dataset inventory", experiments.run_table3),
    "fig10": ("convergence vs time, census/a9a (counted)", _fig10),
    "table4": ("end-to-end large datasets (hybrid)", _table4),
    "table5": ("worker scalability (analytic)", lambda: experiments.run_table5()[1]),
    "table6": ("party scalability (hybrid)", _table6),
    "util": ("§6.2 resource utilization (analytic)", lambda: experiments.run_resource_utilization()[1]),
    "critical": ("critical-path attribution + annotated Gantt (analytic)", lambda: experiments.run_critical_path()[1]),
}


def _trace_main(argv: list[str]) -> int:
    """``repro trace``: saved RunReport -> Chrome trace + phase table."""
    from repro.bench.report import format_table, phase_table
    from repro.obs.report import RunReport
    from repro.obs.tracer import Tracer

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Export the Chrome trace stored in a saved run report.",
    )
    parser.add_argument("report", help="RunReport JSON (e.g. from --report-out)")
    parser.add_argument(
        "-o",
        "--out",
        default=None,
        help="trace output path (default: <report stem>.trace.json)",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print the phase table and per-lane utilization only; "
        "no trace file is written",
    )
    args = parser.parse_args(argv)

    try:
        report = RunReport.load(args.report)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.summary:
        phases = report.phases
        tracer = Tracer()
        tracer.extend(report.span_objects())
        if not phases:
            phases = tracer.phase_totals()
        if phases:
            print(
                phase_table(
                    phases,
                    title=f"{report.kind} run {report.label!r} phase breakdown:",
                )
            )
        utilization = tracer.utilization()
        if utilization:
            busy = tracer.lane_busy()
            print(
                format_table(
                    ["lane", "busy (s)", "utilization"],
                    [
                        [f"{track}#{lane}", f"{busy[(track, lane)]:.3f}",
                         f"{fraction:6.1%}"]
                        for (track, lane), fraction in utilization.items()
                    ],
                    title="per-lane utilization "
                    f"(makespan {tracer.makespan:.3f}s):",
                )
            )
        op_phases = report.profile.get("phases", {})
        if op_phases:
            columns = list(next(iter(op_phases.values())))
            rows = [[phase, *(row[c] for c in columns)] for phase, row in op_phases.items()]
            if "ops" in report.profile:
                rows.append(["total", *(report.profile["ops"][c] for c in columns)])
            print(
                format_table(
                    ["phase", *columns],
                    rows,
                    title=f"{report.kind} run {report.label!r} crypto ops per phase:",
                )
            )
        if not (phases or utilization or op_phases):
            print(
                f"report {report.label!r} holds no phases, spans or op "
                "profile; nothing to summarize",
                file=sys.stderr,
            )
            return 1
        return 0
    out = args.out
    if out is None:
        stem = args.report[:-5] if args.report.endswith(".json") else args.report
        out = f"{stem}.trace.json"
    try:
        n_spans = report.write_chrome_trace(out)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"wrote {out} ({n_spans} spans; open at https://ui.perfetto.dev)")
    if report.phases:
        print(
            phase_table(
                report.phases,
                title=f"{report.kind} run {report.label!r} phase breakdown:",
            )
        )
    return 0


def _whatif_main(argv: list[str]) -> int:
    """``repro whatif``: predict makespan deltas under cheaper ops."""
    import json
    from dataclasses import replace

    from repro.bench.scenario import GOLDEN_DIMS
    from repro.obs.whatif import break_even, parse_speedups, run_whatif

    parser = argparse.ArgumentParser(
        prog="repro whatif",
        description=(
            "Re-price the recorded task graph under a perturbed cost "
            "model and report predicted makespan / Figure-7 deltas and "
            "critical-path bottleneck shifts — the decision tool for "
            "crypto-engine work."
        ),
    )
    parser.add_argument(
        "--speedup",
        action="append",
        default=[],
        metavar="OP=FACTOR",
        help="speed an op family up by FACTOR (e.g. powmod=2, wan=4); "
        "repeatable",
    )
    parser.add_argument(
        "--profile",
        default=None,
        help="price from a calibration profile JSON (repro calibrate -o) "
        "instead of the paper cost model",
    )
    parser.add_argument(
        "--break-even",
        default=None,
        metavar="OP",
        help="sweep OP's speedup factor until the critical-path "
        "bottleneck shifts to another lane",
    )
    dims = ("instances", "features", "trees", "layers", "bins")
    for dim in dims:
        parser.add_argument(f"--{dim}", type=int, default=None)
    parser.add_argument("--json", action="store_true", help="JSON output")
    args = parser.parse_args(argv)

    cost = None
    if args.profile:
        from repro.bench.calibrate import CalibrationProfile
        from repro.bench.costmodel import CostModel

        try:
            cost = CostModel.from_profile(CalibrationProfile.load(args.profile))
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    overrides = {f"n_{dim}": getattr(args, dim) for dim in dims}
    scenario = replace(
        GOLDEN_DIMS,
        **{key: value for key, value in overrides.items() if value is not None},
    )
    try:
        speedups = parse_speedups(args.speedup)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not speedups and not args.break_even:
        print("error: pass --speedup OP=FACTOR and/or --break-even OP",
              file=sys.stderr)
        return 2

    payload = {}
    if speedups:
        result = run_whatif(speedups, scenario=scenario, cost=cost)
        if args.json:
            payload["whatif"] = result.to_dict()
        else:
            for line in result.lines():
                print(line)
    if args.break_even:
        try:
            point = break_even(args.break_even, scenario=scenario, cost=cost)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.json:
            payload["break_even"] = point
        else:
            if point["factor"] is None:
                print(
                    f"break-even: {point['op']} never shifts the bottleneck "
                    f"off {point['bottleneck_before'] or '-'} (tried up to "
                    "x128)"
                )
            else:
                print(
                    f"break-even: {point['op']} x{point['factor']:g} shifts "
                    f"the bottleneck {point['bottleneck_before']} -> "
                    f"{point['bottleneck_after']} "
                    f"(makespan {point['makespan_before']:.3f}s -> "
                    f"{point['makespan_after']:.3f}s, "
                    f"{point['speedup_at_shift']:.2f}x)"
                )
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def _bench_gate_main(argv: list[str]) -> int:
    """``repro bench-gate``: run scenarios, gate vs the perf database."""
    import json

    from repro.bench.perfdb import (
        PerfDB,
        counted_scenario,
        faults_scenario,
        fig7_scenario,
        gate,
        gate_events,
        serve_fleet_scenario,
    )

    parser = argparse.ArgumentParser(
        prog="repro bench-gate",
        description=(
            "Run the benchmark scenarios, gate them against the "
            "append-only performance database, and append the new "
            "entries when the gate passes."
        ),
    )
    parser.add_argument(
        "--db",
        default="BENCH_perf.json",
        help="performance database path (default: BENCH_perf.json)",
    )
    parser.add_argument(
        "--fig7",
        action="store_true",
        help="also run the measured Figure 7 throughput scenario",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="also run the exact fault-recovery cost scenario",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also run the fleet-serving scenario (routing/shed/canary)",
    )
    parser.add_argument(
        "--key-bits",
        type=int,
        default=512,
        help="key size for the measured scenario (default: 512)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=48,
        help="samples for the measured scenario (default: 48)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="append the new entries even when the gate fails",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="on failure, print a per-phase/per-op/per-lane diagnosis of "
        "each regressed scenario (repro.obs.forensics differ)",
    )
    parser.add_argument(
        "--incident-dir",
        default=None,
        help="on regression, drop a bench_regression post-mortem report "
        "(verdict events + failure context) into this directory",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the gate result as JSON instead of text",
    )
    args = parser.parse_args(argv)

    entries = [counted_scenario()]
    if args.faults:
        entries.append(faults_scenario())
    if args.serve:
        entries.append(serve_fleet_scenario())
    if args.fig7:
        entries.append(fig7_scenario(key_bits=args.key_bits, samples=args.samples))
    try:
        db = PerfDB.load(args.db)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = gate(db, entries)
    explanation: list[str] = []
    if args.explain and not result.ok:
        from repro.obs.forensics import explain_failures

        by_name = {entry.name: entry for entry in entries}
        failed: dict[str, set] = {}
        for verdict in result.failures():
            failed.setdefault(verdict.entry, set()).add(verdict.scalar)
        for name in sorted(failed):
            history = db.history(name)
            if not history or name not in by_name:
                explanation.append(f"{name}: no baseline history to diff")
                continue
            explanation.append(f"--- {name}: why the gate failed ---")
            explanation.extend(
                explain_failures(history[-1], by_name[name], failed[name])
            )
    if args.json:
        payload = result.to_dict()
        if explanation:
            payload["explanation"] = explanation
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in result.lines():
            print(line)
        for line in explanation:
            print(line)
    if result.ok or args.force:
        for entry in entries:
            db.append(entry)
        db.save(args.db)
        print(
            f"{'appended' if result.ok else 'force-appended'} "
            f"{len(entries)} entries to {args.db}",
            # keep --json stdout a single parseable object
            file=sys.stderr if args.json else sys.stdout,
        )
    if not result.ok:
        if args.incident_dir:
            from repro.obs.events import EventLog
            from repro.obs.incident import IncidentStore, snapshot_incident

            log = EventLog()
            gate_events(result, log)
            report = snapshot_incident(
                "bench_regression",
                label=args.db,
                event_log=log,
                context={
                    "failures": [
                        {
                            "entry": verdict.entry,
                            "scalar": verdict.scalar,
                            "value": verdict.value,
                            "baseline": verdict.baseline,
                            "reason": verdict.reason,
                        }
                        for verdict in result.failures()
                    ],
                    "explanation": explanation,
                },
            )
            path = IncidentStore(args.incident_dir).save(report)
            print(
                f"wrote incident {path}",
                file=sys.stderr if args.json else sys.stdout,
            )
        print(
            f"bench gate FAILED: {len(result.failures())} regression(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _calibrate_main(argv: list[str]) -> int:
    """``repro calibrate``: microbenchmark this host into a profile."""
    from repro.bench.calibrate import calibrate, check_drift

    parser = argparse.ArgumentParser(
        prog="repro calibrate",
        description=(
            "Microbenchmark this host's crypto unit costs into a "
            "calibration profile, optionally checking cost-ratio drift "
            "against the paper references."
        ),
    )
    parser.add_argument(
        "-o", "--out", default=None, help="write the profile JSON here"
    )
    parser.add_argument(
        "--key-bits", type=int, default=512, help="modulus size (default: 512)"
    )
    parser.add_argument(
        "--samples", type=int, default=24, help="ops per measurement (default: 24)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when the cost ratios drifted from the paper's",
    )
    args = parser.parse_args(argv)

    profile = calibrate(key_bits=args.key_bits, samples=args.samples)
    for name, value in sorted(profile.unit_costs.items()):
        print(f"{name}: {value:.3e} s")
    print(
        f"packing: x{profile.packing_gain:.2f} per value "
        f"at width {profile.pack_width}"
    )
    if args.out:
        profile.save(args.out)
        print(f"wrote {args.out}")
    if args.check:
        report = check_drift(profile)
        for line in report.lines():
            print(line)
        if not report.ok:
            print(
                f"calibration drift: {len(report.failures())} ratio(s) "
                "outside tolerance",
                file=sys.stderr,
            )
            return 1
    return 0


def _synthetic_parties(rows: int, features: int, bins: int, seed: int):
    """Seeded synthetic data, vertically split B/A down the middle."""
    from repro.data.synthetic import SyntheticSpec, generate_classification
    from repro.gbdt.binning import bin_dataset

    import numpy as np

    spec = SyntheticSpec(n_instances=rows, n_features=features, seed=seed)
    matrix, labels = generate_classification(spec)
    full = bin_dataset(matrix, bins)
    half = features // 2
    parties = [
        full.subset_features(np.arange(0, half)),
        full.subset_features(np.arange(half, features)),
    ]
    return parties, labels


def _plan_from_args(args) -> "object | None":
    """A FaultPlan from CLI flags; None when every knob is zero."""
    from repro.fed.faults import FaultPlan

    crash_after = tuple(
        int(item) for item in (args.crash_after or "").split(",") if item.strip()
    )
    plan = FaultPlan(
        seed=args.fault_seed,
        drop_rate=args.drop_rate,
        duplicate_rate=args.dup_rate,
        delay_rate=args.delay_rate,
        ack_drop_rate=args.ack_drop_rate,
        crash_after_trees=crash_after,
    )
    return None if plan.is_null else plan


def _train_main(argv: list[str]) -> int:
    """``repro train``: fault-tolerant federated training on synthetic data."""
    from repro.core.config import VF2BoostConfig
    from repro.core.serialization import ModelFormatError, save_model
    from repro.core.trainer import FederatedTrainer
    from repro.fed.retry import RetryPolicy

    parser = argparse.ArgumentParser(
        prog="repro train",
        description=(
            "Train a federated model on seeded synthetic data, optionally "
            "under an injected fault plan with checkpoint/resume."
        ),
    )
    parser.add_argument("--rows", type=int, default=400)
    parser.add_argument("--features", type=int, default=10)
    parser.add_argument("--trees", type=int, default=6)
    parser.add_argument("--layers", type=int, default=4)
    parser.add_argument("--bins", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0, help="data/crypto seed")
    parser.add_argument(
        "--crypto-mode",
        default="counted",
        choices=("counted", "real"),
        help="real: every Paillier op; counted: plaintext in real-sized payloads",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write a checkpoint after every tree (required with --crash-after)",
    )
    parser.add_argument(
        "--resume-from", default=None, help="checkpoint to resume from"
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="fault schedule seed"
    )
    parser.add_argument("--drop-rate", type=float, default=0.0)
    parser.add_argument("--dup-rate", type=float, default=0.0)
    parser.add_argument("--delay-rate", type=float, default=0.0)
    parser.add_argument("--ack-drop-rate", type=float, default=0.0)
    parser.add_argument(
        "--crash-after",
        default="",
        help="comma-separated tree indices after which the trainer crashes "
        "(each crash checkpoints and auto-resumes)",
    )
    parser.add_argument("--max-retries", type=int, default=6)
    parser.add_argument(
        "--incident-dir",
        default=None,
        help="drop post-mortem reports (crashes, fault recoveries) here; "
        "inspect them with 'repro incidents'",
    )
    parser.add_argument(
        "--model-out", default=None, help="write the model skeleton here"
    )
    parser.add_argument(
        "--report-out", default=None, help="write the RunReport JSON here"
    )
    args = parser.parse_args(argv)

    parties, labels = _synthetic_parties(
        args.rows, args.features, args.bins, args.seed
    )
    config = VF2BoostConfig.vf2boost(
        params=GBDTParams(
            n_trees=args.trees, n_layers=args.layers, n_bins=args.bins
        ),
        crypto_mode=args.crypto_mode,
        key_bits=256 if args.crypto_mode == "real" else 2048,
        seed=args.seed,
    )
    plan = _plan_from_args(args)
    trainer = FederatedTrainer(config, incident_dir=args.incident_dir)
    try:
        result = trainer.fit_resilient(
            parties,
            labels,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=args.max_retries),
            resume_from=args.resume_from,
            checkpoint_dir=args.checkpoint_dir,
        )
    except (OSError, ModelFormatError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"trained {len(result.model.trees)} trees "
        f"(final train loss {result.history[-1].train_loss:.4f})"
    )
    if result.faults:
        resumed = result.faults.get("resumes", 0)
        print(
            f"faults: {result.faults['drops']} drops, "
            f"{result.faults['resends']} resends, "
            f"{result.faults['dedupe_dropped']} deduped, "
            f"{resumed} resume(s), "
            f"{result.faults['recovery_seconds']:.2f}s recovery"
        )
    if result.incidents:
        print(
            f"incidents: {len(result.incidents)} report(s) in "
            f"{args.incident_dir} (inspect with 'repro incidents list "
            f"--dir {args.incident_dir}')"
        )
    if args.model_out:
        stem = (
            args.model_out[:-5]
            if args.model_out.endswith(".json")
            else args.model_out
        )
        written = save_model(result.model, args.model_out, f"{stem}.private")
        print(f"wrote {', '.join(written)}")
    if args.report_out:
        result.run_report(label="cli-train").save(args.report_out)
        print(f"wrote {args.report_out}")
    return 0


def _faults_main(argv: list[str]) -> int:
    """``repro faults``: recovery-cost sweep with model-identity check."""
    import json

    from repro.core.config import VF2BoostConfig
    from repro.core.serialization import model_to_payloads
    from repro.core.trainer import FederatedTrainer
    from repro.fed.faults import FaultPlan
    from repro.fed.retry import RetryPolicy

    parser = argparse.ArgumentParser(
        prog="repro faults",
        description=(
            "Sweep message-drop rates over a seeded synthetic training "
            "run, report the recovery cost at each point, and verify the "
            "trained model stays bit-identical to the fault-free run."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced two-point sweep for CI (tier-1 wiring); without it "
        "the full sweep runs (drop rates 0 to 0.3; the EXPERIMENTS.md table)",
    )
    parser.add_argument("--rows", type=int, default=240)
    parser.add_argument("--features", type=int, default=8)
    parser.add_argument("--trees", type=int, default=3)
    parser.add_argument("--layers", type=int, default=3)
    parser.add_argument("--bins", type=int, default=8)
    parser.add_argument("--fault-seed", type=int, default=7)
    parser.add_argument("--max-retries", type=int, default=8)
    parser.add_argument("--json", action="store_true", help="JSON output")
    args = parser.parse_args(argv)

    if args.smoke:
        rates = (0.0, 0.1)
    else:
        rates = (0.0, 0.02, 0.05, 0.1, 0.2, 0.3)

    parties, labels = _synthetic_parties(
        args.rows, args.features, args.bins, seed=3
    )
    config = VF2BoostConfig.vf2boost(
        params=GBDTParams(
            n_trees=args.trees, n_layers=args.layers, n_bins=args.bins
        ),
        crypto_mode="counted",
    )
    policy = RetryPolicy(max_retries=args.max_retries)
    baseline_bytes = None
    rows = []
    all_identical = True
    for rate in rates:
        plan = FaultPlan(
            seed=args.fault_seed,
            drop_rate=rate,
            duplicate_rate=rate / 2,
            ack_drop_rate=rate / 2,
        )
        result = FederatedTrainer(config).fit(
            parties,
            labels,
            fault_plan=None if plan.is_null else plan,
            retry_policy=policy,
        )
        model_bytes = json.dumps(
            model_to_payloads(result.model), sort_keys=True
        )
        if baseline_bytes is None:
            baseline_bytes = model_bytes
        identical = model_bytes == baseline_bytes
        all_identical = all_identical and identical
        summary = result.faults or {
            "resends": 0,
            "dropped_bytes": 0,
            "recovery_seconds": 0.0,
        }
        rows.append(
            {
                "drop_rate": rate,
                "resends": summary["resends"],
                "dropped_bytes": summary["dropped_bytes"],
                "recovery_seconds": summary["recovery_seconds"],
                "model_identical": identical,
            }
        )
    if args.json:
        print(json.dumps({"rows": rows, "ok": all_identical}, indent=1))
    else:
        print(f"{'drop':>6} {'resends':>8} {'dropped-B':>10} "
              f"{'recovery-s':>11}  model")
        for row in rows:
            print(
                f"{row['drop_rate']:>6.2f} {row['resends']:>8d} "
                f"{row['dropped_bytes']:>10d} "
                f"{row['recovery_seconds']:>11.3f}  "
                + ("identical" if row["model_identical"] else "DIVERGED")
            )
    if not all_identical:
        print("fault sweep FAILED: model diverged under faults", file=sys.stderr)
        return 1
    return 0


def _events_main(argv: list[str]) -> int:
    """``repro events``: filter/pretty-print a report's flight recorder."""
    import json

    from repro.obs.events import event_from_wire
    from repro.obs.report import RunReport

    parser = argparse.ArgumentParser(
        prog="repro events",
        description=(
            "Filter and pretty-print the flight-recorder events of a "
            "saved RunReport JSON (a run report or an incident)."
        ),
    )
    parser.add_argument("path", help="RunReport JSON (e.g. from --report-out)")
    parser.add_argument(
        "--subsystem", default=None, help="keep only this producer"
    )
    parser.add_argument("--kind", default=None, help="keep only this kind")
    parser.add_argument(
        "--tail", type=int, default=0, help="keep only the last N (after filters)"
    )
    parser.add_argument(
        "--json", action="store_true", help="print flat wire dicts as JSON"
    )
    args = parser.parse_args(argv)

    try:
        events = [
            event_from_wire(record) for record in RunReport.load(args.path).events
        ]
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    total = len(events)
    if args.subsystem is not None:
        events = [e for e in events if e.subsystem == args.subsystem]
    if args.kind is not None:
        events = [e for e in events if e.kind == args.kind]
    if args.tail > 0:
        events = events[-args.tail:]
    if args.json:
        print(json.dumps([e.to_dict() for e in events], indent=1,
                         sort_keys=True))
        return 0
    for e in events:
        extras = " ".join(
            f"{key}={e.payload[key]}" for key in sorted(e.payload)
        )
        print(f"{e.time:>10.3f}s  {e.subsystem:<14} {e.kind:<22} {extras}")
    print(f"({len(events)} of {total} events shown)")
    return 0


def _incidents_main(argv: list[str]) -> int:
    """``repro incidents``: list/show/diff post-mortem reports."""
    import json

    from repro.obs.forensics import diff_reports
    from repro.obs.incident import IncidentStore

    parser = argparse.ArgumentParser(
        prog="repro incidents",
        description=(
            "Inspect the post-mortem reports a failure drops into "
            "--incident-dir: list them, show one, or diff two."
        ),
    )
    parser.add_argument(
        "action",
        nargs="?",
        default="list",
        choices=("list", "show", "diff"),
        help="list (default), show <ref>, or diff <ref> <ref>",
    )
    parser.add_argument(
        "refs",
        nargs="*",
        help="incident references: sequence number, file name, or path",
    )
    parser.add_argument(
        "--dir",
        default="incidents",
        help="incident directory (default: incidents)",
    )
    parser.add_argument("--json", action="store_true", help="JSON output")
    args = parser.parse_args(argv)

    store = IncidentStore(args.dir)
    if args.action == "list":
        try:
            rows = store.rows()
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(rows, indent=1, sort_keys=True))
            return 0
        if not rows:
            print(f"no incidents in {args.dir}")
            return 0
        for row in rows:
            label = f" [{row['label']}]" if row["label"] else ""
            print(
                f"{row['seq']:>3}  {row['kind']:<22}{label} t={row['time']:.3f}s "
                f"events={row['events']} fp={row['fingerprint']}  {row['file']}"
            )
        return 0
    if args.action == "show":
        if len(args.refs) != 1:
            print("error: show takes exactly one incident reference",
                  file=sys.stderr)
            return 2
        try:
            report = store.load(args.refs[0])
        except (LookupError, OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if args.json:
            print(report.to_json())
        else:
            label = f" [{report.label}]" if report.label else ""
            print(
                f"{report.kind}{label} — {len(report.events)} events, "
                f"fingerprint {report.fingerprint()}"
            )
            for key, value in sorted(report.context.items()):
                print(f"  context.{key}: {value}")
            for record in report.events[-10:]:
                print(
                    f"  {record.get('time', 0.0):>10.3f}s "
                    f"{record.get('subsystem', ''):<14} "
                    f"{record.get('kind', '')}"
                )
        return 0
    # diff
    if len(args.refs) != 2:
        print("error: diff takes exactly two incident references",
              file=sys.stderr)
        return 2
    try:
        left = store.load(args.refs[0])
        right = store.load(args.refs[1])
    except (LookupError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    diff = diff_reports(left, right)
    if args.json:
        print(json.dumps(diff.to_dict(), indent=1, sort_keys=True))
    else:
        print(f"{left.kind} -> {right.kind}")
        for line in diff.lines():
            print(line)
    return 0


#: experiments with a machine-readable variant (``--json``)
JSON_EXPERIMENTS: dict[str, object] = {
    "fig7": lambda: crypto_throughputs().to_dict(),
    "util": lambda: experiments.run_resource_utilization()[0],
    "critical": lambda: experiments.run_critical_path()[0],
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point. Returns a process exit code.

    A reader that closes stdout early (``repro events run.report.json | head``)
    ends the command with exit code 1 and no traceback.
    """
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter's exit flush of
        # what is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(argv: list[str] | None) -> int:
    """Run the subcommand or experiments ``argv`` names."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "whatif":
        return _whatif_main(argv[1:])
    if argv and argv[0] == "bench-gate":
        return _bench_gate_main(argv[1:])
    if argv and argv[0] == "calibrate":
        return _calibrate_main(argv[1:])
    if argv and argv[0] == "train":
        return _train_main(argv[1:])
    if argv and argv[0] == "faults":
        return _faults_main(argv[1:])
    if argv and argv[0] == "events":
        return _events_main(argv[1:])
    if argv and argv[0] == "incidents":
        return _incidents_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate VF2Boost (SIGMOD 2021) evaluation artifacts.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["list"],
        help="experiment names (see 'list'), or 'all'; "
        "or 'trace <report.json>' to export a saved trace",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit structured JSON (supported: "
        + ", ".join(sorted(JSON_EXPERIMENTS))
        + "); prints one object keyed by experiment name",
    )
    args = parser.parse_args(argv)

    requested = args.experiments or ["list"]
    if requested == ["list"] or "list" in requested:
        print("available experiments:")
        for name, (description, _) in EXPERIMENTS.items():
            print(f"  {name:<8} {description}")
        print("  all      run every experiment")
        print("  trace    export Chrome trace from a saved run report")
        print("  whatif   predict makespan deltas under cheaper ops")
        print("  bench-gate  run + gate benchmarks vs BENCH_perf.json")
        print("  calibrate   microbenchmark this host's crypto unit costs")
        print("  train       train on synthetic data (faults, checkpoints)")
        print("  faults      recovery-cost sweep + model-identity check")
        print("  events      filter/pretty-print a flight-recorder stream")
        print("  incidents   list/show/diff post-mortem reports")
        return 0
    if "all" in requested:
        requested = list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.json:
        import json

        unsupported = [n for n in requested if n not in JSON_EXPERIMENTS]
        if unsupported:
            print(
                "no JSON output for: " + ", ".join(unsupported)
                + " (supported: " + ", ".join(sorted(JSON_EXPERIMENTS)) + ")",
                file=sys.stderr,
            )
            return 2
        data = {name: JSON_EXPERIMENTS[name]() for name in requested}
        print(json.dumps(data, indent=1, sort_keys=True))
        return 0
    for name in requested:
        __, runner = EXPERIMENTS[name]
        start = time.perf_counter()
        print(f"==> {name}")
        print(runner())
        print(f"[{name} done in {time.perf_counter() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
