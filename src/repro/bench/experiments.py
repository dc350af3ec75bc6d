"""Experiment runners: one function per table/figure of the paper.

Each ``run_*`` function regenerates the corresponding evaluation
artifact and returns structured rows; ``render_*`` helpers print them
in the paper's layout.  Fidelity level per experiment (DESIGN.md §1):

===========  =========================================================
Figure 7     **real** — measured on this repo's Paillier implementation
Table 1/2    **analytic** — paper-scale traces + event scheduling
Table 3      registry metadata
Figure 10    **counted** — full-scale census/a9a analogs, real training
Table 4      **counted** AUC + **analytic** paper-scale timing
Table 5/6    **analytic** timing (+ **counted** AUC for Table 6)
§6.2 util    **analytic** — scheduler utilization and channel bytes
===========  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.systems import SYSTEMS, get_system, simulate_plaintext_gbdt
from repro.bench.calibrate import crypto_throughputs
from repro.bench.costmodel import CostModel
from repro.bench.report import format_bytes, format_ratio, format_seconds, format_table
from repro.core.config import VF2BoostConfig
from repro.core.profile import analytic_trace
from repro.core.protocol import ProtocolScheduler
from repro.core.trainer import FederatedTrainer
from repro.data.datasets import DATASETS, LoadedDataset, load_dataset
from repro.data.partition import split_features
from repro.fed.cluster import PAPER_CLUSTER
from repro.gbdt.binning import BinnedDataset, bin_column, bin_dataset
from repro.gbdt.boosting import GBDTTrainer
from repro.gbdt.metrics import auc
from repro.gbdt.params import GBDTParams

__all__ = [
    "PAPER_PARAMS",
    "run_fig7",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig10",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_resource_utilization",
    "run_critical_path",
]

#: the paper's training protocol (§6.1): T=20, eta=0.1, L=7, s=20
PAPER_PARAMS = GBDTParams(n_trees=20, learning_rate=0.1, n_layers=7, n_bins=20)


# ----------------------------------------------------------------------
# Figure 7 — crypto operation throughputs
# ----------------------------------------------------------------------
def _paper_scale_trace(info, params: GBDTParams):
    """Analytic trace of a Table 3 dataset at its paper-scale descriptor."""
    return analytic_trace(
        info.n_instances,
        info.features_b,
        [info.features_a],
        density=info.density,
        n_bins=params.n_bins,
        n_layers=params.n_layers,
    )


def run_fig7(key_bits: int = 512, samples: int = 48) -> str:
    """Measure and render the Figure 7 throughput chart."""
    report = crypto_throughputs(key_bits=key_bits, samples=samples)
    rows = [
        ("Encryption", f"{report.enc:,.0f}"),
        ("Decryption", f"{report.dec:,.0f}"),
        ("Decryption (one prime)", f"{report.dec_one_prime:,.0f}"),
        ("HAdd (naive)", f"{report.hadd_naive:,.0f}"),
        ("HAdd (re-ordered)", f"{report.hadd_reordered:,.0f}"),
        ("SMul", f"{report.smul:,.0f}"),
        (f"Decryption (packed x{report.pack_width})", f"{report.dec_packed:,.0f}"),
    ]
    table = format_table(
        ["operation", "ops/second"],
        rows,
        title=(
            f"Figure 7 — crypto throughputs (S={report.key_bits}, "
            f"E={report.n_exponents}, single thread)"
        ),
    )
    notes = (
        f"\nre-ordered HAdd gain: {format_ratio(report.reorder_gain())} "
        f"(paper: 4.08x) | packed decryption gain: "
        f"{format_ratio(report.packing_gain())} (paper: ~32x at t=32)"
    )
    return table + notes


# ----------------------------------------------------------------------
# Table 1 — root-node ablation (BlasterEnc, Re-ordered)
# ----------------------------------------------------------------------
def run_table1(
    instance_counts: tuple[int, ...] = (2_500_000, 5_000_000, 10_000_000),
) -> tuple[list[dict], str]:
    """Regenerate Table 1: root-node processing time breakdown."""
    cost = CostModel.paper()
    params = PAPER_PARAMS
    variants = {
        "baseline": dict(blaster_encryption=False, reordered_accumulation=False),
        "+BlasterEnc": dict(blaster_encryption=True, reordered_accumulation=False),
        "+Re-ordered": dict(blaster_encryption=False, reordered_accumulation=True),
        "+Both": dict(blaster_encryption=True, reordered_accumulation=True),
    }
    rows = []
    for n in instance_counts:
        trace = analytic_trace(
            n, 25_000, [25_000], density=0.002, n_bins=params.n_bins,
            n_layers=params.n_layers,
        )
        record: dict = {"n_instances": n}
        for label, flags in variants.items():
            config = VF2BoostConfig(
                params=params,
                optimistic_split=False,
                histogram_packing=False,
                **flags,
            )
            result = ProtocolScheduler(config, cost, PAPER_CLUSTER).schedule(trace)
            breakdown = result.root_breakdown
            if label == "baseline":
                record["enc"] = breakdown["Enc"]
                record["comm"] = breakdown["Comm"]
                record["hadd"] = breakdown["HAdd"]
                # The baseline executes the three phases sequentially.
                record["baseline"] = (
                    breakdown["Enc"] + breakdown["Comm"] + breakdown["HAdd"]
                )
            elif flags["blaster_encryption"]:
                record[label] = breakdown["RootMakespan"]
            else:
                record[label] = (
                    breakdown["Enc"] + breakdown["Comm"] + breakdown["HAdd"]
                )
        rows.append(record)

    table_rows = []
    for r in rows:
        base = r["baseline"]
        table_rows.append(
            (
                f"{r['n_instances'] / 1e6:.1f}M",
                format_seconds(r["enc"]),
                format_seconds(r["comm"]),
                format_seconds(r["hadd"]),
                format_seconds(base),
                f"{format_seconds(r['+BlasterEnc'])} ({format_ratio(base / r['+BlasterEnc'])})",
                f"{format_seconds(r['+Re-ordered'])} ({format_ratio(base / r['+Re-ordered'])})",
                f"{format_seconds(r['+Both'])} ({format_ratio(base / r['+Both'])})",
            )
        )
    rendered = format_table(
        ["#Inst", "Enc", "Comm", "HAdd", "Total", "+BlasterEnc", "+Re-ordered", "+Both"],
        table_rows,
        title="Table 1 — root-node histogram build (25K/25K features, analytic)",
    )
    return rows, rendered


# ----------------------------------------------------------------------
# Table 2 — per-tree ablation (OptimSplit, HistPack)
# ----------------------------------------------------------------------
def run_table2(
    feature_splits: tuple[tuple[int, int], ...] = (
        (40_000, 10_000),
        (25_000, 25_000),
        (10_000, 40_000),
    ),
    n_instances: int = 10_000_000,
) -> tuple[list[dict], str]:
    """Regenerate Table 2: whole-tree time under OptimSplit/HistPack."""
    cost = CostModel.paper()
    params = PAPER_PARAMS
    variants = {
        "baseline": dict(optimistic_split=False, histogram_packing=False),
        "+OptimSplit": dict(optimistic_split=True, histogram_packing=False),
        "+HistPack": dict(optimistic_split=False, histogram_packing=True),
        "+Both": dict(optimistic_split=True, histogram_packing=True),
    }
    rows = []
    for features_a, features_b in feature_splits:
        ratio_b = features_b / (features_a + features_b)
        trace = analytic_trace(
            n_instances,
            features_b,
            [features_a],
            density=0.002,
            n_bins=params.n_bins,
            n_layers=params.n_layers,
        )
        record: dict = {
            "features_a": features_a,
            "features_b": features_b,
            "ratio_b": ratio_b,
        }
        for label, flags in variants.items():
            config = VF2BoostConfig(params=params, **flags)
            result = ProtocolScheduler(config, cost, PAPER_CLUSTER).schedule(trace)
            record[label] = result.makespan
        rows.append(record)

    table_rows = []
    for r in rows:
        base = r["baseline"]
        table_rows.append(
            (
                f"{r['features_a'] // 1000}K/{r['features_b'] // 1000}K",
                f"{r['ratio_b']:.2%}",
                format_seconds(base),
                f"{format_seconds(r['+OptimSplit'])} ({format_ratio(base / r['+OptimSplit'])})",
                f"{format_seconds(r['+HistPack'])} ({format_ratio(base / r['+HistPack'])})",
                f"{format_seconds(r['+Both'])} ({format_ratio(base / r['+Both'])})",
            )
        )
    rendered = format_table(
        ["#Feat (A/B)", "SplitsB", "Baseline", "+OptimSplit", "+HistPack", "+Both"],
        table_rows,
        title=f"Table 2 — one-tree time at N={n_instances/1e6:.0f}M (analytic)",
    )
    return rows, rendered


# ----------------------------------------------------------------------
# Table 3 — dataset inventory
# ----------------------------------------------------------------------
def run_table3() -> str:
    """Render the Table 3 dataset registry with reproduction scales."""
    rows = [
        (
            info.name,
            f"{info.n_instances:,}",
            f"{info.features_a}/{info.features_b}",
            f"{info.density:.2%}",
            f"{info.default_scale:g}",
        )
        for info in DATASETS.values()
    ]
    return format_table(
        ["dataset", "#instances", "#features (A/B)", "density", "repro scale"],
        rows,
        title="Table 3 — evaluation datasets (paper scale + default analog scale)",
    )


# ----------------------------------------------------------------------
# Shared counted-mode machinery
# ----------------------------------------------------------------------
@dataclass
class CountedRun:
    """Outcome of one counted-mode federated training run."""

    dataset: LoadedDataset
    result: object  # TrainResult
    losses: list[float] = field(default_factory=list)
    valid_auc: float | None = None


def _bin_with_reference(features: np.ndarray, reference: BinnedDataset) -> np.ndarray:
    codes = np.empty(features.shape, dtype=np.uint16)
    for j in range(features.shape[1]):
        codes[:, j] = bin_column(features[:, j], reference.cut_points[j])
    return codes


def counted_run(
    dataset_name: str,
    params: GBDTParams,
    scale: float | None = None,
    n_passive: int = 1,
    feature_counts: list[int] | None = None,
) -> CountedRun:
    """Train the federated model in counted mode on a dataset analog.

    The feature columns are split contiguously: Party A('s) take the
    head columns, Party B the tail (which carries label signal equally
    by construction of the generators).

    Args:
        feature_counts: explicit per-party column counts (B first). May
            sum to fewer columns than the analog has — the remainder is
            held out entirely, which is how the multi-party experiment
            (§6.4) grows the total feature pool with the party count.
    """
    data = load_dataset(dataset_name, scale=scale)
    full = bin_dataset(data.train_features, params.n_bins)
    counts = feature_counts or _party_feature_counts(data, n_passive)
    unused = data.n_features - sum(counts)
    if unused < 0:
        raise ValueError("feature_counts exceed the analog's columns")
    partition = split_features(
        data.n_features,
        counts + ([unused] if unused else []),
        shuffle=n_passive > 1 or unused > 0,
        seed=0,
    )
    party_sets = [full.subset_features(partition.columns_of(p)) for p in range(n_passive + 1)]
    valid_codes_full = _bin_with_reference(data.valid_features, full)
    valid_codes = {
        p: valid_codes_full[:, partition.columns_of(p)] for p in range(n_passive + 1)
    }
    config = VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
    trainer = FederatedTrainer(config)
    result = trainer.fit(
        party_sets, data.train_labels, valid_codes, data.valid_labels
    )
    losses = [record.train_loss for record in result.history]
    valid_auc = result.history[-1].valid_auc if result.history else None
    return CountedRun(dataset=data, result=result, losses=losses, valid_auc=valid_auc)


def _subset_auc(data: LoadedDataset, n_columns: int, params: GBDTParams) -> float:
    """Validation AUC of a plaintext model on one random column subset.

    The "Party B only" reference line of Table 6: what the label holder
    achieves with just its own share of the feature pool.
    """
    rng = np.random.default_rng(0)
    columns = np.sort(rng.choice(data.n_features, n_columns, replace=False))
    trainer = GBDTTrainer(params)
    trainer.fit(
        data.train_features[:, columns], data.train_labels,
        data.valid_features[:, columns], data.valid_labels,
    )
    return trainer.history[-1].valid_auc


def _party_feature_counts(data: LoadedDataset, n_passive: int) -> list[int]:
    """Feature counts per party, B first; A's split their share evenly."""
    if n_passive == 1:
        return [data.features_b, data.features_a]
    total = data.n_features
    per_party = total // (n_passive + 1)
    counts = [total - n_passive * per_party] + [per_party] * n_passive
    return counts


def _xgboost_references(
    data: LoadedDataset, params: GBDTParams
) -> tuple[dict, dict]:
    """Train XGBoost-like models on co-located data and on B's columns."""
    co_trainer = GBDTTrainer(params)
    co_trainer.fit(
        data.train_features, data.train_labels,
        data.valid_features, data.valid_labels,
    )
    b_slice = data.party_feature_slices()[1]
    b_trainer = GBDTTrainer(params)
    b_trainer.fit(
        data.train_features[:, b_slice], data.train_labels,
        data.valid_features[:, b_slice], data.valid_labels,
    )
    co = {
        "losses": [r.train_loss for r in co_trainer.history],
        "valid_losses": [r.valid_loss for r in co_trainer.history],
        "auc": co_trainer.history[-1].valid_auc,
    }
    b_only = {
        "losses": [r.train_loss for r in b_trainer.history],
        "valid_losses": [r.valid_loss for r in b_trainer.history],
        "auc": b_trainer.history[-1].valid_auc,
    }
    return co, b_only


# ----------------------------------------------------------------------
# Figure 10 — convergence vs (simulated) time on census / a9a
# ----------------------------------------------------------------------
def run_fig10(
    dataset_names: tuple[str, ...] = ("census", "a9a"),
    params: GBDTParams | None = None,
) -> tuple[dict, str]:
    """Regenerate Figure 10: logistic loss versus running time.

    Returns per-dataset, per-system ``(cumulative_seconds, loss)``
    series plus the XGBoost reference lines, and a rendered summary.
    """
    params = params or PAPER_PARAMS
    system_names = ("secureboost", "fedlearner", "vf_gbdt", "vf2boost")
    # §6.3: "For the two small-scale datasets ... we train on a single
    # machine in each party."
    single_machine = PAPER_CLUSTER.scaled_workers(1)
    figures: dict = {}
    lines: list[str] = []
    for name in dataset_names:
        run = counted_run(name, params)
        trace = run.result.trace
        co, b_only = _xgboost_references(run.dataset, params)
        series: dict[str, dict] = {}
        for system_name in system_names:
            system = get_system(system_name)
            seconds = system.seconds_per_tree(trace, params, cluster=single_machine)
            times = [seconds * (t + 1) for t in range(len(run.losses))]
            series[system_name] = {
                "display": system.display,
                "time": times,
                "loss": run.losses,
            }
        figures[name] = {
            "series": series,
            "xgb_colocated_loss": co["losses"][-1],
            "xgb_b_only_loss": b_only["losses"][-1],
        }
        total = {
            s: series[s]["time"][-1] for s in system_names
        }
        speedup_vs_secureboost = total["secureboost"] / total["vf2boost"]
        lines.append(
            format_table(
                ["system", "total time (s)", "final train loss"],
                [
                    (
                        series[s]["display"],
                        format_seconds(total[s]),
                        f"{series[s]['loss'][-1]:.4f}",
                    )
                    for s in system_names
                ]
                + [
                    ("XGBoost (co-located)", "-", f"{co['losses'][-1]:.4f}"),
                    ("XGBoost (Party B only)", "-", f"{b_only['losses'][-1]:.4f}"),
                ],
                title=(
                    f"Figure 10 [{name}] — VF2Boost vs SecureBoost speedup: "
                    f"{format_ratio(speedup_vs_secureboost)} (paper: 12.8-18.9x)"
                ),
            )
        )
    return figures, "\n\n".join(lines)


# ----------------------------------------------------------------------
# Table 4 — end-to-end on the large datasets
# ----------------------------------------------------------------------
def run_table4(
    dataset_names: tuple[str, ...] = (
        "susy",
        "epsilon",
        "rcv1",
        "synthesis",
        "industry",
    ),
    params: GBDTParams | None = None,
) -> tuple[list[dict], str]:
    """Regenerate Table 4: time/tree and AUC for the large datasets.

    AUC values come from counted-mode runs on the downscaled analogs;
    per-tree times from scheduling *paper-scale* analytic traces (the
    hybrid documented in EXPERIMENTS.md).
    """
    params = params or PAPER_PARAMS
    rows = []
    for name in dataset_names:
        info = DATASETS[name]
        # Quality: counted run + XGBoost references on the analog.
        run = counted_run(name, params)
        co, b_only = _xgboost_references(run.dataset, params)
        # Timing: paper-scale analytic trace.
        trace = _paper_scale_trace(info, params)
        times = {
            s: get_system(s).seconds_per_tree(trace, params)
            for s in ("xgboost", "vf_mock", "vf_gbdt", "vf2boost")
        }
        rows.append(
            {
                "dataset": name,
                "times": times,
                "auc_vf2boost": run.valid_auc,
                "auc_xgb_colocated": co["auc"],
                "auc_xgb_b_only": b_only["auc"],
            }
        )
    table_rows = []
    for r in rows:
        t = r["times"]
        table_rows.append(
            (
                r["dataset"],
                format_seconds(t["xgboost"]),
                f"{format_seconds(t['vf_mock'])} (v{t['vf_mock'] / t['xgboost']:.2f}x)",
                f"{format_seconds(t['vf_gbdt'])} (v{t['vf_gbdt'] / t['xgboost']:.2f}x)",
                f"{format_seconds(t['vf2boost'])} (^{t['vf_gbdt'] / t['vf2boost']:.2f}x)",
                f"{r['auc_vf2boost']:.3f}",
                f"{r['auc_xgb_colocated']:.3f} vs {r['auc_xgb_b_only']:.3f}",
            )
        )
    rendered = format_table(
        [
            "dataset",
            "XGB s/tree",
            "VF-MOCK (vs XGB)",
            "VF-GBDT (vs XGB)",
            "VF2Boost (vs prev)",
            "AUC VF2B",
            "AUC XGB co/B-only",
        ],
        table_rows,
        title="Table 4 — end-to-end (timing: paper-scale analytic; AUC: counted analogs)",
    )
    return rows, rendered


# ----------------------------------------------------------------------
# Table 5 — scalability w.r.t. workers
# ----------------------------------------------------------------------
def run_table5(
    dataset_names: tuple[str, ...] = ("susy", "epsilon", "rcv1", "synthesis"),
    worker_counts: tuple[int, ...] = (4, 8, 16),
    params: GBDTParams | None = None,
) -> tuple[dict, str]:
    """Regenerate Table 5: speedup versus worker count."""
    params = params or PAPER_PARAMS
    cost = CostModel.paper()
    results: dict[str, dict[int, float]] = {}
    for name in dataset_names:
        info = DATASETS[name]
        trace = _paper_scale_trace(info, params)
        config = VF2BoostConfig.vf2boost(params=params)
        times = {}
        for workers in worker_counts:
            cluster = PAPER_CLUSTER.scaled_workers(workers)
            times[workers] = ProtocolScheduler(config, cost, cluster).schedule(trace).makespan
        results[name] = times
    base_workers = worker_counts[0]
    table_rows = [
        tuple(
            [str(w)]
            + [
                format_ratio(results[name][base_workers] / results[name][w])
                for name in dataset_names
            ]
        )
        for w in worker_counts
    ]
    rendered = format_table(
        ["#workers"] + list(dataset_names),
        table_rows,
        title=f"Table 5 — speedup vs {base_workers} workers (analytic)",
    )
    return results, rendered


# ----------------------------------------------------------------------
# Table 6 — scalability w.r.t. parties
# ----------------------------------------------------------------------
def run_table6(params: GBDTParams | None = None) -> tuple[dict, str]:
    """Regenerate Table 6: multi-party speedup and AUC.

    Following §6.4, the features are divided into four equal subsets up
    front and each party owns one subset — so the *total* feature pool
    (and therefore the AUC) grows with the party count, while each
    party's per-layer work stays constant and Party B's decryption load
    grows, giving the paper's mild slowdown.
    """
    params = params or PAPER_PARAMS
    dataset_names = ("epsilon", "rcv1")
    party_counts = (2, 3, 4)
    cost = CostModel.paper()
    results: dict[str, dict] = {}
    for name in dataset_names:
        info = DATASETS[name]
        per_party: dict[int, dict] = {}
        b_only_auc = None
        for n_parties in party_counts:
            n_passive = n_parties - 1
            # Analog share: a quarter of the analog's columns per party.
            analog = load_dataset(name)
            analog_share = analog.n_features // max(party_counts)
            run = counted_run(
                name,
                params,
                n_passive=n_passive,
                feature_counts=[analog_share] * n_parties,
            )
            if b_only_auc is None:
                b_only_auc = _subset_auc(run.dataset, analog_share, params)
            # Timing at paper scale: one fixed-size subset per party.
            share = info.n_features // max(party_counts)
            trace = analytic_trace(
                info.n_instances,
                share,
                [share] * n_passive,
                density=info.density,
                n_bins=params.n_bins,
                n_layers=params.n_layers,
            )
            config = VF2BoostConfig.vf2boost(params=params)
            makespan = ProtocolScheduler(config, cost, PAPER_CLUSTER).schedule(trace).makespan
            per_party[n_parties] = {"auc": run.valid_auc, "time": makespan}
        results[name] = {"per_party": per_party, "b_only_auc": b_only_auc}
    table_rows = []
    for n_parties in party_counts:
        row = [str(n_parties)]
        for name in dataset_names:
            base = results[name]["per_party"][party_counts[0]]["time"]
            row.append(
                format_ratio(base / results[name]["per_party"][n_parties]["time"])
            )
        for name in dataset_names:
            row.append(f"{results[name]['per_party'][n_parties]['auc']:.3f}")
        table_rows.append(tuple(row))
    headers = (
        ["#parties"]
        + [f"speedup {n}" for n in dataset_names]
        + [f"AUC {n}" for n in dataset_names]
    )
    b_line = " | ".join(
        f"{name} B-only AUC: {results[name]['b_only_auc']:.3f}"
        for name in dataset_names
    )
    rendered = (
        format_table(headers, table_rows, title="Table 6 — multi-party scaling")
        + "\n"
        + b_line
    )
    return results, rendered


# ----------------------------------------------------------------------
# §6.2 resource utilization
# ----------------------------------------------------------------------
def run_resource_utilization(
    params: GBDTParams | None = None,
) -> tuple[dict, str]:
    """Regenerate the §6.2 resource-utilization findings.

    The paper reports Party A CPU utilization improving from 670% to
    1056% (of 1600% per 16-core machine) and per-tree traffic dropping
    from 3.2 GB to 1.1 GB with histogram packing.
    """
    params = params or PAPER_PARAMS
    cost = CostModel.paper()
    info = DATASETS["synthesis"]
    trace = _paper_scale_trace(info, params)
    baseline = ProtocolScheduler(
        VF2BoostConfig.vf_gbdt(params=params), cost, PAPER_CLUSTER
    ).schedule(trace)
    optimized = ProtocolScheduler(
        VF2BoostConfig.vf2boost(params=params), cost, PAPER_CLUSTER
    ).schedule(trace)
    cores = PAPER_CLUSTER.n_workers * PAPER_CLUSTER.cores_per_worker
    base_util = baseline.utilization.get("A1", 0.0) * cores * 100 / PAPER_CLUSTER.n_workers
    opt_util = optimized.utilization.get("A1", 0.0) * cores * 100 / PAPER_CLUSTER.n_workers
    result = {
        "baseline_cpu_percent": base_util,
        "vf2boost_cpu_percent": opt_util,
        "baseline_bytes_per_tree": baseline.bytes_per_tree,
        "vf2boost_bytes_per_tree": optimized.bytes_per_tree,
    }
    rendered = format_table(
        ["metric", "VF-GBDT", "VF2Boost", "paper"],
        [
            (
                "Party A CPU util (% of a 16-core worker)",
                f"{base_util:.0f}%",
                f"{opt_util:.0f}%",
                "670% -> 1056%",
            ),
            (
                "public network bytes per tree",
                format_bytes(result["baseline_bytes_per_tree"]),
                format_bytes(result["vf2boost_bytes_per_tree"]),
                "3.2GB -> 1.1GB",
            ),
        ],
        title="§6.2 resource utilization (synthesis, analytic)",
    )
    return result, rendered


def run_critical_path() -> tuple[dict, str]:
    """Critical-path forensics on the golden two-tree schedule.

    Schedules the 48x6 golden shape with task-graph collection on, walks
    the exact critical path (:mod:`repro.obs.critical`) and renders the
    makespan attribution table plus an annotated Gantt chart — on-path
    tasks UPPERCASE, waits as ``*``.  The path total matches the
    schedule makespan bit-exactly; the returned dict is the same
    ``critical_path`` section a schedule :class:`RunReport` carries.
    """
    from repro.bench.scenario import GOLDEN_DIMS
    from repro.obs.critical import critical_gantt

    schedule = GOLDEN_DIMS.schedule(collect_tasks=True)
    section = schedule.critical_path_section()
    rows = [
        (
            row["resource"], str(row["lane"]), row["phase"], row["op"],
            format_seconds(row["seconds"]), f"{row['share']:.1%}",
        )
        for row in section["attribution"][:10]
    ]
    table = format_table(
        ["resource", "lane", "phase", "op", "seconds", "share"],
        rows,
        title=(
            "critical-path attribution (golden 48x6, 2 trees; "
            f"makespan {format_seconds(section['makespan'])}, "
            f"wait {format_seconds(section['wait_seconds'])})"
        ),
    )
    gantt = critical_gantt(schedule.task_graphs[0])
    rendered = table + "\n\ntree 0 annotated Gantt (UPPERCASE = on path):\n" + gantt
    return section, rendered
