"""Table 2 — whole-tree time: OptimSplit and HistPack ablation.

Fidelity: **analytic** — N=10M traces with feature splits 40K/10K,
25K/25K, 10K/40K. Paper reference: OptimSplit 1.28-1.45x (better when
B owns more features), HistPack 1.24-1.67x (better when A owns more),
both 1.90-2.21x.
"""

from repro.bench.experiments import run_table2


def test_table2(benchmark, record_result):
    rows, rendered = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    record_result("table2_tree", rendered)
    for row in rows:
        base = row["baseline"]
        assert base / row["+OptimSplit"] > 1.05
        assert base / row["+HistPack"] > 1.2
        assert base / row["+Both"] > 1.25


def test_table2_optimism_tracks_b_share(record_result):
    rows, _ = run_table2()
    gains = [row["baseline"] / row["+OptimSplit"] for row in rows]
    # Paper: 1.28x at 22% B-splits -> 1.45x at 84% B-splits.
    assert gains[-1] > gains[0]


def test_table2_packing_tracks_a_share(record_result):
    rows, _ = run_table2()
    gains = [row["baseline"] / row["+HistPack"] for row in rows]
    # Paper: 1.67x at 40K A-features -> 1.24x at 10K.
    assert gains[0] >= gains[-1]


def test_table2_split_ratio_column(record_result):
    rows, _ = run_table2()
    ratios = [row["ratio_b"] for row in rows]
    assert ratios == sorted(ratios)


def test_table2_obs_artifacts(record_report):
    """With --obs-dir, emit the per-tree schedule as a RunReport."""
    from repro.bench.costmodel import CostModel
    from repro.core.config import VF2BoostConfig
    from repro.core.profile import analytic_trace
    from repro.core.protocol import ProtocolScheduler
    from repro.fed.cluster import PAPER_CLUSTER
    from repro.gbdt.params import GBDTParams

    params = GBDTParams(n_layers=5, n_bins=20)
    trace = analytic_trace(
        n_instances=1_000_000,
        features_active=25_000,
        features_passive=[25_000],
        density=0.01,
        n_bins=params.n_bins,
        n_layers=params.n_layers,
    )
    config = VF2BoostConfig.vf2boost(params=params)
    result = ProtocolScheduler(config, CostModel.paper(), PAPER_CLUSTER).schedule(
        trace, collect_tasks=True
    )
    report = record_report(
        "table2_vf2boost",
        result,
        label="table2 25K/25K vf2boost",
        config={"n_instances": 1_000_000, "features": "25K/25K"},
    )
    if report is not None:
        assert report.spans
        assert abs(sum(report.phases.values()) - sum(
            t.duration for g in result.task_graphs for t in g
        )) < 1e-6
