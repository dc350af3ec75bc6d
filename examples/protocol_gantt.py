"""Visualize the concurrent training protocol as Gantt charts.

Reproduces the *story* of Figures 4-6: the same workload scheduled
under the sequential baseline protocol and under VF²Boost's concurrent
protocol, rendered as ASCII Gantt charts, plus the per-phase busy-time
breakdown and resource utilization (§6.2).

Run:  python examples/protocol_gantt.py
      python examples/protocol_gantt.py --trace-out gantt  # + Chrome traces
"""

import argparse

from repro.bench.costmodel import CostModel
from repro.bench.report import phase_table
from repro.core.config import VF2BoostConfig
from repro.core.profile import analytic_trace
from repro.core.protocol import ProtocolScheduler
from repro.fed.cluster import PAPER_CLUSTER
from repro.gbdt.params import GBDTParams
from repro.obs.trace_export import write_chrome_trace


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PREFIX",
        help="also write <PREFIX>.<variant>.trace.json Chrome traces "
        "(the same Gantt, openable at https://ui.perfetto.dev)",
    )
    args = parser.parse_args(argv)

    params = GBDTParams(n_layers=5, n_bins=20)
    trace = analytic_trace(
        n_instances=1_000_000,
        features_active=5_000,
        features_passive=[5_000],
        density=0.01,
        n_bins=params.n_bins,
        n_layers=params.n_layers,
    )
    cost = CostModel.paper()

    variants = {
        "sequential baseline (VF-GBDT)": VF2BoostConfig.vf_gbdt(params=params),
        "concurrent protocol (VF2Boost)": VF2BoostConfig.vf2boost(params=params),
    }
    results = {}
    for label, config in variants.items():
        result = ProtocolScheduler(config, cost, PAPER_CLUSTER).schedule(
            trace, collect_tasks=args.trace_out is not None
        )
        results[label] = result
        print(f"=== {label} ===")
        print(f"one tree: {result.makespan:.0f} simulated seconds")
        print(result.gantt)
        print(phase_table(result.phase_totals, title="phase busy-time breakdown:"))
        if args.trace_out:
            slug = "vf2boost" if "VF2Boost" in label else "baseline"
            path = f"{args.trace_out}.{slug}.trace.json"
            write_chrome_trace(path, result.spans())
            print(f"[wrote {path} — open at https://ui.perfetto.dev]")
        print("resource utilization over the tree:")
        for name in ("B", "B.dec", "A1", "wan.out", "wan.in"):
            print(f"  {name:<8} {result.utilization.get(name, 0.0):6.1%}")
        print()

    base = results["sequential baseline (VF-GBDT)"].makespan
    fast = results["concurrent protocol (VF2Boost)"].makespan
    print(f"speedup from the concurrent protocol + crypto customization: "
          f"{base / fast:.2f}x")
    print("(legend: E=Enc, C=CipherComm, B=BuildHistA, F=FindSplit, "
          "S=SplitNode, P=Pack, A=Aggregate)")


if __name__ == "__main__":
    main()
