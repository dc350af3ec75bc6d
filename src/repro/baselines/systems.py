"""The named systems of the paper's evaluation (§6.3 competitors).

Every system is a :class:`SystemSpec` bundling the protocol
configuration, cost model and cluster topology under which the
protocol scheduler prices a workload trace:

=================  ==================================================
system             modeling
=================  ==================================================
``xgboost``        non-federated plaintext GBDT on co-located data
``xgboost_b``      same, on Party B's columns only
``vf_mock``        VF-GBDT's protocol priced by ``CostModel.mocked``
``vf_gbdt``        full crypto, none of the §4/§5 optimizations
``vf2boost``       full crypto, all four optimizations
``secureboost``    FATE SecureBoost: sequential protocol, Pythonic
                   runtime (12.5x compute multiplier), single machine
``fedlearner``     Fedlearner: vectorized histograms (8.9x multiplier)
                   but no intra-party distribution
=================  ==================================================

The compute multipliers encode the slowdowns the paper *measured* for
these competitors (12.11-12.85x and 8.61-9.20x respectively versus
VF-GBDT); see DESIGN.md §1 for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench.costmodel import CostModel
from repro.core.config import VF2BoostConfig
from repro.core.protocol import ProtocolScheduler, ScheduleResult
from repro.core.trace import TraceLog
from repro.fed.cluster import PAPER_CLUSTER, ClusterSpec
from repro.gbdt.params import GBDTParams

__all__ = ["SystemSpec", "SYSTEMS", "get_system", "simulate_plaintext_gbdt"]


@dataclass(frozen=True)
class SystemSpec:
    """A named end-to-end system configuration.

    Attributes:
        name: registry key.
        display: human-readable label used in benchmark tables.
        make_cost: builds the cost model.
        make_cluster: builds the cluster topology.
        make_config: builds the protocol config from GBDT params;
            ``None`` for a system without the cross-party protocol.
    """

    name: str
    display: str
    make_cost: Callable[[], CostModel]
    make_cluster: Callable[[], ClusterSpec]
    make_config: Callable[[GBDTParams], VF2BoostConfig] | None = None

    @property
    def federated(self) -> bool:
        """Whether the system runs the cross-party protocol."""
        return self.make_config is not None

    def schedule(
        self,
        trace: TraceLog,
        params: GBDTParams,
        cluster: ClusterSpec | None = None,
    ) -> ScheduleResult:
        """Price a workload trace under this system.

        Args:
            cluster: optional topology override — the paper runs the
                small datasets on a single machine per party (§6.3).
        """
        if not self.federated:
            raise ValueError(f"{self.name} is not a federated system")
        scheduler = ProtocolScheduler(
            self.make_config(params), self.make_cost(), cluster or self.make_cluster()
        )
        return scheduler.schedule(trace)

    def seconds_per_tree(
        self,
        trace: TraceLog,
        params: GBDTParams,
        cluster: ClusterSpec | None = None,
    ) -> float:
        """Average simulated seconds per boosting round."""
        if self.federated:
            result = self.schedule(trace, params, cluster)
            return result.makespan / max(1, len(trace.trees))
        return simulate_plaintext_gbdt(
            trace, params, self.make_cost(), cluster or self.make_cluster()
        )


def _single_machine() -> ClusterSpec:
    """One 16-core machine per party (the competitors' deployment)."""
    return ClusterSpec(n_workers=1, cores_per_worker=16)


SYSTEMS: dict[str, SystemSpec] = {
    "xgboost": SystemSpec(
        name="xgboost",
        display="XGBoost (co-located)",
        make_cost=CostModel.paper,
        make_cluster=lambda: PAPER_CLUSTER,
    ),
    "xgboost_b": SystemSpec(
        name="xgboost_b",
        display="XGBoost (Party B only)",
        make_cost=CostModel.paper,
        make_cluster=lambda: PAPER_CLUSTER,
    ),
    "vf_mock": SystemSpec(
        name="vf_mock",
        display="VF-MOCK",
        make_config=lambda p: VF2BoostConfig.vf_gbdt(params=p),
        make_cost=lambda: CostModel.paper().mocked(),
        make_cluster=lambda: PAPER_CLUSTER,
    ),
    "vf_gbdt": SystemSpec(
        name="vf_gbdt",
        display="VF-GBDT",
        make_config=lambda p: VF2BoostConfig.vf_gbdt(params=p),
        make_cost=CostModel.paper,
        make_cluster=lambda: PAPER_CLUSTER,
    ),
    "vf2boost": SystemSpec(
        name="vf2boost",
        display="VF2Boost",
        make_config=lambda p: VF2BoostConfig.vf2boost(params=p),
        make_cost=CostModel.paper,
        make_cluster=lambda: PAPER_CLUSTER,
    ),
    "secureboost": SystemSpec(
        name="secureboost",
        display="SecureBoost (FATE)",
        make_config=lambda p: VF2BoostConfig.vf_gbdt(params=p),
        make_cost=CostModel.fate_like,
        make_cluster=_single_machine,
    ),
    "fedlearner": SystemSpec(
        name="fedlearner",
        display="Fedlearner",
        make_config=lambda p: VF2BoostConfig.vf_gbdt(params=p),
        make_cost=CostModel.fedlearner_like,
        make_cluster=_single_machine,
    ),
}


def get_system(name: str) -> SystemSpec:
    """Look up a system by name.

    Raises:
        KeyError: for unknown system names.
    """
    try:
        return SYSTEMS[name]
    except KeyError:
        raise KeyError(f"unknown system {name!r}; known: {sorted(SYSTEMS)}") from None


def simulate_plaintext_gbdt(
    trace: TraceLog,
    params: GBDTParams,
    cost: CostModel,
    cluster: ClusterSpec,
) -> float:
    """Seconds per tree of non-federated plaintext GBDT on the trace.

    XGBoost-style training has no cross-party phases: per layer it
    accumulates ``2 * instances * d_total`` statistics (halved beyond
    the root by the subtraction trick) and evaluates every bin once.
    """
    d_total = trace.active_shape.nnz_per_instance + sum(
        shape.nnz_per_instance for shape in trace.passive_shapes
    )
    bins_total = trace.active_shape.histogram_bins + sum(
        shape.histogram_bins for shape in trace.passive_shapes
    )
    lanes = cluster.compute_lanes
    total = 0.0
    for tree in trace.trees:
        for layer in tree.layers:
            subtraction = 1.0 if layer.depth == 0 else 0.55
            accum = 2 * layer.n_instances * d_total * cost.plain_accum() * subtraction
            split = len(layer.nodes) * bins_total * cost.split_bin()
            total += (accum + split) / lanes
    return total / max(1, len(trace.trees))
