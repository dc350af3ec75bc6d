"""What-if explorer: re-price a schedule under perturbed unit costs.

The ROADMAP's performance items (a faster ``powmod`` under the choke
point, SecureBoost+/Batch-HE-style packing — PAPERS.md) all amount to
*make one op family cheaper*.  Whether that buys wall-clock time depends on
whether the op sits on the critical path, and by how much — exactly
what this module answers *before* any implementation work: it
schedules the same workload twice, once at baseline costs and once
under a perturbed :class:`~repro.bench.costmodel.CostModel`, then
compares makespans, phase totals, Figure-7 throughput implications and
the critical-path bottleneck (:mod:`repro.obs.critical`).

Speedups are named by op family (``repro whatif --speedup powmod=2``):

========== =====================================================
name       CostModel fields divided by the factor
========== =====================================================
enc        ``t_enc``
dec        ``t_dec``
hadd       ``t_hadd``
scale      ``t_scale``
smul       ``t_smul``, ``t_smul_small``
powmod     ``t_enc``, ``t_dec``, ``t_smul``, ``t_smul_small`` —
           every modular-exponentiation-bound op, the knob a faster
           powmod (gmp, CRT, batching) actually turns
plain      ``t_plain_accum``, ``t_split_bin``
wan        cross-party bandwidth (ClusterSpec, not CostModel)
========== =====================================================

:func:`break_even` sweeps a factor grid until the critical-path
bottleneck leaves its baseline resource — past that point further
speedup of the same op family is wasted (Amdahl knee).

Deterministic end to end: the scheduler is a pure function of
(config, cost, cluster, trace) and the comparisons are plain float
arithmetic — no clocks, no RNG (DET001-clean).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "SPEEDUP_TARGETS",
    "WhatIfResult",
    "break_even",
    "parse_speedups",
    "perturb_cost",
    "run_whatif",
]

#: op family -> CostModel fields the family's speedup divides
SPEEDUP_TARGETS = {
    "enc": ("t_enc",),
    "dec": ("t_dec",),
    "hadd": ("t_hadd",),
    "scale": ("t_scale",),
    "smul": ("t_smul", "t_smul_small"),
    "powmod": ("t_enc", "t_dec", "t_smul", "t_smul_small"),
    "plain": ("t_plain_accum", "t_split_bin"),
    "wan": (),  # handled on the ClusterSpec, not the CostModel
}

#: op family -> Figure 7 throughput scalars it scales (bench-gate names)
_FIG7_SCALARS = {
    "enc": ("enc_ops_per_s",),
    "dec": ("dec_ops_per_s", "dec_one_prime_ops_per_s", "dec_packed_values_per_s"),
    "hadd": ("hadd_reordered_ops_per_s",),
    "powmod": (
        "enc_ops_per_s",
        "dec_ops_per_s",
        "dec_one_prime_ops_per_s",
        "dec_packed_values_per_s",
    ),
}

#: break-even sweep grid (geometric-ish, deterministic)
_FACTOR_GRID = (1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
                32.0, 48.0, 64.0, 96.0, 128.0)


def parse_speedups(items: list[str]) -> dict[str, float]:
    """Parse ``["powmod=2", "wan=4"]`` into ``{name: factor}``.

    Raises:
        ValueError: unknown op family, bad syntax, or factor <= 0.
    """
    speedups: dict[str, float] = {}
    for item in items:
        name, sep, raw = item.partition("=")
        name = name.strip()
        if not sep:
            raise ValueError(f"expected name=factor, got {item!r}")
        if name not in SPEEDUP_TARGETS:
            known = ", ".join(sorted(SPEEDUP_TARGETS))
            raise ValueError(f"unknown op family {name!r} (known: {known})")
        factor = float(raw)
        if factor <= 0:
            raise ValueError(f"speedup factor must be > 0, got {factor!r}")
        speedups[name] = factor
    return speedups


def perturb_cost(cost, speedups: dict[str, float]):
    """A copy of ``cost`` with each op family's fields divided."""
    changes: dict[str, float] = {}
    for name, factor in speedups.items():
        for field_name in SPEEDUP_TARGETS[name]:
            current = changes.get(field_name, getattr(cost, field_name))
            changes[field_name] = current / factor
    return replace(cost, **changes) if changes else cost


def _perturb_cluster(cluster, speedups: dict[str, float]):
    """A copy of ``cluster`` with the WAN sped up, if requested."""
    factor = speedups.get("wan")
    if not factor:
        return cluster
    return replace(
        cluster,
        wan_bandwidth=cluster.wan_bandwidth * factor,
        wan_latency=cluster.wan_latency / factor,
    )


@dataclass(frozen=True)
class _Summary:
    """One priced schedule, reduced to what the comparison needs."""

    makespan: float
    phases: dict
    by_resource: dict
    bottleneck: str


def _summarize(result) -> _Summary:
    """Reduce a ScheduleResult (scheduled with tasks) for comparison."""
    section = result.critical_path_section()
    return _Summary(
        makespan=result.makespan,
        phases=dict(sorted(result.phase_totals.items())),
        by_resource=dict(section.get("by_resource", {})),
        bottleneck=section.get("bottleneck", ""),
    )


@dataclass
class WhatIfResult:
    """Baseline vs perturbed pricing of one workload."""

    speedups: dict
    shape: dict
    baseline: _Summary
    variant: _Summary

    @property
    def predicted_makespan_delta(self) -> float:
        """Seconds saved (negative = the variant is faster)."""
        return self.variant.makespan - self.baseline.makespan

    @property
    def predicted_speedup(self) -> float:
        """End-to-end speedup factor (baseline / variant)."""
        if self.variant.makespan <= 0:
            return 1.0
        return self.baseline.makespan / self.variant.makespan

    @property
    def bottleneck_shifted(self) -> bool:
        """Did the critical-path bottleneck change resource?"""
        return self.baseline.bottleneck != self.variant.bottleneck

    def fig7_multipliers(self) -> dict[str, float]:
        """Predicted Figure-7 throughput multipliers per gate scalar."""
        multipliers: dict[str, float] = {}
        for name, factor in sorted(self.speedups.items()):
            for scalar in _FIG7_SCALARS.get(name, ()):
                multipliers[scalar] = multipliers.get(scalar, 1.0) * factor
        return multipliers

    def to_dict(self) -> dict:
        from repro.obs.forensics import diff_scalar_maps

        return {
            "speedups": dict(sorted(self.speedups.items())),
            "shape": dict(sorted(self.shape.items())),
            "baseline": {
                "makespan": self.baseline.makespan,
                "bottleneck": self.baseline.bottleneck,
                "critical_by_resource": self.baseline.by_resource,
                "phases": self.baseline.phases,
            },
            "variant": {
                "makespan": self.variant.makespan,
                "bottleneck": self.variant.bottleneck,
                "critical_by_resource": self.variant.by_resource,
                "phases": self.variant.phases,
            },
            "predicted_makespan_delta": self.predicted_makespan_delta,
            "predicted_speedup": self.predicted_speedup,
            "bottleneck_shifted": self.bottleneck_shifted,
            "fig7_multipliers": self.fig7_multipliers(),
            "phase_deltas": [
                c.to_dict()
                for c in diff_scalar_maps(self.baseline.phases,
                                          self.variant.phases)
            ],
        }

    def lines(self) -> list[str]:
        """Human-readable report (the ``repro whatif`` output)."""
        from repro.obs.forensics import diff_scalar_maps

        knobs = ", ".join(
            f"{name} x{factor:g}"
            for name, factor in sorted(self.speedups.items())
        )
        out = [
            f"what-if: {knobs or '(no perturbation)'}",
            f"  makespan: {self.baseline.makespan:.3f}s -> "
            f"{self.variant.makespan:.3f}s "
            f"(predicted speedup {self.predicted_speedup:.2f}x)",
            f"  bottleneck: {self.baseline.bottleneck or '-'} -> "
            f"{self.variant.bottleneck or '-'}"
            + ("  [SHIFTED]" if self.bottleneck_shifted else ""),
        ]
        for scalar, factor in sorted(self.fig7_multipliers().items()):
            out.append(f"  fig7 {scalar}: predicted x{factor:g}")
        deltas = diff_scalar_maps(self.baseline.phases, self.variant.phases)
        if deltas:
            out.append("  phase deltas:")
            for contribution in deltas[:8]:
                out.append("    " + contribution.render())
        return out


def run_whatif(
    speedups: dict[str, float],
    scenario=None,
    cost=None,
    cluster=None,
    config=None,
) -> WhatIfResult:
    """Price a workload at baseline and perturbed costs.

    Args:
        speedups: op-family factors (:func:`parse_speedups` output).
        scenario: the :class:`~repro.bench.scenario.Scenario` to price
            (default :data:`~repro.bench.scenario.GOLDEN_DIMS`, the
            golden 48x6 two-tree workload every other regression guard
            is pinned to, at the paper's key size).
        cost: baseline :class:`CostModel` (default ``CostModel.paper()``
            — pass ``CostModel.from_profile(...)`` to explore from a
            host calibration instead).
        cluster: :class:`ClusterSpec` (default the paper's §6.1 one).
        config: protocol config override (default vf2boost at scenario).
    """
    from repro.bench.costmodel import CostModel
    from repro.bench.scenario import GOLDEN_DIMS
    from repro.fed.cluster import PAPER_CLUSTER

    scenario = scenario or GOLDEN_DIMS
    cost = cost or CostModel.paper()
    cluster = cluster or PAPER_CLUSTER
    baseline = scenario.schedule(config, cost, cluster, collect_tasks=True)
    variant = scenario.schedule(
        config,
        perturb_cost(cost, speedups),
        _perturb_cluster(cluster, speedups),
        collect_tasks=True,
    )
    return WhatIfResult(
        speedups=dict(speedups),
        shape=scenario.dims(),
        baseline=_summarize(baseline),
        variant=_summarize(variant),
    )


def break_even(
    op: str,
    scenario=None,
    cost=None,
    cluster=None,
    config=None,
) -> dict:
    """Smallest grid factor at which the bottleneck shifts off ``op``.

    Sweeps :data:`_FACTOR_GRID` and returns the first factor whose
    perturbed schedule has a different critical-path bottleneck
    resource than the baseline — the point past which speeding this op
    family up further stops paying (the makespan is now owned by
    another lane).  ``factor`` is ``None`` when the bottleneck never
    shifts within the grid (the op family is not what binds, or binds
    beyond 128x).
    """
    if op not in SPEEDUP_TARGETS:
        known = ", ".join(sorted(SPEEDUP_TARGETS))
        raise ValueError(f"unknown op family {op!r} (known: {known})")
    point = {"op": op, "factor": None}
    for factor in _FACTOR_GRID:
        result = run_whatif(
            {op: factor}, scenario=scenario, cost=cost, cluster=cluster,
            config=config,
        )
        if result.bottleneck_shifted:
            point["factor"] = factor
            break
    point.update(
        bottleneck_before=result.baseline.bottleneck,
        bottleneck_after=result.variant.bottleneck,
        makespan_before=result.baseline.makespan,
        makespan_after=result.variant.makespan,
        speedup_at_shift=result.predicted_speedup,
    )
    return point
