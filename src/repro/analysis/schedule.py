"""Schedule-graph validator (rules ``SCH001``-``SCH005``).

The protocol schedulers in :mod:`repro.core.protocol` emit task graphs
whose *structure* carries the paper's speedup claims (overlap of Enc /
CipherComm / BuildHistA, clean/dirty sub-task slicing, ...).  A
malformed graph — a dependency cycle, a dangling edge after a refactor,
two tasks double-booking a compute lane — would corrupt every makespan
silently: the greedy engine still returns *a* number.

This validator checks any task graph (objects exposing ``task_id``,
``deps``, ``resource``, ``lane``, ``start``, ``end``):

* **SCH001** — dependency cycles;
* **SCH002** — dangling dependency ids;
* **SCH003** — two tasks overlapping on the same ``(resource, lane)``;
* **SCH004** — causality: a task starting before a dependency ends;
* **SCH005** — fault consistency: with a ``fault_plan``, a task
  starting inside one of its resource's party pause windows (a paused
  party starts no new work — :class:`~repro.fed.simtime.FaultyEngine`
  must have pushed the start past the window).

:func:`iter_self_check_graphs` runs the real :class:`ProtocolScheduler`
over small analytic traces for every protocol variant — fault-free and
fault-injected; ``python -m repro.analysis`` validates and race-checks
each emitted tree graph.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.findings import Finding, Severity

__all__ = ["validate_task_graph", "iter_self_check_graphs"]

#: float-comparison slack for interval overlap, in simulated seconds
_EPS = 1e-9

checker_name = "schedule"


def _finding(rule: str, label: str, message: str) -> Finding:
    return Finding(
        rule_id=rule,
        severity=Severity.ERROR,
        file=f"<schedule:{label}>",
        line=0,
        message=message,
        checker=checker_name,
    )


def validate_task_graph(
    tasks: Sequence, label: str = "graph", fault_plan=None
) -> list[Finding]:
    """Validate one task graph; returns findings (empty = healthy).

    Args:
        tasks: the graph (``SimTask``-shaped objects).
        label: run label embedded in findings.
        fault_plan: the :class:`~repro.fed.faults.FaultPlan` the graph
            was scheduled under, if any — enables the SCH005 pause
            window check.
    """
    findings: list[Finding] = []
    by_id = {task.task_id: task for task in tasks}

    # SCH002: dangling dependencies.
    for task in tasks:
        for dep_id in task.deps:
            if dep_id not in by_id:
                findings.append(
                    _finding(
                        "SCH002",
                        label,
                        f"task {task.task_id} ({task.name!r}) depends on "
                        f"unknown task id {dep_id}",
                    )
                )

    # SCH001: cycles, via iterative DFS over dependency edges.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {task_id: WHITE for task_id in by_id}
    for root in by_id:
        if color[root] != WHITE:
            continue
        stack: list[tuple[int, Iterable[int]]] = [(root, iter(by_id[root].deps))]
        color[root] = GREY
        while stack:
            node, deps = stack[-1]
            advanced = False
            for dep in deps:
                if dep not in by_id:
                    continue
                if color[dep] == GREY:
                    findings.append(
                        _finding(
                            "SCH001",
                            label,
                            f"dependency cycle through tasks {dep} and {node}",
                        )
                    )
                elif color[dep] == WHITE:
                    color[dep] = GREY
                    stack.append((dep, iter(by_id[dep].deps)))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()

    # SCH004: a task must not start before its dependencies end.
    for task in tasks:
        for dep_id in task.deps:
            dep = by_id.get(dep_id)
            if dep is not None and task.start < dep.end - _EPS:
                findings.append(
                    _finding(
                        "SCH004",
                        label,
                        f"task {task.task_id} ({task.name!r}) starts at "
                        f"{task.start:.6f} before dependency {dep_id} ends "
                        f"at {dep.end:.6f}",
                    )
                )

    # SCH003: lane double-booking.
    lanes: dict[tuple[str, int], list] = {}
    for task in tasks:
        lanes.setdefault((task.resource, task.lane), []).append(task)
    for (resource, lane), members in sorted(lanes.items()):
        members.sort(key=lambda t: (t.start, t.end))
        for earlier, later in zip(members, members[1:]):
            if later.start < earlier.end - _EPS:
                findings.append(
                    _finding(
                        "SCH003",
                        label,
                        f"tasks {earlier.task_id} ({earlier.name!r}) and "
                        f"{later.task_id} ({later.name!r}) overlap on "
                        f"{resource}[{lane}]: [{earlier.start:.6f}, {earlier.end:.6f}) "
                        f"vs [{later.start:.6f}, {later.end:.6f})",
                    )
                )

    # SCH005: no task may *start* inside a pause window of its
    # resource's party (zero-length anchor tasks are exempt — they model
    # instantaneous ordering, not work).
    if fault_plan is not None:
        from repro.fed.simtime import party_of_resource

        for task in tasks:
            if task.end - task.start <= _EPS:
                continue
            party = party_of_resource(task.resource)
            if party is None:
                continue
            window = fault_plan.paused_at(party, task.start + _EPS)
            if window is not None:
                findings.append(
                    _finding(
                        "SCH005",
                        label,
                        f"task {task.task_id} ({task.name!r}) starts at "
                        f"{task.start:.6f} inside party {party}'s pause "
                        f"window [{window.start:.6f}, {window.end:.6f})",
                    )
                )
    return findings


def iter_self_check_graphs(n_trees: int = 2):
    """Yield ``(label, fault_plan, task_graph)`` for every self-check run.

    One analytic trace, every protocol variant, fault-free and
    fault-injected — the one graph source of both the structural
    validator (:func:`validate_task_graph`) and the race detector
    (:func:`repro.analysis.races.detect_races`).  Imported lazily so the
    purely-static checkers stay import-light.
    """
    from repro.bench.costmodel import CostModel
    from repro.core.config import VF2BoostConfig
    from repro.core.profile import analytic_trace
    from repro.core.protocol import ProtocolScheduler
    from repro.fed.cluster import ClusterSpec
    from repro.fed.faults import FaultPlan, LaneSlowdown, PauseWindow

    trace = analytic_trace(
        n_instances=4096,
        features_active=16,
        features_passive=[16, 8],
        density=0.5,
        n_bins=16,
        n_layers=4,
        n_trees=n_trees,
    )
    paper = CostModel.paper()
    variants = {
        "vf2boost": (VF2BoostConfig.vf2boost(), paper),
        "vf_gbdt": (VF2BoostConfig.vf_gbdt(), paper),
        "vf_mock": (VF2BoostConfig.vf_gbdt(), paper.mocked()),
    }
    cluster = ClusterSpec()
    # Fault-injected variants must satisfy the same structural rules
    # *plus* SCH005 (no task starts inside its party's pause window).
    fault_plans = {
        "": None,
        "+faults": FaultPlan(
            seed=17,
            slowdowns=(LaneSlowdown("A1", 2.5),),
            pauses=(PauseWindow(party=1, start=0.5, end=1.5),),
        ),
    }
    for label, (config, cost) in variants.items():
        scheduler = ProtocolScheduler(config, cost, cluster)
        for suffix, plan in fault_plans.items():
            result = scheduler.schedule(trace, collect_tasks=True, fault_plan=plan)
            for tree_index, graph in enumerate(result.task_graphs):
                yield f"{label}{suffix}:tree{tree_index}", plan, graph
