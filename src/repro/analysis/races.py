"""Schedule race detector (rules ``SCH101``-``SCH103``).

A task graph is *well-formed* by construction:
:meth:`~repro.fed.simtime.SimEngine.submit` accepts only its own earlier
tasks as dependencies and starts a task no earlier than its
dependencies' ends and its lane's ``free_at``, and
:class:`~repro.fed.simtime.FaultyEngine` pushes every start past its
party's pause windows.  This pass proves a graph is *race-free*.  Every
task the :class:`~repro.core.protocol.ProtocolScheduler` submits
declares the shared state it touches — histogram buffers, channel
sequence counters, placement bitmaps — as the ``reads`` / ``writes``
location sets it hands :meth:`~repro.fed.simtime.SimEngine.submit`.
The detector joins those footprints with the schedule's happens-before
relation and reports any unordered overlap:

* **SCH101** — two tasks *write* the same location with no
  happens-before path between them (nondeterministic final state);
* **SCH102** — a read and a write of the same location with no
  happens-before path (the read observes a nondeterministic snapshot);
* **SCH103** — a task that performs real work (duration > 0) but
  declares no footprint at all (warning: races through that task
  would be invisible).

Happens-before is the union of two edge families, both sound for the
greedy list scheduler in :mod:`repro.fed.simtime`:

* dependency edges (``task.deps``), and
* per-``(resource, lane)`` FIFO edges — a lane executes its tasks
  serially in submission order, so program order on a lane *is* an
  ordering (``Resource.reserve`` only ever pushes ``free_at`` forward).

Why this matters: the paper's pipelining (§4) is exactly the freedom to
run histogram sub-tasks concurrently across lanes, and the ROADMAP's
parallel crypto "blaster lanes" widen that freedom.  A refactor that
drops a dependency edge would today still produce *a* makespan; with
this pass it produces a finding.

Reachability is computed with per-task integer bitmasks over the
task-id-ordered DAG — O(V·E/64) and exact.  :func:`iter_self_check_graphs`
yields the scheduler's own graphs the analyzer checks.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.findings import Finding, Severity

__all__ = ["detect_races", "iter_self_check_graphs"]

#: duration below which a task is an ordering anchor, not work
_EPS = 1e-9

checker_name = "races"


def _finding(rule: str, label: str, message: str, severity: str = Severity.ERROR):
    return Finding(
        rule_id=rule,
        severity=severity,
        file=f"<schedule:{label}>",
        line=0,
        message=message,
        checker=checker_name,
    )


def _happens_before(tasks: Sequence) -> tuple[list, dict[int, int], dict[int, int]]:
    """``(order, bit_of, masks)``: the tasks in task-id order, each id's
    bit position in that order, and each id's reachability bitmask over
    the happens-before DAG.

    Bit ``j`` of ``masks[i]`` is set iff the task at position ``j``
    happens-before (or is) task ``i``.  Edges: declared dependencies
    plus same-lane FIFO successors.  A dependency id that is not an
    earlier task of the graph adds no edge; the engine never emits one
    (:meth:`~repro.fed.simtime.SimEngine.submit` refuses it), and a
    hand-built graph in a test may.
    """
    order = sorted(tasks, key=lambda t: t.task_id)
    bit_of = {task.task_id: i for i, task in enumerate(order)}
    lane_prev: dict[tuple[str, int], int] = {}
    masks: dict[int, int] = {}
    for i, task in enumerate(order):
        mask = 1 << i
        for dep_id in task.deps:
            dep_bit = bit_of.get(dep_id)
            if dep_bit is not None and dep_bit < i:
                mask |= masks[order[dep_bit].task_id]
        lane_key = (task.resource, task.lane)
        prev_bit = lane_prev.get(lane_key)
        if prev_bit is not None:
            mask |= masks[order[prev_bit].task_id]
        lane_prev[lane_key] = i
        masks[task.task_id] = mask
    return order, bit_of, masks


def detect_races(tasks: Sequence, label: str = "graph") -> list[Finding]:
    """Happens-before check of one task graph; returns findings.

    Args:
        tasks: ``SimTask``-shaped objects (``task_id``, ``deps``,
            ``resource``, ``lane``, ``name``, ``start``, ``end``,
            ``reads``, ``writes``); a task whose ``reads`` and
            ``writes`` are both ``None`` declared no footprint.
        label: run label embedded in findings.
    """
    findings: list[Finding] = []
    order, bit_of, masks = _happens_before(tasks)

    readers: dict[str, list] = {}
    writers: dict[str, list] = {}
    for task in order:
        if task.reads is None and task.writes is None:
            if task.end - task.start > _EPS:
                findings.append(
                    _finding(
                        "SCH103",
                        label,
                        f"task {task.task_id} ({task.name!r}) performs work "
                        "but declares no read/write footprint; declare its "
                        "reads and writes so races through it stay visible",
                        severity=Severity.WARNING,
                    )
                )
            continue
        for loc in task.reads or ():
            readers.setdefault(loc, []).append(task)
        for loc in task.writes or ():
            writers.setdefault(loc, []).append(task)

    def ordered(a, b) -> bool:
        return bool(masks[b.task_id] >> bit_of[a.task_id] & 1) or bool(
            masks[a.task_id] >> bit_of[b.task_id] & 1
        )

    for loc in sorted(writers):
        ws = writers[loc]
        for i, a in enumerate(ws):
            for b in ws[i + 1 :]:
                if not ordered(a, b):
                    findings.append(
                        _finding(
                            "SCH101",
                            label,
                            f"unordered write/write on {loc!r}: tasks "
                            f"{a.task_id} ({a.name!r} on {a.resource}) and "
                            f"{b.task_id} ({b.name!r} on {b.resource}) have "
                            "no happens-before path",
                        )
                    )
            for r in readers.get(loc, ()):
                if r.task_id == a.task_id:
                    continue  # a task may read and write one location
                if not ordered(a, r):
                    findings.append(
                        _finding(
                            "SCH102",
                            label,
                            f"unordered read/write on {loc!r}: write "
                            f"{a.task_id} ({a.name!r} on {a.resource}) vs "
                            f"read {r.task_id} ({r.name!r} on {r.resource}) "
                            "with no happens-before path",
                        )
                    )
    return findings


def iter_self_check_graphs(n_trees: int = 2):
    """Yield ``(label, fault_plan, task_graph)`` for every self-check run.

    One analytic trace, every protocol variant, fault-free and
    fault-injected — the graphs :func:`detect_races` checks on every
    ``python -m repro.analysis`` run.  The scheduler is imported lazily
    so the purely-static checkers stay import-light.
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
    # Fault-injected variants: a straggler lane and a pause window move
    # starts and ends, which must leave the happens-before order intact.
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
