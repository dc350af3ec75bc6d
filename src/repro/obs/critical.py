"""Critical-path extraction and makespan attribution for task graphs.

The paper's end-to-end numbers are governed by the *critical path*
through the overlapped schedule (Figures 4–6), not by any single op
count: shaving an op that only ever runs in slack time buys nothing.
This module walks a recorded :class:`~repro.fed.simtime.SimEngine` task
graph backwards from the finishing task and recovers

* the exact chain of tasks (and scheduler-imposed waits) whose
  durations *telescope bit-exactly* to the engine's makespan,
* per-task **slack** — how much a task could grow before the makespan
  moves — computed with the same float arithmetic the scheduler used,
  so on-path tasks get a slack of exactly ``0.0``, and
* a makespan **attribution** keyed by ``(resource, lane, phase, op)``,
  the decision input for the what-if explorer
  (:mod:`repro.obs.whatif`) and the ROADMAP's crypto-engine work.

Everything is duck-typed over ``SimTask``-shaped objects (``name`` /
``phase`` / ``resource`` / ``lane`` / ``start`` / ``end`` / ``task_id``
/ ``deps``), so the module imports nothing from the rest of the
package and works on graphs loaded back from ``export_graph()`` JSON.

Why a backward walk instead of longest-path over dependency edges: the
engine's lanes are FIFO, so a task can be delayed by the *previous
task on its lane* without any declared dependency edge.  The walk
therefore considers both edge kinds — a predecessor is either a
dependency or the lane predecessor — and whichever one *released* the
task (finished exactly at its start) is the binding constraint.  When
nothing released it (a ``not_before`` bound or a fault-injected pause
window set the start), the gap becomes an explicit ``wait`` segment so
the path stays contiguous and the bit-exact invariant survives fault
injection.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

__all__ = [
    "CriticalPath",
    "PathSegment",
    "compute_slack",
    "critical_gantt",
    "critical_path",
    "critical_path_section",
    "op_of",
]

#: leading alphabetic stem of a task name — the "op" attribution key
#: (matches the stems ``repro.core.protocol.declared_effects`` parses:
#: enc, gh, hist, merge, findB, opt, agg, pack, histcomm, findA, ...)
_OP_RE = re.compile(r"^[A-Za-z]+")

#: op/phase labels of synthesized wait segments (never a task name)
WAIT = "(wait)"


def op_of(name: str) -> str:
    """Attribution stem of a task name (``"enc2.0[3]"`` -> ``"enc"``)."""
    match = _OP_RE.match(name or "")
    return match.group(0) if match else "(anon)"


@dataclass(frozen=True)
class PathSegment:
    """One contiguous piece of the critical path.

    Attributes:
        kind: ``"task"`` (a scheduled task bound the makespan here) or
            ``"wait"`` (the path was stalled by a ``not_before`` bound
            or a fault-injected pause — nothing was running).
        name: task name, or ``"(wait)"``.
        phase: task phase tag, or ``"(wait)"``.
        resource: resource the segment occupied (for waits: the
            resource of the task that was waiting).
        lane: lane index within the resource.
        start: segment start, simulated seconds.
        end: segment end, simulated seconds.
        task_id: the task's engine id; ``-1`` for waits.
        op: attribution stem (:func:`op_of`), ``"(wait)"`` for waits.
    """

    kind: str
    name: str
    phase: str
    resource: str
    lane: int
    start: float
    end: float
    task_id: int = -1
    op: str = ""

    @property
    def duration(self) -> float:
        """Segment length in simulated seconds."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready representation (RunReport ``critical_path``)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "phase": self.phase,
            "resource": self.resource,
            "lane": self.lane,
            "start": self.start,
            "end": self.end,
            "task_id": self.task_id,
            "op": self.op,
        }


@dataclass
class CriticalPath:
    """The extracted path plus the makespan it must account for.

    The headline invariant: :attr:`total` equals :attr:`makespan`
    *bit-exactly*.  The total is computed by telescoping (last end
    minus first start) rather than summing durations, because float
    summation of ``end - start`` differences is not associative; the
    telescoped form is exact as long as the segments are contiguous,
    which :meth:`self_check` verifies bit-by-bit.
    """

    segments: list[PathSegment]
    makespan: float

    @property
    def total(self) -> float:
        """Path length in seconds; bit-equal to :attr:`makespan`."""
        if not self.segments:
            return 0.0
        return self.segments[-1].end - self.segments[0].start

    @property
    def task_ids(self) -> set[int]:
        """Engine ids of on-path tasks (waits excluded)."""
        return {s.task_id for s in self.segments if s.kind == "task"}

    @property
    def wait_seconds(self) -> float:
        """Total stalled time along the path."""
        return sum(s.duration for s in self.segments if s.kind == "wait")

    def self_check(self) -> None:
        """Assert the bit-exact contiguity invariant.

        Raises:
            ValueError: when the path does not start at 0.0, has a
                non-contiguous joint, or does not end at the makespan.
        """
        if not self.segments:
            if self.makespan != 0.0:
                raise ValueError(
                    f"empty path cannot cover makespan {self.makespan!r}"
                )
            return
        if self.segments[0].start != 0.0:
            raise ValueError(
                f"path starts at {self.segments[0].start!r}, not 0.0"
            )
        for prev, here in zip(self.segments, self.segments[1:]):
            if prev.end != here.start:
                raise ValueError(
                    f"path gap: {prev.name!r} ends at {prev.end!r} but "
                    f"{here.name!r} starts at {here.start!r}"
                )
        if self.segments[-1].end != self.makespan:
            raise ValueError(
                f"path ends at {self.segments[-1].end!r}, "
                f"makespan is {self.makespan!r}"
            )

    def attribution(self) -> list[dict]:
        """Makespan attribution rows, largest contribution first.

        Each row: ``{resource, lane, phase, op, seconds, share}`` with
        ``share`` relative to the path total.  Wait segments appear
        under op/phase ``"(wait)"`` so stalled time is never silently
        folded into a real op.
        """
        buckets: dict[tuple[str, int, str, str], float] = {}
        for segment in self.segments:
            key = (segment.resource, segment.lane, segment.phase, segment.op)
            buckets[key] = buckets.get(key, 0.0) + segment.duration
        total = self.total
        rows = [
            {
                "resource": resource,
                "lane": lane,
                "phase": phase,
                "op": op,
                "seconds": seconds,
                "share": seconds / total if total > 0 else 0.0,
            }
            for (resource, lane, phase, op), seconds in buckets.items()
        ]
        rows.sort(
            key=lambda r: (
                -r["seconds"], r["resource"], r["lane"], r["phase"], r["op"]
            )
        )
        return rows

    def by_resource(self) -> dict[str, float]:
        """Path seconds per resource, keys sorted (waits under the
        resource whose lane stalled)."""
        totals: dict[str, float] = {}
        for segment in self.segments:
            totals[segment.resource] = (
                totals.get(segment.resource, 0.0) + segment.duration
            )
        return dict(sorted(totals.items()))

    def bottleneck(self) -> str:
        """Resource holding the most path seconds (``""`` if empty)."""
        totals = self.by_resource()
        if not totals:
            return ""
        return max(totals.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "makespan": self.makespan,
            "total": self.total,
            "wait_seconds": self.wait_seconds,
            "bottleneck": self.bottleneck(),
            "segments": [s.to_dict() for s in self.segments],
            "attribution": self.attribution(),
        }


def _lane_predecessors(tasks: list) -> dict[int, object]:
    """task_id -> the previous task on the same (resource, lane).

    Lanes are FIFO in submission order, so walking the task list in
    ``task_id`` order recovers the implicit lane edges the engine never
    records as ``deps``.
    """
    ordered = sorted(tasks, key=lambda t: t.task_id)
    last: dict[tuple[str, int], object] = {}
    pred: dict[int, object] = {}
    for task in ordered:
        key = (task.resource, task.lane)
        if key in last:
            pred[task.task_id] = last[key]
        last[key] = task
    return pred


def _task_segment(task) -> PathSegment:
    return PathSegment(
        kind="task",
        name=task.name,
        phase=task.phase,
        resource=task.resource,
        lane=task.lane,
        start=task.start,
        end=task.end,
        task_id=task.task_id,
        op=op_of(task.name),
    )


def _wait_segment(task, start: float) -> PathSegment:
    return PathSegment(
        kind="wait",
        name=WAIT,
        phase=WAIT,
        resource=task.resource,
        lane=task.lane,
        start=start,
        end=task.start,
        op=WAIT,
    )


def critical_path(tasks: Iterable) -> CriticalPath:
    """Extract the critical path of a recorded task graph.

    Walks backwards from the task that finishes last.  At each step the
    binding predecessor is the dependency or lane predecessor that
    finished exactly at the current task's start (ties broken by
    latest end, then smallest ``task_id`` — deterministic for a given
    graph).  When no candidate released the task, the gap down to the
    latest candidate end (or 0.0) becomes an explicit wait segment.

    Returns:
        A :class:`CriticalPath` whose :meth:`~CriticalPath.self_check`
        invariant holds by construction.
    """
    tasks = list(tasks)
    if not tasks:
        return CriticalPath(segments=[], makespan=0.0)
    by_id = {task.task_id: task for task in tasks}
    lane_pred = _lane_predecessors(tasks)
    makespan = max(task.end for task in tasks)

    current = min(
        (task for task in tasks if task.end == makespan),
        key=lambda t: t.task_id,
    )
    segments = [_task_segment(current)]
    while current.start > 0.0:
        candidates = [by_id[d] for d in current.deps if d in by_id]
        if current.task_id in lane_pred:
            candidates.append(lane_pred[current.task_id])
        releasing = [c for c in candidates if c.end == current.start]
        if releasing:
            current = min(releasing, key=lambda c: (-c.end, c.task_id))
        else:
            # A not_before bound or fault pause set this start: record
            # the stall explicitly, then resume from the candidate that
            # finished last (the tightest real constraint below it).
            anchor = max((c.end for c in candidates), default=0.0)
            segments.append(_wait_segment(current, anchor))
            if not candidates:
                break
            current = min(candidates, key=lambda c: (-c.end, c.task_id))
        segments.append(_task_segment(current))
    segments.reverse()
    return CriticalPath(segments=segments, makespan=makespan)


def compute_slack(tasks: Iterable) -> dict[int, float]:
    """Per-task slack: seconds a task may grow before the makespan does.

    A backward pass over both edge kinds (dependencies and lane FIFO
    order).  The bound through a successor ``s`` is computed as
    ``s.start + (latest_end(s) - s.end)`` — the same two floats the
    scheduler subtracted — so a task on the critical path comes out
    with a slack of exactly ``0.0``, not merely a small number.
    """
    tasks = sorted(tasks, key=lambda t: t.task_id)
    if not tasks:
        return {}
    by_id = {task.task_id: task for task in tasks}
    makespan = max(task.end for task in tasks)
    successors: dict[int, list] = {task.task_id: [] for task in tasks}
    for task in tasks:
        for dep in task.deps:
            if dep in successors:
                successors[dep].append(task)
    for task_id, pred in _lane_predecessors(tasks).items():
        successors[pred.task_id].append(by_id[task_id])

    latest_end: dict[int, float] = {}
    # deps and lane edges both point from lower to higher task_id, so
    # reverse submission order is a reverse-topological order.
    for task in reversed(tasks):
        bound = makespan
        for succ in successors[task.task_id]:
            through = succ.start + (latest_end[succ.task_id] - succ.end)
            if through < bound:
                bound = through
        latest_end[task.task_id] = bound
    return {task.task_id: latest_end[task.task_id] - task.end for task in tasks}


def critical_gantt(tasks: Iterable, width: int = 72) -> str:
    """ASCII Gantt chart with the critical path overlaid.

    :func:`repro.fed.simtime.gantt_chart` with on-path tasks UPPERCASE,
    off-path tasks lowercase, and path waits as ``*`` on the stalled
    lane — so the chain that owns the makespan is visible at a glance.
    """
    from repro.fed.simtime import gantt_chart

    tasks = list(tasks)
    path = critical_path(tasks)
    waits = [s for s in path.segments if s.kind == "wait" and s.duration > 0]
    return gantt_chart(
        tasks,
        width,
        on_path=path.task_ids,
        waits=waits,
        footer=(
            "critical path UPPERCASE, waits *; "
            f"path = {path.total:.2f}s over {len(path.task_ids)} tasks"
        ),
    )


def critical_path_section(
    task_graphs: Iterable[Iterable],
    per_tree: Iterable[float] | None = None,
) -> dict:
    """RunReport v4 ``critical_path`` section for a multi-tree run.

    Trees run serialized (``ScheduleResult.makespan`` is the sum of
    per-tree makespans), so the run's critical path is the per-tree
    paths laid end-to-end; the run ``total`` is the left-to-right sum
    of per-tree telescoped totals — the same reduction ``schedule()``
    applies to per-tree makespans, so the bit-exact invariant lifts to
    the whole run.

    Args:
        task_graphs: per-tree task lists (``ScheduleResult.task_graphs``).
        per_tree: per-tree makespans; defaults to each graph's own.

    Returns:
        ``{}`` when there are no graphs; otherwise a dict with
        ``makespan``/``total``/``wait_seconds``, per-tree summaries
        (tree-local segments plus their global ``offset``), the merged
        attribution, the bottleneck resource and a slack summary.
    """
    graphs = [list(graph) for graph in task_graphs]
    if not graphs:
        return {}
    spans = list(per_tree) if per_tree is not None else None

    trees = []
    attribution: dict[tuple[str, int, str, str], float] = {}
    resource_seconds: dict[str, float] = {}
    zero_slack = 0
    max_slack = 0.0
    offset = 0.0
    total = 0.0
    makespan = 0.0
    for index, graph in enumerate(graphs):
        path = critical_path(graph)
        path.self_check()
        slack = compute_slack(graph)
        zero_slack += sum(1 for value in slack.values() if value == 0.0)
        if slack:
            max_slack = max(max_slack, max(slack.values()))
        trees.append(
            {
                "tree": index,
                "offset": offset,
                "makespan": path.makespan,
                "total": path.total,
                "wait_seconds": path.wait_seconds,
                "tasks_on_path": len(path.task_ids),
                "segments": [s.to_dict() for s in path.segments],
            }
        )
        for row in path.attribution():
            key = (row["resource"], row["lane"], row["phase"], row["op"])
            attribution[key] = attribution.get(key, 0.0) + row["seconds"]
        for name, seconds in path.by_resource().items():
            resource_seconds[name] = resource_seconds.get(name, 0.0) + seconds
        tree_span = spans[index] if spans is not None else path.makespan
        offset += tree_span
        makespan += tree_span
        total += path.total
    run_total = total if total > 0 else 0.0
    rows = [
        {
            "resource": resource,
            "lane": lane,
            "phase": phase,
            "op": op,
            "seconds": seconds,
            "share": seconds / run_total if run_total > 0 else 0.0,
        }
        for (resource, lane, phase, op), seconds in attribution.items()
    ]
    rows.sort(
        key=lambda r: (
            -r["seconds"], r["resource"], r["lane"], r["phase"], r["op"]
        )
    )
    bottleneck = ""
    if resource_seconds:
        bottleneck = max(
            resource_seconds.items(), key=lambda kv: (kv[1], kv[0])
        )[0]
    return {
        "makespan": makespan,
        "total": total,
        "wait_seconds": sum(tree["wait_seconds"] for tree in trees),
        "bottleneck": bottleneck,
        "by_resource": dict(sorted(resource_seconds.items())),
        "attribution": rows,
        "slack": {"zero_slack_tasks": zero_slack, "max_slack": max_slack},
        "trees": trees,
    }


def tasks_from_graph(data: Mapping) -> list:
    """Rebuild duck-typed tasks from ``SimEngine.export_graph()`` JSON.

    Returns lightweight records (not :class:`SimTask`) carrying the
    attributes every function in this module reads, so a graph exported
    on one host can be analyzed anywhere without importing the engine.
    """

    @dataclass(frozen=True)
    class _Task:
        name: str
        phase: str
        resource: str
        lane: int
        start: float
        end: float
        task_id: int
        deps: tuple
        party: object = None

    return [
        _Task(
            name=item["name"],
            phase=item["phase"],
            resource=item["resource"],
            lane=int(item["lane"]),
            start=float(item["start"]),
            end=float(item["end"]),
            task_id=int(item["task_id"]),
            deps=tuple(item.get("deps", ())),
            party=item.get("party"),
        )
        for item in data["tasks"]
    ]
