"""Schedule race detector (rules ``SCH101``-``SCH103``).

The structural validator (:mod:`repro.analysis.schedule`) proves a task
graph is *well-formed*; this pass proves it is *race-free*.  Every task
the :class:`~repro.core.protocol.ProtocolScheduler` submits declares
the shared state it touches — histogram buffers, channel sequence
counters, placement bitmaps — as the ``reads`` / ``writes`` location
sets it hands :meth:`~repro.fed.simtime.SimEngine.submit`; a
``--graph`` JSON task lists the same two fields.  The detector joins
those footprints with the schedule's happens-before relation and
reports any unordered overlap:

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
task-id-ordered DAG — O(V·E/64) and exact.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.findings import Finding, Severity

__all__ = ["detect_races"]

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
    plus same-lane FIFO successors.  Dependency ids that are dangling or
    non-causal (>= the dependent's id) are ignored here — the structural
    validator reports those separately.
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
