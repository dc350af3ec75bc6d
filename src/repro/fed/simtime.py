"""Deterministic discrete-event scheduling of federated protocols.

The paper's speedups come from *overlap structure*: which phases of the
two parties and the public channel may execute concurrently (Gantt
charts, Figures 4-6).  We reproduce that with a classic list-scheduling
simulator: every phase becomes a :class:`SimTask` bound to a
:class:`Resource` (a compute lane of a party, or a channel direction),
and the engine assigns it the earliest start satisfying

* the resource is free (lanes process one task at a time, FIFO), and
* all dependency tasks have finished.

That start rule is what makes every schedule well-formed: a dependency
must be a task this engine already placed (:meth:`SimEngine.submit`
refuses any other), so the dependency graph has no cycle and no
dangling edge, no task starts before a dependency ends, and no two
tasks overlap on one lane.

Every schedule is race-free as well.  A task declares the shared state
it touches (histogram buffers, channel sequence counters, placement
bitmaps) as ``reads`` / ``writes`` location sets, and
:meth:`SimEngine.submit` refuses a task whose write is not ordered
after the location's earlier writes and reads, or whose read is not
ordered after its earlier writes.  *Ordered* means a happens-before
path, whose edges are the declared dependencies and the FIFO order of
one ``(resource, lane)`` (a lane runs its tasks serially in submission
order).  The paper's pipelining (§4) is exactly the freedom to run
histogram sub-tasks concurrently across lanes; a refactor that drops a
dependency edge fails at the submit that loses the ordering instead of
producing a plausible makespan.  No validator re-checks a graph
afterwards.

Submitting tasks in program order — which the protocol schedulers in
:mod:`repro.core.protocol` naturally do — yields the same makespan a
real asynchronous execution with these durations would achieve.

The engine is exact, repeatable, and independent of wall-clock time,
which is what lets a single CPU reproduce two data centers.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.fed.faults import FaultPlan

__all__ = [
    "SimTask",
    "Resource",
    "SimEngine",
    "FaultyEngine",
    "party_of_resource",
    "gantt_chart",
]


@dataclass
class SimTask:
    """One scheduled unit of work.

    Attributes:
        name: human-readable label (appears in Gantt output).
        phase: phase tag used by breakdown reports (e.g. ``"BuildHistA"``).
        resource: name of the resource that executed the task.
        lane: lane index within the resource.
        start: simulated start time (seconds).
        end: simulated end time (seconds).
        task_id: position in the engine's submission order.
        deps: ``task_id`` of every dependency this task waited for; each
            is an earlier task of the same engine, which
            :meth:`SimEngine.submit` enforces, and this task starts no
            earlier than each of them ends.
        reads: shared-state locations the task reads, declared at
            submit and ordered there against the location's writes.
        writes: locations the task writes; ``None`` in both fields means
            the task declared no footprint.
    """

    name: str
    phase: str
    resource: str
    lane: int
    start: float
    end: float
    task_id: int = -1
    deps: tuple[int, ...] = ()
    reads: frozenset[str] | None = None
    writes: frozenset[str] | None = None

    @property
    def duration(self) -> float:
        """Task length in simulated seconds."""
        return self.end - self.start


class Resource:
    """A named resource with one or more parallel lanes.

    A party's compute pool is a resource with ``lanes = workers * cores``
    (or a coarser equivalent); a channel direction is a single-lane
    resource whose task durations encode bandwidth and latency.
    """

    def __init__(self, name: str, lanes: int = 1) -> None:
        if lanes < 1:
            raise ValueError("a resource needs at least one lane")
        self.name = name
        self._free_at = [0.0] * lanes
        self.busy_time = 0.0

    @property
    def lanes(self) -> int:
        """Number of parallel lanes."""
        return len(self._free_at)

    def earliest_lane(self) -> int:
        """Lane index that frees up first."""
        return min(range(self.lanes), key=lambda k: self._free_at[k])

    def reserve(self, lane: int, start: float, duration: float) -> float:
        """Occupy a lane from ``start``; returns the end time."""
        end = start + duration
        self._free_at[lane] = end
        self.busy_time += duration
        return end

    def free_at(self, lane: int) -> float:
        """When a lane next becomes free."""
        return self._free_at[lane]


class SimEngine:
    """Greedy list scheduler over named resources.

    Example:
        >>> engine = SimEngine()
        >>> engine.add_resource("B.compute", lanes=4)
        >>> enc = engine.submit("B.compute", 1.0, name="enc", phase="Enc")
        >>> comm = engine.submit("chan", 0.5, deps=[enc], phase="Comm")
    """

    def __init__(self) -> None:
        self.resources: dict[str, Resource] = {}
        self.tasks: list[SimTask] = []
        # Happens-before state of the race guard: each task's ancestors
        # as a bitmask (bit i = task i, itself included), the last task
        # of each (resource, lane), and per location the last writer and
        # the readers since it.
        self._ancestors: list[int] = []
        self._lane_last: dict[tuple[str, int], int] = {}
        self._last_write: dict[str, int] = {}
        self._reads_since: dict[str, list[int]] = {}

    def add_resource(self, name: str, lanes: int = 1) -> Resource:
        """Register a resource; re-registering an existing name fails."""
        if name in self.resources:
            raise ValueError(f"resource {name!r} already exists")
        resource = Resource(name, lanes)
        self.resources[name] = resource
        return resource

    def resource(self, name: str) -> Resource:
        """Look up a resource, creating a single-lane one on first use."""
        if name not in self.resources:
            self.resources[name] = Resource(name)
        return self.resources[name]

    def submit(
        self,
        resource_name: str,
        duration: float,
        deps: list[SimTask] | None = None,
        name: str = "",
        phase: str = "",
        reads: Iterable[str] | None = None,
        writes: Iterable[str] | None = None,
    ) -> SimTask:
        """Schedule one task and return it.

        Args:
            resource_name: resource that will execute the task.
            duration: simulated seconds of work (>= 0).
            deps: tasks that must finish first, each returned by an
                earlier ``submit`` of this engine.
            name: label for Gantt output (defaults to the phase).
            phase: phase tag for breakdowns.
            reads: shared-state locations the task reads.
            writes: shared-state locations the task writes; leave both
                ``None`` for a task that declares no footprint.

        Raises:
            ValueError: ``duration`` is negative, a dependency is not a
                task of this engine, or the task writes a location
                without a happens-before path from its last writer and
                the readers since, or reads one without a path from its
                last writer.  Each earlier write is ordered before the
                last, so a refused task is exactly one that would form
                an unordered conflicting pair.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        for dep in deps or ():
            owned = 0 <= dep.task_id < len(self.tasks)
            if not (owned and self.tasks[dep.task_id] is dep):
                raise ValueError(
                    f"dependency {dep.name!r} is not a task of this engine"
                )
        duration = self._adjust_duration(resource_name, duration)
        resource = self.resource(resource_name)
        task_id = len(self.tasks)
        ready, ancestors = 0.0, 1 << task_id
        for dep in deps or ():
            if dep.end > ready:
                ready = dep.end
            ancestors |= self._ancestors[dep.task_id]
        lane = resource.earliest_lane()
        lane_prev = self._lane_last.get((resource_name, lane))
        if lane_prev is not None:
            ancestors |= self._ancestors[lane_prev]
        reads = None if reads is None else frozenset(reads)
        writes = None if writes is None else frozenset(writes)
        race = self._unordered_access(ancestors, reads, writes)
        if race is not None:
            kind, loc, other = race
            prior = self.tasks[other]
            raise ValueError(
                f"unordered {kind} on {loc!r}: task {task_id} "
                f"({name or phase!r} on {resource_name}) has no "
                f"happens-before path from task {other} "
                f"({prior.name!r} on {prior.resource})"
            )

        start = max(ready, resource.free_at(lane))
        start = max(start, self._adjust_start(resource_name, start))
        end = resource.reserve(lane, start, duration)
        task = SimTask(
            name=name or phase,
            phase=phase,
            resource=resource_name,
            lane=lane,
            start=start,
            end=end,
            task_id=task_id,
            deps=tuple(dep.task_id for dep in deps or ()),
            reads=reads,
            writes=writes,
        )
        self.tasks.append(task)
        self._ancestors.append(ancestors)
        self._lane_last[(resource_name, lane)] = task_id
        for loc in writes or ():
            self._last_write[loc] = task_id
            self._reads_since[loc] = []
        for loc in reads or ():
            self._reads_since.setdefault(loc, []).append(task_id)
        return task

    def _unordered_access(
        self, ancestors: int, reads: frozenset | None, writes: frozenset | None
    ) -> tuple[str, str, int] | None:
        """``(kind, location, task id)`` of the first earlier access a
        task with these ancestors and footprint is not ordered after,
        or ``None``."""
        for loc in sorted(writes or ()):
            writer = self._last_write.get(loc)
            if writer is not None and not ancestors >> writer & 1:
                return "write/write", loc, writer
            for reader in self._reads_since.get(loc, ()):
                if not ancestors >> reader & 1:
                    return "read/write", loc, reader
        for loc in sorted(reads or ()):
            writer = self._last_write.get(loc)
            if writer is not None and not ancestors >> writer & 1:
                return "read/write", loc, writer
        return None

    # Perturbation hooks — no-ops here; FaultyEngine (below)
    # overrides them to model stragglers and party pause windows.
    def _adjust_duration(self, resource_name: str, duration: float) -> float:
        return duration

    def _adjust_start(self, resource_name: str, start: float) -> float:
        return start

    @property
    def makespan(self) -> float:
        """Finish time of the last task."""
        return max((task.end for task in self.tasks), default=0.0)

    def by_phase(self) -> dict[str, list[SimTask]]:
        """Tasks grouped by phase tag, in submission order per group.

        The single accessor the Chrome-trace exporter, the run-report
        builders and :mod:`repro.bench.report` consume, so no caller
        re-aggregates raw task lists.
        """
        groups: dict[str, list[SimTask]] = {}
        for task in self.tasks:
            groups.setdefault(task.phase, []).append(task)
        return groups

    def phase_breakdown(self) -> dict[str, float]:
        """Total busy seconds per phase tag (sums across lanes)."""
        return {
            phase: sum(task.duration for task in tasks)
            for phase, tasks in self.by_phase().items()
        }

    def utilization(self, resource_name: str) -> float:
        """Busy fraction of a resource over the makespan (0..lanes)."""
        resource = self.resources[resource_name]
        horizon = self.makespan
        if horizon <= 0:
            return 0.0
        return resource.busy_time / horizon

    def gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart of all tasks (:func:`gantt_chart`)."""
        return gantt_chart(self.tasks, width)


def party_of_resource(name: str) -> int | None:
    """Map an engine resource name to its owning party id.

    Repository convention: ``"B"`` / ``"B.dec"`` belong to the active
    party (id 0), ``"A<k>"`` to passive party ``k``; WAN resources
    belong to no party (``None``).
    """
    if name == "B" or name.startswith("B."):
        return 0
    if name.startswith("A"):
        digits = name[1:].split(".", 1)[0]
        if digits.isdigit():
            return int(digits)
    return None


class FaultyEngine(SimEngine):
    """A :class:`SimEngine` perturbed by a
    :class:`~repro.fed.faults.FaultPlan`.

    Straggler lanes stretch task durations; a party's pause windows
    push task *starts* past the window end (a paused party starts no
    new work — a task already running when the window opens completes,
    the coarse-grained semantics a tree-boundary checkpoint matches).
    :meth:`_adjust_start` iterates to a fixed point, so no task —
    zero-length anchors included — starts inside one of its party's
    windows; both perturbations only move a start or end later, so
    the base engine's dependency, lane and race guarantees still hold.
    """

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__()
        self.plan = plan

    def _adjust_duration(self, resource_name: str, duration: float) -> float:
        return duration * self.plan.slowdown_factor(resource_name)

    def _adjust_start(self, resource_name: str, start: float) -> float:
        party = party_of_resource(resource_name)
        if party is None:
            return start
        window = self.plan.paused_at(party, start)
        # Windows may chain; iterate to a fixed point.
        while window is not None:
            start = window.end
            window = self.plan.paused_at(party, start)
        return start


def gantt_chart(tasks, width: int = 72, on_path=None, waits=(), footer="") -> str:
    """Render tasks as an ASCII Gantt chart, one row per lane.

    Each task draws the initial of its phase over its time span.

    Args:
        tasks: the :class:`SimTask` list.
        width: chart columns.
        on_path: optional ``task_id`` collection (a critical path's);
            those tasks render UPPERCASE and all others lowercase.
        waits: wait segments (``resource`` / ``lane`` / ``start`` /
            ``end``) drawn as ``*`` where their lane is otherwise idle.
        footer: optional caption line under the time axis.
    """
    horizon = max((task.end for task in tasks), default=0.0)
    if horizon <= 0:
        return "(empty schedule)"
    rows: dict[tuple[str, int], list] = {}
    for task in tasks:
        rows.setdefault((task.resource, task.lane), []).append(task)
    label_width = max(len(f"{r}#{l}") for r, l in rows)

    def cell_range(start: float, end: float) -> range:
        lo = int(start / horizon * (width - 1))
        hi = max(lo + 1, int(end / horizon * (width - 1)) + 1)
        return range(lo, min(hi, width))

    lines = []
    for (resource, lane), row_tasks in sorted(rows.items()):
        cells = [" "] * width
        for task in row_tasks:
            symbol = (task.phase or task.name or "?")[0]
            if on_path is not None:
                symbol = symbol.upper() if task.task_id in on_path else symbol.lower()
            for k in cell_range(task.start, task.end):
                cells[k] = symbol
        for wait in waits:
            if (wait.resource, wait.lane) == (resource, lane):
                for k in cell_range(wait.start, wait.end):
                    if cells[k] == " ":
                        cells[k] = "*"
        label = f"{resource}#{lane}".ljust(label_width)
        lines.append(f"{label} |{''.join(cells)}|")
    lines.append(f"{'':{label_width}}  0{'.' * (width - 8)}{horizon:8.2f}s")
    if footer:
        lines.append(f"{'':{label_width}}  {footer}")
    return "\n".join(lines)
