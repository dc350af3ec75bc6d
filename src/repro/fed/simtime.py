"""Deterministic discrete-event scheduling of federated protocols.

The paper's speedups come from *overlap structure*: which phases of the
two parties and the public channel may execute concurrently (Gantt
charts, Figures 4-6).  We reproduce that with a classic list-scheduling
simulator: every phase becomes a :class:`SimTask` bound to a
:class:`Resource` (a compute lane of a party, or a channel direction),
and the engine assigns it the earliest start satisfying

* the resource is free (lanes process one task at a time, FIFO), and
* all dependency tasks have finished.

Submitting tasks in program order — which the protocol schedulers in
:mod:`repro.core.protocol` naturally do — yields the same makespan a
real asynchronous execution with these durations would achieve.

The engine is exact, repeatable, and independent of wall-clock time,
which is what lets a single CPU reproduce two data centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SimTask", "Resource", "SimEngine", "gantt_chart"]


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
        task_id: position in the engine's submission order; the node id
            the schedule-graph validator keys on.
        deps: ``task_id`` of every dependency this task waited for.
        party: passive-party index whose state the task touches (``None``
            for party-agnostic work); disambiguates the declared
            read/write footprints the race detector keys on — two
            ``gh[0]`` comm tasks on the shared WAN lane write different
            parties' buffers.
    """

    name: str
    phase: str
    resource: str
    lane: int
    start: float
    end: float
    task_id: int = -1
    deps: tuple[int, ...] = ()
    party: int | None = None

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
        not_before: float = 0.0,
        party: int | None = None,
    ) -> SimTask:
        """Schedule one task and return it.

        Args:
            resource_name: resource that will execute the task.
            duration: simulated seconds of work (>= 0).
            deps: tasks that must finish first.
            name: label for Gantt output (defaults to the phase).
            phase: phase tag for breakdowns.
            not_before: additional absolute lower bound on start time.
            party: passive-party index the task's footprint belongs to.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        duration = self._adjust_duration(resource_name, duration)
        resource = self.resource(resource_name)
        ready = not_before
        for dep in deps or ():
            if dep.end > ready:
                ready = dep.end
        lane = resource.earliest_lane()
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
            task_id=len(self.tasks),
            deps=tuple(dep.task_id for dep in deps or ()),
            party=party,
        )
        self.tasks.append(task)
        return task

    # Perturbation hooks — no-ops here; FaultyEngine (repro.fed.faults)
    # overrides them to model stragglers and party pause windows.
    def _adjust_duration(self, resource_name: str, duration: float) -> float:
        return duration

    def _adjust_start(self, resource_name: str, start: float) -> float:
        return start

    def submit_parallel(
        self,
        resource_name: str,
        total_work: float,
        chunks: int,
        deps: list[SimTask] | None = None,
        name: str = "",
        phase: str = "",
    ) -> list[SimTask]:
        """Split a divisible workload over a resource's lanes.

        The work is cut into ``chunks`` equal tasks submitted back to
        back; with ``chunks >= lanes`` the resource saturates and the
        batch finishes in roughly ``total_work / lanes``.
        """
        if chunks < 1:
            raise ValueError("chunks must be >= 1")
        piece = total_work / chunks
        return [
            self.submit(
                resource_name,
                piece,
                deps=deps,
                name=f"{name or phase}[{k}]",
                phase=phase,
            )
            for k in range(chunks)
        ]

    @property
    def makespan(self) -> float:
        """Finish time of the last task."""
        return max((task.end for task in self.tasks), default=0.0)

    def export_graph(self) -> dict:
        """JSON-ready snapshot of the full schedule.

        Carries everything :func:`SimEngine.from_graph` (and the
        critical-path analyzer in :mod:`repro.obs.critical`) needs to
        rebuild the schedule exactly: declared lane counts, every task
        with its dependency edges, and the makespan.
        """
        return {
            "resources": {
                name: resource.lanes
                for name, resource in sorted(self.resources.items())
            },
            "tasks": [
                {
                    "name": task.name,
                    "phase": task.phase,
                    "resource": task.resource,
                    "lane": task.lane,
                    "start": task.start,
                    "end": task.end,
                    "task_id": task.task_id,
                    "deps": list(task.deps),
                    "party": task.party,
                }
                for task in self.tasks
            ],
            "makespan": self.makespan,
        }

    @classmethod
    def from_tasks(
        cls, tasks: list[SimTask], lanes: dict[str, int] | None = None
    ) -> "SimEngine":
        """Rebuild an engine around already-scheduled tasks.

        The timing fields are trusted as recorded (nothing is
        re-scheduled); resources are reconstructed with enough lanes
        for every task (or the declared ``lanes`` counts) and their
        busy/free accounting replayed, so ``utilization()``,
        ``phase_breakdown()`` and ``gantt()`` work on a loaded graph
        exactly as on the engine that produced it.
        """
        engine = cls()
        for name, count in sorted((lanes or {}).items()):
            engine.add_resource(name, count)
        for task in sorted(tasks, key=lambda t: t.task_id):
            needed = task.lane + 1
            resource = engine.resource(task.resource)
            while resource.lanes < needed:
                resource._free_at.append(0.0)
            resource._free_at[task.lane] = max(
                resource._free_at[task.lane], task.end
            )
            resource.busy_time += task.duration
            engine.tasks.append(task)
        return engine

    @classmethod
    def from_graph(cls, data: dict) -> "SimEngine":
        """Inverse of :meth:`export_graph`."""
        tasks = [
            SimTask(
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
            for item in data.get("tasks", [])
        ]
        lanes = {
            name: int(count)
            for name, count in data.get("resources", {}).items()
        }
        return cls.from_tasks(tasks, lanes=lanes)

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

    def utilizations(self) -> dict[str, float]:
        """Busy fraction of every resource, keys sorted."""
        return {name: self.utilization(name) for name in sorted(self.resources)}

    def lane_utilization(self) -> dict[tuple[str, int], float]:
        """Busy fraction per (resource, lane), recomputed from tasks.

        Finer-grained than :meth:`utilization` (which aggregates a
        resource's lanes): the per-lane view is what ``repro trace
        --summary`` prints and what exposes pipeline bubbles inside a
        multi-lane compute pool.
        """
        horizon = self.makespan
        busy: dict[tuple[str, int], float] = {
            (name, lane): 0.0
            for name, resource in self.resources.items()
            for lane in range(resource.lanes)
        }
        for task in self.tasks:
            key = (task.resource, task.lane)
            busy[key] = busy.get(key, 0.0) + task.duration
        if horizon <= 0:
            return {key: 0.0 for key in sorted(busy)}
        return {key: busy[key] / horizon for key in sorted(busy)}

    def critical_path(self):
        """Critical path of this schedule (:mod:`repro.obs.critical`).

        The returned object's ``total`` is bit-equal to
        :attr:`makespan`; see ``CriticalPath.self_check``.
        """
        from repro.obs.critical import critical_path

        return critical_path(self.tasks)

    def slack(self) -> dict[int, float]:
        """Per-task slack seconds keyed by ``task_id`` (0.0 = critical)."""
        from repro.obs.critical import compute_slack

        return compute_slack(self.tasks)

    def gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart of all tasks (:func:`gantt_chart`)."""
        return gantt_chart(self.tasks, width)


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
