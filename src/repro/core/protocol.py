"""Protocol scheduling: workload traces -> simulated federated time.

This module turns a :class:`~repro.core.trace.TraceLog` (from a real
training run or an analytic profile) into a discrete-event schedule
under a :class:`~repro.bench.costmodel.CostModel` and a
:class:`~repro.fed.cluster.ClusterSpec`.  The four §4/§5 optimizations
change only the *task graph*:

* **blaster encryption** pipelines Enc / CipherComm / BuildHistA of the
  root in batches (Figure 4 bottom);
* **re-ordered accumulation** changes the per-addend cost from
  ``T_HADD + (E-1)/E * T_SCALE`` to ``T_HADD`` plus ``E-1`` scalings
  per bin (§5.1) — on the two-cipher path only: with histogram packing
  every cipher shares one exponent and nothing is ever scaled;
* **optimistic node-splitting** lets Party B split ahead on its own
  candidates so FindSplitA(l) overlaps BuildHistA(l+1); children of
  dirty nodes are re-done after the validation notice while *clean*
  children stream ahead — the paper's sub-task slicing (Figure 6) is
  modeled as a clean/dirty two-part flow per layer;
* **histogram packing** puts ``(g, h)`` in one cipher per instance
  (half the Enc, gradient bytes and BuildHistA additions) and divides
  the A->B histogram bytes and the decryption count by the pack width
  ``t = (S - 3) // stride`` of
  :class:`~repro.crypto.packing.GradHessLayout` (a slot is as wide as
  its two sums and a cipher is filled with them, nothing held back) at
  an ``O(bins * (T_HADD + T_SMUL))`` packing cost on Party A (§5.2).
  Party A handles ``s - 1`` bins per feature there (B owns the last
  prefix sum, the node total): a node ships
  ``layout.packs_per_node(D, s)`` ciphers, packing costs ``slots -
  packs`` HAdd + SMul over ``slots = D(s-1)`` plus ``D(s-2)`` prefix
  adds, and BuildHistA adds ``(s-1)/s`` of its addends — bins are
  quantile bins, so the last one holds ``1/s`` of the instances.

Party compute pools are modeled as one lane whose task durations are
``work / effective_lanes`` — exact for the divisible crypto workloads
involved — so resource utilization maps directly onto the paper's CPU
utilization metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bench.costmodel import CostModel
from repro.core.config import VF2BoostConfig
from repro.core.trace import TraceLog, TreeTrace
from repro.crypto.packing import DEFAULT_LIMB_BITS
from repro.fed.cluster import ClusterSpec
from repro.fed.faults import FaultPlan
from repro.fed.simtime import FaultyEngine, SimEngine, SimTask

__all__ = ["ScheduleResult", "ProtocolScheduler"]

#: cap on pipelined batch tasks per tree (engine efficiency, not semantics)
_MAX_BATCH_TASKS = 128

#: fraction of a dirty subtree's histogram work A speculatively performs
#: before the abort notice lands (the "price of extra computation", §4.2)
_SPECULATIVE_WASTE = 0.12


@dataclass
class ScheduleResult:
    """Outcome of scheduling one training run.

    Attributes:
        makespan: total simulated seconds across all trees.
        per_tree: simulated seconds of each boosting round.
        phase_totals: busy seconds per phase tag, summed over trees.
        root_breakdown: tree-0 root-node phase busy times plus the
            root-node makespan (Table 1's columns).
        utilization: busy fraction per resource over the run.
        bytes_per_tree: average public-network bytes per tree.
        gantt: ASCII Gantt chart of the first tree (diagnostics).
        task_graphs: per-tree task lists (dependency edges included),
            populated only when scheduling with ``collect_tasks=True``.
    """

    makespan: float
    per_tree: list[float]
    phase_totals: dict[str, float]
    root_breakdown: dict[str, float]
    utilization: dict[str, float]
    bytes_per_tree: float
    gantt: str = ""
    task_graphs: list[list[SimTask]] = field(default_factory=list)

    def spans(self):
        """Per-tree task graphs laid end-to-end on one global timeline.

        Tree ``i``'s tasks are offset by the makespans of trees
        ``0..i-1`` — the same serialization :attr:`makespan` assumes —
        so exported traces show the whole run, not overlapping trees.
        Empty unless scheduled with ``collect_tasks=True``.
        """
        from repro.obs.tracer import spans_from_tasks

        spans = []
        offset = 0.0
        for index, tasks in enumerate(self.task_graphs):
            spans.extend(spans_from_tasks(tasks, offset=offset, args={"tree": index}))
            offset += self.per_tree[index]
        return spans

    def critical_path_section(self) -> dict:
        """Critical-path analysis of the run (RunReport v4 shape).

        Per-tree paths laid end-to-end with the same offsets
        :meth:`spans` uses; the section's ``total`` telescopes
        bit-exactly to each tree's makespan and sums to the run
        :attr:`makespan` with the identical left-to-right reduction
        ``schedule()`` applies.  Empty unless scheduled with
        ``collect_tasks=True``.
        """
        from repro.obs.critical import critical_path_section

        if not self.task_graphs:
            return {}
        return critical_path_section(self.task_graphs, per_tree=self.per_tree)

    def run_report(self, label: str = "", config: dict | None = None):
        """Bundle this schedule as a :class:`~repro.obs.report.RunReport`."""
        from repro.obs.report import RunReport

        return RunReport(
            kind="schedule",
            label=label,
            config=dict(config or {}),
            metrics={
                "bytes_per_tree": self.bytes_per_tree,
                "per_tree_seconds": list(self.per_tree),
                "root_breakdown": dict(self.root_breakdown),
                "utilization": dict(self.utilization),
            },
            phases=dict(sorted(self.phase_totals.items())),
            makespan=self.makespan,
            spans=[span.to_dict() for span in self.spans()],
            critical_path=self.critical_path_section(),
        )


@dataclass
class _PartyWork:
    """Pre-computed per-passive-party constants for one run."""

    index: int
    d: float  # nnz per instance
    n_features: int
    n_bins: int


@dataclass
class _HistPart:
    """A fraction of one layer's passive-party histograms."""

    task: SimTask
    fraction: float  # of the layer's histogram/instance mass
    loc: str  # the histogram-part location ``task`` wrote


class ProtocolScheduler:
    """Prices a workload trace under a config, cost model and cluster.

    Args:
        config: protocol variant (its optimization flags; ``crypto_mode``
            is not read).
        cost: unit-cost model; :meth:`CostModel.mocked` prices VF-MOCK.
        cluster: hardware/topology description.
    """

    def __init__(self, config: VF2BoostConfig, cost: CostModel, cluster: ClusterSpec) -> None:
        self.config, self.cost, self.cluster = config, cost, cluster

    # ------------------------------------------------------------------
    # Cost primitives
    # ------------------------------------------------------------------
    def _lanes(self) -> int:
        return self.cluster.compute_lanes

    def _add_cost(self, n_exponents: int) -> float:
        """Per-addend cost of BuildHistA under the current flags."""
        # The packed path's pair ciphers share one fixed exponent.
        if self.config.histogram_packing or self.config.reordered_accumulation:
            return self.cost.hadd()
        return self.cost.naive_add(n_exponents)

    def _stat_factor(self) -> int:
        """Ciphers per instance: one (g, h) pair on the packed path, else 2."""
        return 1 if self.config.histogram_packing else 2

    def _bins(self, party: _PartyWork) -> int:
        """Cipher bins per node under the current flags."""
        return party.n_features * party.n_bins * self._stat_factor()

    def _held_bins(self, party: _PartyWork) -> int:
        """Cipher bins Party A builds per node: no last bin when packing."""
        if self.config.histogram_packing:
            return party.n_features * (party.n_bins - 1)
        return self._bins(party)

    def _held_values(self, party: _PartyWork) -> float:
        """Non-zero values of one instance that land in a bin Party A builds.

        On the packed path a value in its feature's last bin is
        skipped: ``1/s`` of them under quantile binning.
        """
        values = self._stat_factor() * party.d
        if self.config.histogram_packing:
            values *= (party.n_bins - 1) / party.n_bins
        return values

    def _addends(self, party: _PartyWork) -> float:
        """HAdds one instance costs BuildHistA, folds aside.

        Unpacked, one per held value.  The packed build takes features
        two at a time: a pair costs an instance one HAdd unless both its
        codes are last bins, ``1 - 1/s**2``, and a left-over odd feature
        ``(s - 1)/s`` — per instance ``floor(D/2) (1 - 1/s**2) + (D mod
        2)(s - 1)/s`` on dense data.  With a share ``rho = d/D`` of the
        values present, a pair is joined only where the instance has
        both (``rho**2``) and costs one held value where it has one.
        """
        if not self.config.histogram_packing or not party.n_features:
            return self._held_values(party)
        s = party.n_bins
        rho = party.d / party.n_features
        pairs, odd = divmod(party.n_features, 2)
        alone = rho * (s - 1) / s
        return (
            pairs * (rho * rho * (1 - 1 / s**2) + 2 * (1 - rho) * alone) + odd * alone
        )

    def _build_adds(self, party: _PartyWork, instances: float, nodes: float) -> float:
        """BuildHistA's HAdds for ``nodes`` histograms over ``instances`` rows.

        The packed build folds every non-empty joint cell into its two
        bins, and the cell's own first cipher was free: one HAdd net per
        cell, ``floor(D/2) (s - 1)**2`` a node once every cell is
        occupied, scaled by the chance that one of the node's instances
        fell in the cell.  That is the real build's identity in
        expectation (per-feature HAdds minus joined instances plus
        non-empty cells), so never above the per-feature price.  The
        bins' own first touches are free in the real build and, as
        before, not modelled.
        """
        adds = instances * self._addends(party)
        pairs, s = party.n_features // 2, party.n_bins
        if self.config.histogram_packing and pairs and nodes and s > 1:
            in_cell = (party.d / party.n_features / s) ** 2
            occupied = -math.expm1(instances / nodes * math.log1p(-in_cell))
            adds += nodes * pairs * (s - 1) ** 2 * occupied
        return adds

    def _reorder_finalize(self, bins: float, n_exponents: int) -> float:
        """Workspace merge cost: ``E - 1`` scalings per bin (§5.1)."""
        if self.config.histogram_packing or not self.config.reordered_accumulation:
            return 0.0
        return bins * (n_exponents - 1) * self.cost.scale()

    def _comm_duration(self, n_bytes: float) -> float:
        return self.cluster.wan_latency + n_bytes / self.cluster.wan_bandwidth

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def schedule(
        self,
        trace: TraceLog,
        collect_tasks: bool = False,
        fault_plan: FaultPlan | None = None,
    ) -> ScheduleResult:
        """Schedule every tree of a trace; see :class:`ScheduleResult`.

        Args:
            trace: the workload to price.
            collect_tasks: also return every tree's task graph in
                :attr:`ScheduleResult.task_graphs` (schedule validation).
            fault_plan: optional :class:`~repro.fed.faults.FaultPlan`;
                straggler lane slowdowns and party pause windows then
                perturb every tree's schedule (via
                :class:`~repro.fed.simtime.FaultyEngine`), pricing the
                recovery cost of the plan into the makespan.
        """
        per_tree: list[float] = []
        phase_totals: dict[str, float] = {}
        utilization_busy: dict[str, float] = {}
        root_breakdown: dict[str, float] = {}
        task_graphs: list[list[SimTask]] = []
        total_bytes = 0.0
        gantt = ""
        parties = [
            _PartyWork(p + 1, shape.nnz_per_instance, shape.n_features, shape.n_bins)
            for p, shape in enumerate(trace.passive_shapes)
        ]
        for index, tree in enumerate(trace.trees):
            engine: SimEngine = (
                FaultyEngine(fault_plan) if fault_plan is not None else SimEngine()
            )
            breakdown, tree_bytes = self._schedule_tree(engine, trace, tree, parties)
            per_tree.append(engine.makespan)
            total_bytes += tree_bytes
            for phase, seconds in engine.phase_breakdown().items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
            for name, resource in engine.resources.items():
                utilization_busy[name] = (
                    utilization_busy.get(name, 0.0) + resource.busy_time
                )
            if collect_tasks:
                task_graphs.append(list(engine.tasks))
            if index == 0:
                root_breakdown = breakdown
                gantt = engine.gantt()
        makespan = sum(per_tree)
        utilization = {
            name: busy / makespan if makespan else 0.0
            for name, busy in utilization_busy.items()
        }
        return ScheduleResult(
            makespan=makespan,
            per_tree=per_tree,
            phase_totals=phase_totals,
            root_breakdown=root_breakdown,
            utilization=utilization,
            bytes_per_tree=total_bytes / max(1, len(trace.trees)),
            gantt=gantt,
            task_graphs=task_graphs,
        )

    # ------------------------------------------------------------------
    # One tree
    # ------------------------------------------------------------------
    #
    # Every task that does work declares, where it is submitted, the
    # shared state it reads and writes, as abstract location strings;
    # `SimEngine.submit` refuses a task whose access is not ordered
    # after a conflicting earlier one:
    #
    #   B.grad            Party B's plaintext gradient/label statistics
    #   B.gh#b{b}         encrypted <g,h> batch b, staged at B's gateway
    #   A{p}.gh#b{b}      the same batch landed at passive party p
    #   A{p}.hist[L{l}]#{q}   party p's cipher histograms of layer l, part q
    #                     (part 0 = clean / whole, part 1 = dirty redo)
    #   A{p}.packed[L{l}]#{i} the packed form of the layer's i-th part
    #   B.ahist[p{p},L{l}]#{i} that part landed at B, awaiting decryption
    #   B.cand[L{l}]      B's own split candidates
    #   B.acand[L{l}]     candidates decrypted from passive histograms
    #   B.opt[L{l}]       the optimistic split decision
    #   B.split[L{l}]     the joint (validated) split decision
    #   A{p}.place[L{l}]  instance placement shipped to party p
    #   A{p}.placefix[L{l}]  the dirty-rows placement correction
    #   A{p}.notice[L{l}] the dirty-node abort notice
    #   A{p}.spec[L{l}]   party p's speculative (wasted) histogram scratch
    #   wan.out.seq / wan.in.seq   per-direction channel sequence counters
    def _schedule_tree(
        self,
        engine: SimEngine,
        trace: TraceLog,
        tree: TreeTrace,
        parties: list[_PartyWork],
    ) -> tuple[dict[str, float], float]:
        config = self.config
        lanes = self._lanes()
        n = tree.n_instances
        n_exponents = tree.n_exponents
        cipher_bytes = self.cost.cipher_bytes
        # Pack counts come from the layout the trainer packs with.
        layout = config.gradient_layout(trace.n_instances)
        shape_b = trace.active_shape
        bytes_sent = 0.0

        engine.add_resource("B")
        engine.add_resource("B.dec")
        # All cross-party traffic funnels through Party B's gateway
        # queues, so its uplink and downlink are shared resources —
        # with more passive parties the same links carry more traffic
        # (the mild multi-party slowdown of Table 6).
        engine.add_resource("wan.out")
        engine.add_resource("wan.in")
        for party in parties:
            engine.add_resource(f"A{party.index}")

        # ---------------- Root: Enc -> CipherComm -> BuildHistA --------
        stat = self._stat_factor()
        enc_work = stat * n * self.cost.enc()
        gh_bytes = stat * n * cipher_bytes
        if config.blaster_encryption:
            n_batches = min(
                _MAX_BATCH_TASKS, max(1, math.ceil(n / config.blaster_batch_size))
            )
        else:
            n_batches = 1
        build_root: dict[int, SimTask] = {}
        last_enc: SimTask | None = None
        for b in range(n_batches):
            enc_task = engine.submit(
                "B",
                enc_work / n_batches / lanes,
                name=f"enc[{b}]",
                phase="Enc",
                reads={"B.grad"},
                writes={f"B.gh#b{b}"},
            )
            last_enc = enc_task
            for party in parties:
                p = party.index
                comm = engine.submit(
                    "wan.out",
                    self._comm_duration(gh_bytes / n_batches),
                    deps=[enc_task],
                    name=f"gh[{b}]",
                    phase="CipherComm",
                    reads={f"B.gh#b{b}"},
                    writes={f"A{p}.gh#b{b}", "wan.out.seq"},
                )
                build_work = (
                    self._build_adds(party, n, 1)
                    * self._add_cost(n_exponents)
                    / n_batches
                )
                build_root[p] = engine.submit(
                    f"A{p}",
                    build_work / lanes,
                    deps=[comm],
                    name=f"hist0[{b}]",
                    phase="BuildHistA",
                    reads={f"A{p}.gh#b{b}"},
                    writes={f"A{p}.hist[L0]#0"},
                )
        bytes_sent += gh_bytes * len(parties)
        for party in parties:
            p = party.index
            finalize = self._reorder_finalize(self._bins(party), n_exponents)
            if finalize:
                build_root[p] = engine.submit(
                    f"A{p}",
                    finalize / lanes,
                    deps=[build_root[p]],
                    name="merge0",
                    phase="BuildHistA",
                    reads={f"A{p}.hist[L0]#0"},
                    writes={f"A{p}.hist[L0]#0"},
                )
        root_breakdown = {
            "Enc": enc_work / lanes,
            "Comm": self._comm_duration(gh_bytes),
            "HAdd": max(
                (
                    (
                        self._build_adds(party, n, 1) * self._add_cost(n_exponents)
                        + self._reorder_finalize(self._bins(party), n_exponents)
                    )
                    / lanes
                    for party in parties
                ),
                default=0.0,
            ),
        }

        # ---------------- Layer loop -----------------------------------
        # Per-party histogram availability, possibly in clean/dirty parts.
        hist_parts: dict[int, list[_HistPart]] = {
            p: [_HistPart(build_root[p], 1.0, f"A{p}.hist[L0]#0")] for p in build_root
        }
        find_b_anchor = engine.submit(
            "B",
            0.0,
            deps=[last_enc] if last_enc else None,
            name="encdone",
            phase="Enc",
            reads=(),
            writes=(),
        )

        for li, layer in enumerate(tree.layers):
            depth = layer.depth
            n_nodes = max(1, len(layer.nodes))
            layer_instances = layer.n_instances
            # Party A's histogram work covers the *built* nodes only: a
            # recorded trace marks the siblings B derives by subtraction
            # (analytic traces mark none, so these equal the two above).
            built_nodes = max(1, layer.built_nodes)
            built_instances = layer.built_instances

            # Party B: own histogram build + candidate search (plaintext,
            # subtraction trick beyond the root).
            subtraction = 1.0 if depth == 0 else 0.55
            find_b_work = (
                2
                * layer_instances
                * shape_b.nnz_per_instance
                * self.cost.plain_accum()
                * subtraction
                + n_nodes * shape_b.histogram_bins * self.cost.split_bin()
            )
            find_b = engine.submit(
                "B",
                find_b_work / lanes,
                deps=[find_b_anchor],
                name=f"findB{depth}",
                phase="FindSplitB",
                reads={"B.grad" if depth == 0 else f"B.split[L{depth - 1}]"},
                writes={f"B.cand[L{depth}]"},
            )

            # Optimistic: split ahead on B's candidates, ship placements.
            split_opt: SimTask | None = None
            opt_placement: dict[int, SimTask] = {}
            if config.optimistic_split:
                split_opt = engine.submit(
                    "B",
                    self.cluster.round_overhead,
                    deps=[find_b],
                    name=f"opt{depth}",
                    phase="SplitNode",
                    reads={f"B.cand[L{depth}]"},
                    writes={f"B.opt[L{depth}]"},
                )
                for party in parties:
                    p = party.index
                    opt_placement[p] = engine.submit(
                        "wan.out",
                        self._comm_duration(layer_instances / 8),
                        deps=[split_opt],
                        name=f"optplace{depth}",
                        phase="SplitNode",
                        reads={f"B.opt[L{depth}]"},
                        writes={f"A{p}.place[L{depth}]", "wan.out.seq"},
                    )
                bytes_sent += layer_instances / 8 * len(parties)

            # A -> B histogram flow, one (pack ->) comm -> dec chain per
            # histogram part, so clean parts stream ahead of dirty redos.
            # Decryption is sliced so the first dirty discoveries (and
            # their abort notices) fire early in the dec window, the way
            # the paper's per-node sub-tasks do (Figure 6).
            find_a_tasks: list[SimTask] = []
            notice_anchor: SimTask | None = None
            for party in parties:
                p = party.index
                packs = (
                    layout.packs_per_node(party.n_features, party.n_bins)
                    if layout is not None
                    else self._bins(party)
                )
                ciphers_full = built_nodes * packs
                for pi, part in enumerate(hist_parts[p]):
                    frac = part.fraction
                    ready = part.task
                    packed = f"A{p}.packed[L{depth}]#{pi}"
                    landed = f"B.ahist[p{p},L{depth}]#{pi}"
                    # Intra-party histogram aggregation across worker
                    # shards (§3.2): local histograms travel the LAN so
                    # each worker owns the global bins of its feature
                    # range. Grows with worker count — the effect that
                    # caps Table 5's scaling.
                    agg_seconds = self.cluster.aggregation_seconds(
                        built_nodes
                        * self._held_bins(party)
                        * frac
                        * cipher_bytes,
                        nnz_bytes=(
                            built_instances
                            * frac
                            * self._held_values(party)
                            * cipher_bytes
                        ),
                    )
                    if agg_seconds:
                        ready = engine.submit(
                            f"A{p}",
                            agg_seconds,
                            deps=[ready],
                            name=f"agg{depth}.{pi}",
                            phase="Aggregate",
                            reads={part.loc},
                            writes={part.loc},
                        )
                    if layout is not None:
                        # Horner: one HAdd + one SMul by 2**stride per
                        # slot but the last of each pack, after the
                        # prefix adds; the unit SMul cost is quoted for
                        # a 2**M radix (M = 64) and an SMul is `stride`
                        # squarings.
                        horner = self._held_bins(party) - packs
                        prefix_adds = party.n_features * (party.n_bins - 2)
                        pack_work = (
                            built_nodes
                            * frac
                            * (
                                (horner + prefix_adds) * self.cost.hadd()
                                + horner
                                * self.cost.smul_small()
                                * layout.stride
                                / DEFAULT_LIMB_BITS
                            )
                        )
                        ready = engine.submit(
                            f"A{p}",
                            pack_work / lanes,
                            deps=[ready],
                            name=f"pack{depth}.{pi}",
                            phase="Pack",
                            reads={part.loc},
                            writes={packed},
                        )
                    part_bytes = ciphers_full * frac * cipher_bytes
                    comm = engine.submit(
                        "wan.in",
                        self._comm_duration(part_bytes),
                        deps=[ready],
                        name=f"histcomm{depth}.{pi}",
                        phase="CipherComm",
                        reads={part.loc, packed},
                        writes={landed, "wan.in.seq"},
                    )
                    bytes_sent += part_bytes
                    # Dec on what crossed the wire; the candidate search
                    # still covers every node, derived ones included.
                    dec_work = ciphers_full * frac * self.cost.dec() + (
                        n_nodes * self._bins(party) * frac * self.cost.split_bin()
                    )
                    slices = (0.25, 0.75) if notice_anchor is None else (1.0,)
                    prev = comm
                    for share in slices:
                        prev = engine.submit(
                            "B.dec",
                            dec_work * share / lanes,
                            deps=[prev],
                            name=f"findA{depth}.{pi}",
                            phase="FindSplitA",
                            reads={landed},
                            writes={f"B.acand[L{depth}]"},
                        )
                        if notice_anchor is None:
                            notice_anchor = prev
                    find_a_tasks.append(prev)
            if notice_anchor is None:  # no passive party
                notice_anchor = engine.submit(
                    "B", 0.0, deps=[find_b], phase="FindSplitA"
                )

            # Joint split decision; in the optimistic protocol the layer's
            # coordination cost was already paid by the optimistic split.
            split_cost = (
                1e-4 if config.optimistic_split else self.cluster.round_overhead
            )
            split_done = engine.submit(
                "B",
                split_cost,
                deps=[find_b] + find_a_tasks,
                name=f"split{depth}",
                phase="SplitNode",
                reads={f"B.cand[L{depth}]", f"B.acand[L{depth}]"},
                writes={f"B.split[L{depth}]"},
            )
            placement_tasks: dict[int, SimTask] = {}
            for party in parties:
                p = party.index
                if config.optimistic_split:
                    dirty_bytes = layer.dirty_instances / 8
                    if dirty_bytes:
                        engine.submit(
                            "wan.out",
                            self._comm_duration(dirty_bytes),
                            deps=[split_done],
                            name=f"fixplace{depth}",
                            phase="SplitNode",
                            reads={f"B.split[L{depth}]"},
                            writes={f"A{p}.placefix[L{depth}]", "wan.out.seq"},
                        )
                        bytes_sent += dirty_bytes
                    placement_tasks[p] = opt_placement[p]
                else:
                    placement_tasks[p] = engine.submit(
                        "wan.out",
                        self._comm_duration(layer_instances / 8),
                        deps=[split_done],
                        name=f"place{depth}",
                        phase="SplitNode",
                        reads={f"B.split[L{depth}]"},
                        writes={f"A{p}.place[L{depth}]", "wan.out.seq"},
                    )
                    bytes_sent += layer_instances / 8

            find_b_anchor = split_opt if split_opt is not None else split_done

            # Schedule the *next* layer's BuildHistA.
            if li + 1 >= len(tree.layers):
                break
            next_layer = tree.layers[li + 1]
            next_built = next_layer.built_instances
            dirty_frac = (
                layer.dirty_instances / layer_instances if layer_instances else 0.0
            )
            dirty_frac = min(1.0, dirty_frac)
            nxt = next_layer.depth
            for party in parties:
                p = party.index
                place = f"A{p}.place[L{depth}]"
                parts: list[_HistPart] = []
                add = self._add_cost(n_exponents)
                finalize = self._reorder_finalize(
                    next_layer.built_nodes * self._bins(party), n_exponents
                )

                def build_adds(share: float, party: _PartyWork = party) -> float:
                    return self._build_adds(
                        party, next_built * share, next_layer.built_nodes * share
                    )

                if config.optimistic_split and dirty_frac > 0:
                    clean_work = (
                        build_adds(1 - dirty_frac) * add
                        + finalize * (1 - dirty_frac)
                    )
                    clean_loc = f"A{p}.hist[L{nxt}]#0"
                    clean = engine.submit(
                        f"A{p}",
                        clean_work / lanes,
                        deps=[placement_tasks[p]],
                        name=f"hist{nxt}c",
                        phase="BuildHistA",
                        reads={place},
                        writes={clean_loc},
                    )
                    if 1 - dirty_frac > 0:
                        parts.append(_HistPart(clean, 1 - dirty_frac, clean_loc))
                    # Speculative work on (unknowingly) dirty children,
                    # aborted when the notice lands.
                    waste_work = build_adds(dirty_frac * _SPECULATIVE_WASTE) * add
                    waste = engine.submit(
                        f"A{p}",
                        waste_work / lanes,
                        deps=[placement_tasks[p]],
                        name=f"spec{nxt}",
                        phase="BuildHistA",
                        reads={place},
                        writes={f"A{p}.spec[L{nxt}]"},
                    )
                    # The notice's content derives from the first
                    # FindSplitA slice, a direct dependency: no shared read.
                    notice = engine.submit(
                        "wan.out",
                        self._comm_duration(64),
                        deps=[notice_anchor],
                        name=f"dirty{depth}",
                        phase="SplitNode",
                        reads=(),
                        writes={f"A{p}.notice[L{depth}]", "wan.out.seq"},
                    )
                    if config.incremental_dirty_redo:
                        # §8 future work: move only the misplaced rows —
                        # one cipher removal plus one insertion each, one
                        # of the two when only the smaller child is built.
                        misplaced = layer.misplaced_instances
                        moves = 2 * next_layer.built_nodes / max(
                            1, len(next_layer.nodes)
                        )
                        redo_work = (
                            moves * misplaced * self._addends(party) * add
                            + finalize * dirty_frac
                        )
                    else:
                        redo_work = build_adds(dirty_frac) * add + finalize * dirty_frac
                    redo_loc = f"A{p}.hist[L{nxt}]#1"
                    redo = engine.submit(
                        f"A{p}",
                        redo_work / lanes,
                        deps=[waste, notice],
                        name=f"redo{nxt}",
                        phase="BuildHistA",
                        reads={
                            place,
                            f"A{p}.placefix[L{depth}]",
                            f"A{p}.notice[L{depth}]",
                            f"A{p}.spec[L{nxt}]",
                        },
                        writes={redo_loc},
                    )
                    parts.append(_HistPart(redo, dirty_frac, redo_loc))
                else:
                    build_work = build_adds(1.0) * add + finalize
                    build_loc = f"A{p}.hist[L{nxt}]#0"
                    build = engine.submit(
                        f"A{p}",
                        build_work / lanes,
                        deps=[placement_tasks[p]],
                        name=f"hist{nxt}",
                        phase="BuildHistA",
                        reads={place},
                        writes={build_loc},
                    )
                    parts.append(_HistPart(build, 1.0, build_loc))
                hist_parts[p] = parts

        root_breakdown["RootMakespan"] = (
            max((task.end for task in build_root.values()), default=0.0)
        )
        return root_breakdown, bytes_sent
