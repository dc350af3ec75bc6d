"""The vertical federated GBDT trainer (SecureBoost protocol + VF²Boost).

Runs the full protocol of §3.2 between one active party (Party B, the
label holder) and one or more passive parties (Party A's):

1. Party B computes per-instance gradients/hessians, encrypts them —
   with histogram packing as one fixed-exponent ``(g, h)`` cipher per
   instance, otherwise as two jittered ciphers — and ships them to
   every passive party (in blaster batches when enabled);
2. every party builds histograms over its own columns — passive
   parties homomorphically (the two-cipher baselines with or without
   re-ordered accumulation) — for the root and, below it, for the
   *smaller* child of every split (sizes follow from the placement all
   parties hold);
3. passive parties transfer those histograms to B — packed, every bin
   but each feature's last, which B closes with its own node total, or
   raw — who decrypts them, derives each larger sibling as ``parent -
   small`` on the plaintext histograms of the layer above, and picks
   the global best split per node, learning at most a *bin index*
   about a passive party's winning feature;
4. the split owner materializes the instance placement and the bitmap
   is synchronized; leaf weights are computed by B.

Two crypto modes share this exact control flow:

* ``"real"`` — every Paillier operation is physically executed
  (tests, examples, small datasets);
* ``"counted"`` / ``"mock"`` — histogram arithmetic runs on plaintext
  (the protocol is lossless, so the model is bit-identical) while the
  channel receives :class:`CountedCipherPayload` messages carrying the
  exact cipher counts and byte volumes the real run would ship.

The trainer also fills a :class:`TraceLog` — which party won each
node, which nodes the optimistic strategy would have dirtied, instance
counts — that the protocol scheduler prices into simulated time.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import VF2BoostConfig
from repro.core.enc_histogram import (
    EncryptedHistogram,
    build_encrypted_histogram,
    decrypt_histogram,
    pack_histogram,
    unpack_histogram,
)
from repro.core.trace import LayerTrace, NodeTrace, PartyShape, TraceLog, TreeTrace
from repro.crypto.ciphertext import OpStats, PaillierContext
from repro.crypto.packing import GradHessLayout
from repro.fed.channel import RecordingChannel
from repro.fed.faults import FaultPlan
from repro.fed.reliable import ReliableChannel
from repro.fed.retry import RetryPolicy
from repro.fed.messages import (
    CountedCipherPayload,
    EncryptedGradHessBatch,
    EncryptedHistogramMessage,
    InstancePlacement,
    LeafWeightBroadcast,
    PackedHistogramMessage,
    SplitAnswer,
    SplitDecision,
    SplitQuery,
)
from repro.gbdt.binning import BinnedDataset
from repro.gbdt.boosting import EvalRecord
from repro.obs.events import EventLog
from repro.gbdt.histogram import Histogram, build_histogram
from repro.gbdt.loss import Loss, get_loss
from repro.gbdt.metrics import auc
from repro.gbdt.split import SplitCandidate, find_best_split, leaf_weight
from repro.gbdt.tree import DecisionTree

__all__ = [
    "FederatedModel",
    "FederatedTrainer",
    "TrainResult",
    "TrainingInterrupted",
]

ACTIVE = 0  # party id of Party B by repository convention


class TrainingInterrupted(RuntimeError):
    """A fault plan crashed the trainer at a tree boundary.

    State up to and including the completed tree is on disk; pass
    :attr:`checkpoint_path` as ``fit(resume_from=...)`` (or call
    :meth:`FederatedTrainer.fit_resilient`) to continue the run.
    """

    def __init__(self, checkpoint_path: str, completed_trees: int) -> None:
        super().__init__(
            f"training crashed after tree {completed_trees - 1}; "
            f"resume from {checkpoint_path}"
        )
        self.checkpoint_path = checkpoint_path
        self.completed_trees = completed_trees


@dataclass
class FederatedModel:
    """A federated boosted ensemble over vertically partitioned data.

    Split nodes store *owner-local* feature ids; prediction therefore
    needs every party's bin codes (see
    :meth:`repro.gbdt.tree.DecisionTree.predict_federated`).
    """

    trees: list[DecisionTree] = field(default_factory=list)
    learning_rate: float = 0.1
    base_score: float = 0.0

    def predict_margin(self, party_codes: dict[int, np.ndarray]) -> np.ndarray:
        """Raw margins from per-party bin-code matrices."""
        n = next(iter(party_codes.values())).shape[0]
        margins = np.full(n, self.base_score, dtype=np.float64)
        for tree in self.trees:
            margins += self.learning_rate * tree.predict_federated(party_codes)
        return margins

    def split_counts_by_owner(self) -> dict[int, int]:
        """Number of split nodes owned by each party across the model."""
        counts: dict[int, int] = {}
        for tree in self.trees:
            for node in tree.nodes.values():
                if not node.is_leaf:
                    counts[node.owner] = counts.get(node.owner, 0) + 1
        return counts


@dataclass
class TrainResult:
    """Everything a training run produces.

    Attributes:
        crypto_stats: per-party cipher-op counters (party id ->
            :class:`~repro.crypto.ciphertext.OpStats` snapshot); only
            populated in ``"real"`` crypto mode, where ops physically
            execute.  Party ``ACTIVE`` did the Enc/Dec work, passive
            parties the homomorphic accumulation.
        profile: the same counters split by protocol phase —
            ``{"ops": {...}, "phases": {"GradEnc" | "Histogram" |
            "Split" | "Leaf": {...}}}``, every row in
            :class:`~repro.crypto.ciphertext.OpStats` field names and
            summed over parties, so the phase rows add up to ``ops``
            and ``ops`` to ``crypto_stats``.  Empty outside ``"real"``
            mode, like ``crypto_stats``.
        faults: the reliable channel's
            :meth:`~repro.fed.reliable.ReliableChannel.summary` when a
            fault plan was active — drop/resend/dedupe tallies plus the
            recovery-clock seconds the faults cost.  Empty on
            fault-free runs.
        events: the trainer's unified event log as flat wire dicts
            (:meth:`~repro.obs.events.EventLog.to_dicts`) — phase,
            tree, checkpoint and crash transitions interleaved with the
            reliable channel's fault events.
        incidents: paths of incident bundles snapshotted during the
            run (crash post-mortems, fault-recovery summaries), in
            creation order.  Populated only when the trainer was given
            an ``incident_dir``.
    """

    model: FederatedModel
    trace: TraceLog
    history: list[EvalRecord]
    channel: RecordingChannel
    crypto_stats: dict[int, "OpStats"] = field(default_factory=dict)
    profile: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    incidents: list = field(default_factory=list)

    def run_report(self, label: str = "", config: dict | None = None):
        """Bundle this run as a :class:`~repro.obs.report.RunReport`.

        Phase timings belong to the scheduler (price the
        :attr:`trace` with a ``ProtocolScheduler`` for those); this
        report carries the run's *exact* accounting — channel traffic
        per direction and message type, and per-party crypto op counts.
        """
        from repro.obs.report import RunReport, channel_report

        return RunReport(
            kind="train",
            label=label,
            config=dict(config or {}),
            metrics={
                "n_trees": len(self.model.trees),
                "n_instances": self.trace.n_instances,
                "final_train_loss": (
                    self.history[-1].train_loss if self.history else None
                ),
            },
            channels=channel_report(self.channel),
            parties={
                str(party): stats.to_dict()
                for party, stats in sorted(self.crypto_stats.items())
            },
            profile=dict(self.profile),
            faults=dict(self.faults),
            events=list(self.events),
            incidents=list(self.incidents),
        )


class FederatedTrainer:
    """Orchestrates the vertical federated GBDT protocol.

    Args:
        config: system configuration (optimization flags, crypto mode...).
        event_log: optional shared
            :class:`~repro.obs.events.EventLog`; the trainer always
            records into one (its own when none is given) — phase,
            tree, checkpoint and crash transitions under subsystem
            ``"trainer"``, plus the reliable channel's fault events
            when a plan is active.  Pure metadata: no channel traffic,
            no crypto ops, so golden op counts are untouched.
        incident_dir: when set, a crash
            (:class:`TrainingInterrupted`) and a survivable-fault
            recovery each snapshot an
            :class:`~repro.obs.incident.IncidentBundle` into this
            directory; paths ride on :attr:`TrainResult.incidents`.

    Example:
        >>> config = VF2BoostConfig.vf2boost(crypto_mode="counted")
        >>> trainer = FederatedTrainer(config)
        >>> result = trainer.fit(party_datasets, labels)
    """

    def __init__(
        self,
        config: VF2BoostConfig,
        event_log=None,
        incident_dir: str | None = None,
    ) -> None:
        self.config = config
        self.events = event_log if event_log is not None else EventLog()
        self.incident_dir = incident_dir
        self.incidents: list[str] = []
        self.loss: Loss = get_loss(config.params.objective)
        self._real = config.crypto_mode == "real"

    @contextmanager
    def _phase(self, channel, name: str, contexts, profile: dict, **where):
        """Enter protocol phase ``name`` — the one place a phase is marked.

        Emits the ``phase`` event, then adds the ops that ``contexts``
        (the run's Paillier contexts; none outside real mode) perform
        over the block to ``profile`` — its ``ops`` totals and its
        ``phases[name]`` row, in :class:`OpStats` field names.
        """
        self._emit_event(channel, "phase", name=name, **where)
        before = [context.stats.snapshot() for context in contexts]
        yield
        if not contexts:
            return
        ops = profile.setdefault("ops", OpStats().to_dict())
        row = profile.setdefault("phases", {}).setdefault(
            name, OpStats().to_dict()
        )
        for context, start in zip(contexts, before):
            for op, count in context.stats.diff(start).to_dict().items():
                ops[op] += count
                row[op] += count

    def _emit_event(self, channel, kind: str, **payload) -> None:
        """Record one trainer transition on the recovery clock.

        The timestamp is the reliable channel's fault-recovery clock
        when one is active (the only simulated clock a training run
        has) and 0.0 on fault-free runs — ``seq`` preserves ordering
        either way.
        """
        now = channel.clock if isinstance(channel, ReliableChannel) else 0.0
        self.events.emit(now, "trainer", kind, **payload)

    def _snapshot_incident(
        self, kind: str, channel, fault_plan, profile: dict, context: dict
    ) -> None:
        """Save one post-mortem bundle into ``incident_dir``."""
        from repro.obs.incident import IncidentStore, snapshot_incident

        now = channel.clock if isinstance(channel, ReliableChannel) else 0.0
        bundle = snapshot_incident(
            kind,
            time=now,
            event_log=self.events,
            profile=profile,
            channel=channel,
            fault_plan=fault_plan,
            context=context,
        )
        store = IncidentStore(self.incident_dir)
        self.incidents.append(store.save(bundle))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def fit(
        self,
        party_datasets: list[BinnedDataset],
        labels: np.ndarray,
        valid_party_codes: dict[int, np.ndarray] | None = None,
        valid_labels: np.ndarray | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        resume_from: str | None = None,
        checkpoint_dir: str | None = None,
    ) -> TrainResult:
        """Train a federated model.

        Args:
            party_datasets: binned feature matrices, **Party B first**
                (index 0), then one per passive party. All must share the
                instance set (post-PSI alignment).
            labels: Party B's labels.
            valid_party_codes: optional per-party validation bin codes.
            valid_labels: labels for the validation set.
            fault_plan: optional :class:`~repro.fed.faults.FaultPlan`;
                when set, all protocol traffic crosses a
                :class:`~repro.fed.reliable.ReliableChannel` that
                replays the plan's deterministic faults and recovers
                from them.  The final model is bit-identical to the
                fault-free run for every survivable plan.
            retry_policy: ack timeout/retry knobs of the reliable
                channel (defaults to :class:`RetryPolicy` defaults).
            resume_from: checkpoint path to continue a crashed run.
            checkpoint_dir: when set, a checkpoint is written after
                every tree; required when ``fault_plan`` schedules
                crashes.

        Raises:
            TrainingInterrupted: when the fault plan crashes the run at
                a tree boundary (after writing the checkpoint).
        """
        labels = np.asarray(labels, dtype=np.float64)
        n = party_datasets[0].n_instances
        for dataset in party_datasets:
            if dataset.n_instances != n:
                raise ValueError("parties must hold aligned instance sets")
        if labels.shape[0] != n:
            raise ValueError("labels must match the instance count")
        n_passive = len(party_datasets) - 1
        if n_passive < 1:
            raise ValueError("need at least one passive party")

        params = self.config.params
        channel = RecordingChannel(self.config.key_bits, active_party=ACTIVE)
        if fault_plan is not None and not fault_plan.is_null:
            if fault_plan.crash_after_trees and checkpoint_dir is None:
                raise ValueError(
                    "fault_plan schedules crashes; pass checkpoint_dir so "
                    "the run can be resumed"
                )
            channel = ReliableChannel(
                channel,
                plan=fault_plan,
                policy=retry_policy,
                event_log=self.events,
            )
        context = self._make_context() if self._real else None
        layout = self.config.gradient_layout(n)
        public_contexts = (
            {p: context.public_context() for p in range(1, n_passive + 1)}
            if context is not None
            else {}
        )
        profile: dict = {}

        trace = TraceLog(
            n_instances=n,
            active_shape=PartyShape(
                party_datasets[0].n_features,
                party_datasets[0].nnz_per_row(),
                params.n_bins,
            ),
            passive_shapes=[
                PartyShape(ds.n_features, ds.nnz_per_row(), params.n_bins)
                for ds in party_datasets[1:]
            ],
        )

        base = self.loss.base_score(labels)
        model = FederatedModel(learning_rate=params.learning_rate, base_score=base)
        margins = np.full(n, base, dtype=np.float64)
        history: list[EvalRecord] = []
        valid_margins = None
        if valid_party_codes is not None and valid_labels is not None:
            valid_labels = np.asarray(valid_labels, dtype=np.float64)
            valid_margins = np.full(valid_labels.shape[0], base, dtype=np.float64)

        start_tree = 0
        if resume_from is not None:
            from repro.core.serialization import load_checkpoint

            state = load_checkpoint(resume_from, config=self.config)
            model = state["model"]
            margins = np.asarray(state["margins"], dtype=np.float64)
            if margins.shape[0] != n:
                raise ValueError(
                    "checkpoint margins cover a different instance set "
                    f"({margins.shape[0]} rows vs {n} training rows)"
                )
            history = state["history"]
            trace = state["trace"]
            start_tree = state["next_tree"]
            if valid_margins is not None:
                if state["valid_margins"] is None:
                    raise ValueError(
                        "checkpoint has no validation margins but a "
                        "validation set was passed to the resumed run"
                    )
                valid_margins = np.asarray(
                    state["valid_margins"], dtype=np.float64
                )
            self._emit_event(
                channel,
                "checkpoint_resumed",
                next_tree=start_tree,
                checkpoint=os.path.basename(resume_from),
            )

        for t in range(start_tree, params.n_trees):
            self._emit_event(channel, "tree_start", tree=t)
            gradients, hessians = self.loss.gradients(labels, margins)
            tree, tree_trace = self._train_tree(
                t,
                party_datasets,
                gradients,
                hessians,
                channel,
                context,
                public_contexts,
                layout,
                profile,
            )
            model.trees.append(tree)
            trace.trees.append(tree_trace)
            party_codes = {p: ds.codes for p, ds in enumerate(party_datasets)}
            margins += params.learning_rate * tree.predict_federated(party_codes)
            record = EvalRecord(
                tree_index=t, train_loss=self.loss.loss(labels, margins)
            )
            if valid_margins is not None:
                valid_margins += params.learning_rate * tree.predict_federated(
                    valid_party_codes
                )
                record.valid_loss = self.loss.loss(valid_labels, valid_margins)
                try:
                    record.valid_auc = auc(valid_labels, valid_margins)
                except ValueError:
                    record.valid_auc = None
            history.append(record)
            self._emit_event(
                channel, "tree_end", tree=t, train_loss=record.train_loss
            )
            checkpoint_path = None
            if checkpoint_dir is not None:
                from repro.core.serialization import save_checkpoint

                checkpoint_path = save_checkpoint(
                    os.path.join(checkpoint_dir, f"ckpt_tree{t + 1:04d}.json"),
                    config=self.config,
                    model=model,
                    margins=margins,
                    history=history,
                    trace=trace,
                    next_tree=t + 1,
                    valid_margins=valid_margins,
                )
                self._emit_event(
                    channel,
                    "checkpoint_written",
                    tree=t,
                    checkpoint=os.path.basename(checkpoint_path),
                )
            if (
                fault_plan is not None
                and fault_plan.crashes_after(t)
                and t + 1 < params.n_trees
            ):
                self._emit_event(
                    channel,
                    "crash",
                    tree=t,
                    checkpoint=os.path.basename(checkpoint_path),
                )
                if self.incident_dir is not None:
                    self._snapshot_incident(
                        "training_interrupted",
                        channel,
                        fault_plan,
                        profile,
                        context={
                            "completed_trees": t + 1,
                            "checkpoint": os.path.basename(checkpoint_path),
                        },
                    )
                raise TrainingInterrupted(checkpoint_path, t + 1)
        if (
            self.incident_dir is not None
            and isinstance(channel, ReliableChannel)
            and (channel.counters.drops or channel.counters.resends)
        ):
            self._snapshot_incident(
                "fault_recovery",
                channel,
                fault_plan,
                profile,
                context={
                    "recovery_seconds": channel.clock,
                    "drops": channel.counters.drops,
                    "resends": channel.counters.resends,
                    "dedupe_dropped": channel.counters.dedupe_dropped,
                },
            )
        crypto_stats: dict[int, OpStats] = {}
        if context is not None:
            crypto_stats[ACTIVE] = context.stats.snapshot()
            for p, public in public_contexts.items():
                crypto_stats[p] = public.stats.snapshot()
        return TrainResult(
            model=model,
            trace=trace,
            history=history,
            channel=channel,
            crypto_stats=crypto_stats,
            profile=profile,
            faults=(
                channel.summary() if isinstance(channel, ReliableChannel) else {}
            ),
            events=self.events.to_dicts(),
            incidents=list(self.incidents),
        )

    def fit_resilient(
        self,
        party_datasets: list[BinnedDataset],
        labels: np.ndarray,
        valid_party_codes: dict[int, np.ndarray] | None = None,
        valid_labels: np.ndarray | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        resume_from: str | None = None,
        checkpoint_dir: str | None = None,
    ) -> TrainResult:
        """:meth:`fit`, restarted from its checkpoint after every crash.

        The supervisor loop a real deployment would run: each
        :class:`TrainingInterrupted` becomes a resume from the
        checkpoint it left behind, until training completes.
        """
        resumes = 0
        while True:
            try:
                result = self.fit(
                    party_datasets,
                    labels,
                    valid_party_codes,
                    valid_labels,
                    fault_plan=fault_plan,
                    retry_policy=retry_policy,
                    resume_from=resume_from,
                    checkpoint_dir=checkpoint_dir,
                )
            except TrainingInterrupted as interrupt:
                resume_from = interrupt.checkpoint_path
                resumes += 1
                continue
            if resumes and result.faults:
                result.faults["resumes"] = resumes
            return result

    # ------------------------------------------------------------------
    # Per-tree protocol
    # ------------------------------------------------------------------
    def _train_tree(
        self,
        tree_index: int,
        party_datasets: list[BinnedDataset],
        gradients: np.ndarray,
        hessians: np.ndarray,
        channel: RecordingChannel,
        context: PaillierContext | None,
        public_contexts: dict[int, PaillierContext],
        layout: GradHessLayout | None,
        profile: dict,
    ) -> tuple[DecisionTree, TreeTrace]:
        params = self.config.params
        n = gradients.shape[0]
        n_passive = len(party_datasets) - 1
        contexts = [context, *public_contexts.values()] if self._real else []

        # Phase 1: gradient statistics encryption and communication.
        # With a layout, ``grad_ciphers`` are (g, h) pair ciphers of the
        # integers ``raw_pairs`` (which B keeps to total its nodes) and
        # ``hess_ciphers`` stays None.
        grad_ciphers: list | None = None
        hess_ciphers: list | None = None
        raw_pairs: list[int] | None = None
        n_exponents = 1 if layout is not None else self.config.exponent_jitter
        with self._phase(channel, "GradEnc", contexts, profile, tree=tree_index):
            if self._real and layout is not None:
                raw_pairs = layout.encode(gradients.tolist(), hessians.tolist())
                grad_ciphers = layout.encrypt(context, raw_pairs)
            elif self._real:
                grad_ciphers = [context.encrypt(float(g)) for g in gradients]
                hess_ciphers = [context.encrypt(float(h)) for h in hessians]
                n_exponents = len(
                    {c.exponent for c in grad_ciphers}
                    | {c.exponent for c in hess_ciphers}
                )
            self._ship_gradients(
                channel, n, n_passive, grad_ciphers, hess_ciphers, layout is not None
            )

        tree = DecisionTree()
        tree_trace = TreeTrace(
            tree_index=tree_index, n_instances=n, n_exponents=n_exponents
        )
        all_rows = np.arange(n, dtype=np.int64)
        node_rows: dict[int, np.ndarray] = {0: all_rows}
        frontier = [0]
        # Histogram subtraction: below the root every party builds only
        # the smaller child of each split; B derives the sibling from the
        # parent's plaintext histogram, which it holds from the layer above.
        parent_hists: dict[int, dict[int, Histogram]] = {}
        derived: dict[int, tuple[int, int]] = {}  # large child -> (parent, small)

        for depth in range(params.max_depth):
            layer = LayerTrace(depth=depth)
            next_frontier: list[int] = []
            next_derived: dict[int, tuple[int, int]] = {}
            built = [node_id for node_id in frontier if node_id not in derived]
            # Each party builds this layer's histograms for its columns.
            with self._phase(
                channel, "Histogram", contexts, profile, tree=tree_index, depth=depth
            ):
                hists = self._passive_histograms(
                    party_datasets,
                    built,
                    node_rows,
                    gradients,
                    hessians,
                    grad_ciphers,
                    hess_ciphers,
                    raw_pairs,
                    channel,
                    context,
                    public_contexts,
                    layout,
                )
                hists[ACTIVE] = {
                    node_id: build_histogram(
                        party_datasets[ACTIVE], node_rows[node_id], gradients, hessians
                    )
                    for node_id in built
                }
                for large, (parent, small) in derived.items():
                    for party, per_node in hists.items():
                        per_node[large] = parent_hists[party][parent].subtract(
                            per_node[small]
                        )
            with self._phase(
                channel, "Split", contexts, profile, tree=tree_index, depth=depth
            ):
                for node_id in frontier:
                    rows = node_rows[node_id]
                    node_trace = NodeTrace(
                        node_id=node_id,
                        n_instances=int(rows.size),
                        derived=node_id in derived,
                    )
                    best_owner, best, active_candidate = self._global_best_split(
                        hists[ACTIVE][node_id],
                        {p: hists[p][node_id] for p in range(1, n_passive + 1)},
                        int(rows.size),
                    )
                    if best is None:
                        layer.nodes.append(node_trace)
                        continue
                    node_trace.owner = best_owner
                    # Dirty under the optimistic strategy: B split ahead with
                    # its own candidate but a passive party's was better.
                    node_trace.dirty = best_owner != ACTIVE
                    if node_trace.dirty:
                        node_trace.misplaced_fraction = self._misplaced_fraction(
                            party_datasets, rows, best_owner, best, active_candidate
                        )
                    layer.nodes.append(node_trace)

                    left_rows, right_rows = self._materialize_split(
                        node_id,
                        best_owner,
                        best,
                        rows,
                        party_datasets,
                        tree,
                        channel,
                        n_passive,
                    )
                    left = tree.nodes[node_id].left_child
                    right = tree.nodes[node_id].right_child
                    node_rows[left] = left_rows
                    node_rows[right] = right_rows
                    next_frontier.extend([left, right])
                    # Both sides know the child sizes from the placement;
                    # a tie builds the left child (as gbdt.boosting does).
                    if left_rows.size <= right_rows.size:
                        next_derived[right] = (node_id, left)
                    else:
                        next_derived[left] = (node_id, right)
            parent_hists, derived = hists, next_derived
            tree_trace.layers.append(layer)
            frontier = next_frontier
            if not frontier:
                break

        # Leaf weights (Equation 1), computed by B and broadcast.
        with self._phase(channel, "Leaf", contexts, profile, tree=tree_index):
            weights: dict[int, float] = {}
            for node in tree.nodes.values():
                if node.is_leaf:
                    rows = node_rows.get(node.node_id, np.empty(0, dtype=np.int64))
                    if rows.size == 0:
                        tree.set_leaf_weight(node.node_id, 0.0)
                        continue
                    weight = leaf_weight(
                        float(gradients[rows].sum()),
                        float(hessians[rows].sum()),
                        params.reg_lambda,
                    )
                    tree.set_leaf_weight(node.node_id, weight)
                    weights[node.node_id] = weight
            for p in range(1, n_passive + 1):
                # Declared disclosure: leaf weights are part of the published
                # model (every party needs them for inference, §3.3).
                channel.send(LeafWeightBroadcast(ACTIVE, p, weights=weights))  # repro: allow[PB001]
        return tree, tree_trace

    # ------------------------------------------------------------------
    # Protocol phases
    # ------------------------------------------------------------------
    def _ship_gradients(
        self,
        channel: RecordingChannel,
        n: int,
        n_passive: int,
        grad_ciphers,
        hess_ciphers,
        pair: bool,
    ) -> None:
        """Send encrypted (g, h) to every passive party, batch by batch.

        ``pair``: one ``(g, h)`` cipher per instance instead of two.
        """
        batch = self.config.blaster_batch_size if self.config.blaster_encryption else n
        for p in range(1, n_passive + 1):
            for start in range(0, n, batch):
                stop = min(n, start + batch)
                if self._real:
                    channel.send(
                        EncryptedGradHessBatch(
                            ACTIVE,
                            p,
                            instance_offset=start,
                            grads=grad_ciphers[start:stop],
                            hesses=[] if pair else hess_ciphers[start:stop],
                        )
                    )
                else:
                    channel.send(
                        CountedCipherPayload(
                            ACTIVE,
                            p,
                            kind="grad_hess",
                            n_ciphers=(1 if pair else 2) * (stop - start),
                        )
                    )

    def _passive_histograms(
        self,
        party_datasets,
        nodes,
        node_rows,
        gradients,
        hessians,
        grad_ciphers,
        hess_ciphers,
        raw_pairs,
        channel,
        context,
        public_contexts,
        layout,
    ) -> dict[int, dict[int, Histogram]]:
        """Passive parties build ``nodes``, ship; B decrypts.

        ``nodes`` are the layer's *built* nodes (the root, then the
        smaller child of every split); returns their plaintext
        histograms per passive party.  ``raw_pairs`` are the integers B
        encrypted on the packed real path: summed over a node's rows
        they are the last prefix of every feature, which no party ships.
        """
        results: dict[int, dict[int, Histogram]] = {}
        n_passive = len(party_datasets) - 1
        for p in range(1, n_passive + 1):
            dataset = party_datasets[p]
            per_node: dict[int, Histogram] = {}
            if self._real:
                per_node = self._passive_histograms_real(
                    p,
                    dataset,
                    nodes,
                    node_rows,
                    grad_ciphers,
                    hess_ciphers,
                    raw_pairs,
                    channel,
                    context,
                    public_contexts[p],
                    layout,
                )
            else:
                for node_id in nodes:
                    hist = build_histogram(
                        dataset, node_rows[node_id], gradients, hessians
                    )
                    # B must not rely on counts it cannot see.
                    per_node[node_id] = Histogram(
                        hist.grad, hist.hess, np.zeros_like(hist.count)
                    )
                # What the real run ships per node: the layout's packs,
                # or a gradient and a hessian cipher per bin.
                per_node_ciphers = (
                    layout.packs_per_node(dataset.n_features, dataset.n_bins)
                    if layout is not None
                    else 2 * dataset.n_features * dataset.n_bins
                )
                channel.send(
                    CountedCipherPayload(
                        p,
                        ACTIVE,
                        kind="histograms",
                        n_ciphers=len(nodes) * per_node_ciphers,
                    )
                )
            results[p] = per_node
        return results

    def _passive_histograms_real(
        self,
        party: int,
        dataset: BinnedDataset,
        nodes,
        node_rows,
        grad_ciphers,
        hess_ciphers,
        raw_pairs: list[int] | None,
        channel,
        context: PaillierContext,
        public_context: PaillierContext,
        layout: GradHessLayout | None,
    ) -> dict[int, Histogram]:
        """Real-crypto path: homomorphic build, (packed) transfer, decrypt."""
        per_node: dict[int, Histogram] = {}
        encrypted: dict[int, EncryptedHistogram] = {}
        for node_id in nodes:
            encrypted[node_id] = build_encrypted_histogram(
                public_context,
                dataset.codes,
                node_rows[node_id],
                grad_ciphers,
                hess_ciphers,
                dataset.n_bins,
                reordered=self.config.reordered_accumulation,
            )
        if layout is not None:
            packed_msg = PackedHistogramMessage(party, ACTIVE)
            packed_all = {}
            for node_id, enc_hist in encrypted.items():
                packed = pack_histogram(public_context, enc_hist, layout)
                packed_all[node_id] = packed
                packed_msg.packed[node_id] = packed.packs
            channel.send(packed_msg)
            for node_id, packed in packed_all.items():
                # B's own sum over the node: every feature's last prefix.
                total = sum(raw_pairs[i] for i in node_rows[node_id].tolist())
                per_node[node_id] = unpack_histogram(context, packed, total)
        else:
            message = EncryptedHistogramMessage(party, ACTIVE)
            for node_id, enc_hist in encrypted.items():
                message.histograms[node_id] = (
                    enc_hist.grad_bins,
                    enc_hist.hess_bins,
                )
            channel.send(message)
            for node_id, enc_hist in encrypted.items():
                per_node[node_id] = decrypt_histogram(context, enc_hist)
        return per_node

    def _global_best_split(
        self,
        active_hist: Histogram,
        passive_hists: dict[int, Histogram],
        n_node: int,
    ) -> tuple[int, SplitCandidate | None, SplitCandidate]:
        """B compares its candidate with every passive party's.

        Returns the winning owner/candidate plus B's own candidate (the
        one the optimistic strategy would have split with).
        """
        params = self.config.params
        active_candidate = find_best_split(active_hist, params)
        best_owner, best = ACTIVE, active_candidate
        for p, hist in passive_hists.items():
            candidate = find_best_split(
                hist, params, check_counts=False, node_instances=n_node
            )
            if candidate.is_valid and (
                not best.is_valid or candidate.gain > best.gain
            ):
                best_owner, best = p, candidate
        if not best.is_valid:
            return -1, None, active_candidate
        return best_owner, best, active_candidate

    def _misplaced_fraction(
        self,
        party_datasets,
        rows: np.ndarray,
        owner: int,
        best: SplitCandidate,
        active_candidate: SplitCandidate,
    ) -> float:
        """Share of a dirty node's rows the optimistic split misplaced.

        Compares the placement under B's optimistic candidate with the
        correct placement under the winning passive split — the exact
        quantity the §8 incremental-redo optimization needs.
        """
        if not active_candidate.is_valid:
            return 1.0
        optimistic = (
            party_datasets[ACTIVE].codes[rows, active_candidate.feature]
            <= active_candidate.bin_index
        )
        correct = (
            party_datasets[owner].codes[rows, best.feature] <= best.bin_index
        )
        # Placements are direction-agnostic: the better orientation of
        # the optimistic split counts as "already correct".
        disagree = float(np.mean(optimistic != correct))
        return min(disagree, 1.0 - disagree) * 2.0

    def _materialize_split(
        self,
        node_id: int,
        owner: int,
        best: SplitCandidate,
        rows: np.ndarray,
        party_datasets,
        tree: DecisionTree,
        channel: RecordingChannel,
        n_passive: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Owner splits; the placement bitmap is synchronized (§3.2)."""
        dataset = party_datasets[owner]
        threshold = dataset.threshold_for(best.feature, best.bin_index)
        tree.split_node(
            node_id,
            owner=owner,
            feature=best.feature,
            bin_index=best.bin_index,
            threshold=threshold,
            gain=best.gain,
        )
        placement = dataset.codes[rows, best.feature] <= best.bin_index
        left_rows, right_rows = rows[placement], rows[~placement]
        if owner == ACTIVE:
            for p in range(1, n_passive + 1):
                channel.send(
                    InstancePlacement(ACTIVE, p, node_id=node_id, placement=placement)
                )
        else:
            flat = best.feature * dataset.n_bins + best.bin_index
            channel.send(
                SplitDecision(
                    ACTIVE, owner, node_id=node_id, owner=owner, bin_flat_index=flat
                )
            )
            channel.send(SplitQuery(ACTIVE, owner, node_id=node_id, bin_flat_index=flat))
            channel.send(
                SplitAnswer(owner, ACTIVE, node_id=node_id, placement=placement)
            )
            for p in range(1, n_passive + 1):
                if p != owner:
                    channel.send(
                        InstancePlacement(
                            owner, p, node_id=node_id, placement=placement
                        )
                    )
        return left_rows, right_rows

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _make_context(self) -> PaillierContext:
        return PaillierContext.create(
            self.config.key_bits,
            seed=self.config.seed,
            jitter=self.config.exponent_jitter,
        )
