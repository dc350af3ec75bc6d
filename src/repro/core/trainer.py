"""The vertical federated GBDT trainer: a driver over two kinds of party.

The protocol of §3.2 (SecureBoost + VF²Boost) is played by the parties
of :mod:`repro.core.party` — one :class:`~repro.core.party.ActiveParty`
(Party B, the label holder) and one or more
:class:`~repro.core.party.PassiveParty` — who share nothing but the
channel.  :class:`FederatedTrainer` opens the channel, builds the
parties (``crypto_mode`` is decided there: ``"real"`` executes every
Paillier operation, ``"counted"`` runs the same messages on plaintext,
each sized as the real one, byte for byte — the protocol is lossless, so
the model is bit-identical) and pumps their steps phase by phase.  It owns
what no party does: the phase seam (:meth:`_phase`), events,
checkpoints and resume, incident reports, and the :class:`TraceLog` —
which party won each node, which nodes the optimistic strategy would
have dirtied, instance counts — that the scheduler prices.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import VF2BoostConfig

# The end-to-end tracer (benchmarks/e2e/tracing.py, frozen) patches these
# six functions where they are defined *and* as names bound here; the
# parties call them through their modules.  Stays while the benchmark is
# frozen (ROADMAP's frozen-inputs constraint).
from repro.core.enc_histogram import (  # noqa: F401
    build_encrypted_histogram,
    decrypt_histogram,
    pack_histogram,
    unpack_histogram,
)
from repro.core.party import ACTIVE, ActiveParty, PassiveParty, ProtocolError, make_parties
from repro.core.trace import LayerTrace, NodeTrace, PartyShape, TraceLog, TreeTrace
from repro.crypto.ciphertext import OpStats
from repro.fed.channel import RecordingChannel
from repro.gbdt.binning import BinnedDataset
from repro.gbdt.boosting import EvalRecord
from repro.gbdt.histogram import build_histogram  # noqa: F401 (tracer, see above)
from repro.gbdt.metrics import auc
from repro.gbdt.split import find_best_split  # noqa: F401 (tracer, see above)
from repro.gbdt.tree import DecisionTree
from repro.obs.events import EventLog

if TYPE_CHECKING:  # fault injection loads only for a plan that perturbs
    from repro.fed.faults import FaultPlan
    from repro.fed.reliable import ReliableChannel
    from repro.fed.retry import RetryPolicy

__all__ = [
    "ACTIVE",
    "FederatedModel",
    "FederatedTrainer",
    "TrainResult",
    "TrainingInterrupted",
]

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
        incidents: paths of incident reports snapshotted during the
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


@dataclass
class _Run:
    """What the steps of one :meth:`FederatedTrainer.fit` call share."""

    channel: RecordingChannel | ReliableChannel
    active: ActiveParty
    passives: dict[int, PassiveParty]
    profile: dict = field(default_factory=dict)

    @property
    def parties(self) -> list:
        """Party B first; in real mode each holds a Paillier ``context``."""
        return [self.active, *self.passives.values()]

    @property
    def clock(self) -> float:
        """The fault-recovery clock, a fit's only simulated one (0.0 without faults)."""
        return getattr(self.channel, "clock", 0.0)


class FederatedTrainer:
    """Drives the vertical federated GBDT protocol between the parties.

    Args:
        config: system configuration (optimization flags, crypto mode...).
        incident_dir: when set, a crash
            (:class:`TrainingInterrupted`) and a survivable-fault
            recovery each snapshot an incident
            :class:`~repro.obs.report.RunReport`
            (:mod:`repro.obs.incident`) into this directory; paths
            ride on :attr:`TrainResult.incidents`.

    The trainer records into its own
    :class:`~repro.obs.events.EventLog` (:attr:`events`): phase, tree,
    checkpoint and crash transitions under subsystem ``"trainer"``, plus
    the reliable channel's fault events when a plan is active.  Pure
    metadata: no channel traffic, no crypto ops, so golden op counts are
    untouched.

    Example:
        >>> config = VF2BoostConfig.vf2boost(crypto_mode="counted")
        >>> trainer = FederatedTrainer(config)
        >>> result = trainer.fit(party_datasets, labels)
    """

    def __init__(self, config: VF2BoostConfig, incident_dir: str | None = None) -> None:
        self.config = config
        self.events = EventLog()
        self.incident_dir = incident_dir
        self.incidents: list[str] = []

    @contextmanager
    def _phase(self, run: _Run, name: str, **where):
        """Enter protocol phase ``name`` — the one place a phase is marked.

        Emits the ``phase`` event, then adds the ops the run's contexts
        perform over the block to ``run.profile`` — its ``ops`` totals
        and its ``phases[name]`` row, in :class:`OpStats` field names.
        """
        self._emit_event(run, "phase", name=name, **where)
        contexts = [p.context for p in run.parties if p.context is not None]
        before = [context.stats.snapshot() for context in contexts]
        yield
        if not contexts:
            return
        ops = run.profile.setdefault("ops", OpStats().to_dict())
        row = run.profile.setdefault("phases", {}).setdefault(name, OpStats().to_dict())
        for context, start in zip(contexts, before):
            for op, count in context.stats.diff(start).to_dict().items():
                ops[op] += count
                row[op] += count

    def _emit_event(self, run: _Run, kind: str, **payload) -> None:
        """Record one trainer transition on the recovery clock (``seq`` orders ties)."""
        self.events.emit(run.clock, "trainer", kind, **payload)

    def _snapshot_incident(self, run: _Run, kind: str, context: dict) -> None:
        """Save one post-mortem report into ``incident_dir``."""
        from repro.obs.incident import IncidentStore, snapshot_incident

        # Both triggers fire only on the reliable channel of a fault plan.
        report = snapshot_incident(
            kind,
            time=run.clock,
            event_log=self.events,
            profile=run.profile,
            channel=run.channel,
            faults=run.channel.summary(),
            context=context,
        )
        self.incidents.append(IncidentStore(self.incident_dir).save(report))

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
        if any(dataset.n_instances != n for dataset in party_datasets):
            raise ValueError("parties must hold aligned instance sets")
        if labels.shape[0] != n:
            raise ValueError("labels must match the instance count")
        if len(party_datasets) < 2:
            raise ValueError("need at least one passive party")

        params = self.config.params
        channel = RecordingChannel(self.config.key_bits, active_party=ACTIVE)
        reliable = fault_plan is not None and not fault_plan.is_null
        if reliable:
            if fault_plan.crash_after_trees and checkpoint_dir is None:
                raise ValueError(
                    "fault_plan schedules crashes; pass checkpoint_dir so "
                    "the run can be resumed"
                )
            from repro.fed.reliable import ReliableChannel

            channel = ReliableChannel(
                channel, plan=fault_plan, policy=retry_policy, event_log=self.events
            )
        active, passives = make_parties(self.config, party_datasets, labels)
        run = _Run(channel, active, passives)

        shapes = [
            PartyShape(ds.n_features, ds.nnz_per_row(), params.n_bins)
            for ds in party_datasets
        ]
        trace = TraceLog(n_instances=n, active_shape=shapes[0], passive_shapes=shapes[1:])

        base = active.base_score
        model = FederatedModel(learning_rate=params.learning_rate, base_score=base)
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
            active.margins = margins
            history = state["history"]
            trace = state["trace"]
            start_tree = state["next_tree"]
            if valid_margins is not None:
                if state["valid_margins"] is None:
                    raise ValueError(
                        "checkpoint has no validation margins but a "
                        "validation set was passed to the resumed run"
                    )
                valid_margins = np.asarray(state["valid_margins"], dtype=np.float64)
            resumed = os.path.basename(resume_from)
            self._emit_event(run, "checkpoint_resumed", next_tree=start_tree, checkpoint=resumed)

        for t in range(start_tree, params.n_trees):
            self._emit_event(run, "tree_start", tree=t)
            try:
                tree, tree_trace = self._train_tree(run, t)
            finally:  # however the tree ends, every Party A leaves its tree's block
                for party in run.passives.values():
                    party.end_tree()
            model.trees.append(tree)
            trace.trees.append(tree_trace)
            record = EvalRecord(tree_index=t, train_loss=active.train_loss())
            if valid_margins is not None:
                valid_margins += params.learning_rate * tree.predict_federated(
                    valid_party_codes
                )
                record.valid_loss = active.loss.loss(valid_labels, valid_margins)
                try:
                    record.valid_auc = auc(valid_labels, valid_margins)
                except ValueError:
                    record.valid_auc = None
            history.append(record)
            self._emit_event(run, "tree_end", tree=t, train_loss=record.train_loss)
            checkpoint_path = written = None
            if checkpoint_dir is not None:
                from repro.core.serialization import save_checkpoint

                checkpoint_path = save_checkpoint(
                    os.path.join(checkpoint_dir, f"ckpt_tree{t + 1:04d}.json"),
                    config=self.config,
                    model=model,
                    margins=active.margins,
                    history=history,
                    trace=trace,
                    next_tree=t + 1,
                    valid_margins=valid_margins,
                )
                written = os.path.basename(checkpoint_path)
                self._emit_event(run, "checkpoint_written", tree=t, checkpoint=written)
            if (
                fault_plan is not None
                and fault_plan.crashes_after(t)
                and t + 1 < params.n_trees
            ):
                self._emit_event(run, "crash", tree=t, checkpoint=written)
                if self.incident_dir is not None:
                    self._snapshot_incident(
                        run,
                        "training_interrupted",
                        context={"completed_trees": t + 1, "checkpoint": written},
                    )
                raise TrainingInterrupted(checkpoint_path, t + 1)
        if (
            self.incident_dir is not None
            and reliable
            and (channel.counters.drops or channel.counters.resends)
        ):
            self._snapshot_incident(
                run,
                "fault_recovery",
                context={
                    "recovery_seconds": channel.clock,
                    "drops": channel.counters.drops,
                    "resends": channel.counters.resends,
                    "dedupe_dropped": channel.counters.dedupe_dropped,
                },
            )
        return TrainResult(
            model=model,
            trace=trace,
            history=history,
            channel=channel,
            crypto_stats={
                party.id: party.context.stats.snapshot()
                for party in run.parties
                if party.context is not None
            },
            profile=run.profile,
            faults=channel.summary() if reliable else {},
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
                    party_datasets, labels, valid_party_codes, valid_labels,
                    fault_plan=fault_plan, retry_policy=retry_policy,
                    resume_from=resume_from, checkpoint_dir=checkpoint_dir,
                )  # fmt: skip
            except TrainingInterrupted as interrupt:
                resume_from = interrupt.checkpoint_path
                resumes += 1
                continue
            if resumes and result.faults:
                result.faults["resumes"] = resumes
            return result

    # ------------------------------------------------------------------
    # Per-tree driver: pumps the parties' steps, touches no party state
    # ------------------------------------------------------------------
    def _train_tree(self, run: _Run, t: int) -> tuple[DecisionTree, TreeTrace]:
        channel, active = run.channel, run.active
        passives = list(run.passives.values())
        with self._phase(run, "GradEnc", tree=t):
            active.send_gradients(channel)
            for party in passives:
                party.receive_gradients(channel)
        tree_trace = TreeTrace(t, len(active.margins), n_exponents=active.n_exponents)
        for depth in range(self.config.params.max_depth):
            layer = LayerTrace(depth=depth)
            with self._phase(run, "Histogram", tree=t, depth=depth):
                for party in passives:
                    party.send_histograms(channel)
                active.receive_histograms(channel)
            with self._phase(run, "Split", tree=t, depth=depth):
                for node_id in active.frontier:
                    layer.nodes.append(self._split_node(run, node_id))
            tree_trace.layers.append(layer)
            if not layer.n_split_nodes:
                break
        with self._phase(run, "Leaf", tree=t):
            tree = active.send_leaf_weights(channel)
            for party in passives:
                # Each owner's thresholds join the published model.
                for node_id, threshold in party.receive_leaf_weights(channel).items():
                    tree.nodes[node_id].threshold = threshold
        # A tree leaves nothing behind: what still sits in a queue is
        # transport (acks, duplicates and resends the dedupe absorbs).
        for sender, receiver in list(channel.stats):
            unread = channel.receive_all(sender, receiver)
            if unread:
                raise ProtocolError(
                    f"tree {t}: party {receiver} never read {len(unread)} "
                    f"message(s) from party {sender}, first {unread[0]!r:.80}"
                )
        return tree, tree_trace

    def _split_node(self, run: _Run, node_id: int) -> NodeTrace:
        """One node of the Split phase: B decides, the owner places, all follow."""
        channel, active = run.channel, run.active
        node = active.open_split(channel, node_id)
        if node.is_split:
            if node.owner != ACTIVE:
                run.passives[node.owner].answer_split(channel)
                active.close_split(channel, node)
            for party in run.passives.values():
                if party.id != node.owner:
                    party.receive_placement(channel, node.owner)
        return node
