"""Fault injection, reliable delivery, and checkpoint/resume.

The headline invariant of ``repro.fed.faults``: under any *survivable*
fault plan — every message eventually delivered within its retry
budget — the trained model is **bit-identical** to the fault-free run.
Faults perturb when and how often bytes move, never what they say.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.config import VF2BoostConfig
from repro.core.serialization import (
    load_checkpoint,
    model_to_payloads,
    save_checkpoint,
    trace_to_payload,
)
from repro.core.party import ProtocolError
from repro.core.trainer import FederatedTrainer, TrainingInterrupted
from repro.fed.channel import RecordingChannel
from repro.fed.faults import FaultPlan, LaneSlowdown, PauseWindow
from repro.fed.messages import Ack, SplitQuery
from repro.fed.reliable import DeliveryError, ReliableChannel
from repro.fed.retry import RetryPolicy
from repro.fed.simtime import FaultyEngine, SimEngine, party_of_resource
from repro.gbdt.params import GBDTParams
from repro.obs.events import EventLog


def _model_bytes(result) -> str:
    """Canonical serialized form for bit-identity comparison."""
    return json.dumps(model_to_payloads(result.model), sort_keys=True)


def _assert_drained(result) -> None:
    """Every message of the fit was read by the party it was sent to."""
    channel = result.channel
    for sender, receiver in list(channel.stats):
        assert channel.receive_all(sender, receiver) == []
        assert channel.pending(sender, receiver) == 0


# ----------------------------------------------------------------------
# FaultPlan: the replayable schedule
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        a = FaultPlan(seed=9, drop_rate=0.5)
        b = FaultPlan(seed=9, drop_rate=0.5)
        for seq in range(50):
            assert a.drops_message(0, 1, seq, 0) == b.drops_message(0, 1, seq, 0)

    def test_seed_changes_the_schedule(self):
        a = FaultPlan(seed=1, drop_rate=0.5)
        b = FaultPlan(seed=2, drop_rate=0.5)
        decisions_a = [a.drops_message(0, 1, s, 0) for s in range(64)]
        decisions_b = [b.drops_message(0, 1, s, 0) for s in range(64)]
        assert decisions_a != decisions_b

    def test_rates_approximate_probability(self):
        plan = FaultPlan(seed=3, drop_rate=0.3)
        hits = sum(plan.drops_message(0, 1, s, 0) for s in range(2000))
        assert 0.25 < hits / 2000 < 0.35

    def test_retransmit_attempt_redraws(self):
        # The draw is keyed on the attempt too, so a retransmission can
        # succeed where the original was dropped.
        plan = FaultPlan(seed=4, drop_rate=0.5)
        outcomes = {
            plan.drops_message(0, 1, seq, 0) != plan.drops_message(0, 1, seq, 1)
            for seq in range(64)
        }
        assert True in outcomes

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_rate": -0.1},
            {"drop_rate": 1.0},
            {"duplicate_rate": 1.5},
            {"ack_drop_rate": -1e-9},
            {"delay_rate": 1.0},
            {"crash_after_trees": (-1,)},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_pause_window_validation(self):
        with pytest.raises(ValueError):
            PauseWindow(party=0, start=1.0, end=1.0)
        with pytest.raises(ValueError):
            PauseWindow(party=0, start=-0.1, end=1.0)
        with pytest.raises(ValueError):
            LaneSlowdown(resource="A1", factor=0.5)

    def test_paused_at_and_slowdown(self):
        plan = FaultPlan(
            pauses=(PauseWindow(party=1, start=1.0, end=2.0),),
            slowdowns=(
                LaneSlowdown("A1", 2.0),
                LaneSlowdown("A1", 3.0),
            ),
        )
        assert plan.paused_at(1, 1.5) is not None
        assert plan.paused_at(1, 2.0) is None  # half-open interval
        assert plan.paused_at(0, 1.5) is None
        assert plan.slowdown_factor("A1") == 3.0  # max over matches
        assert plan.slowdown_factor("B") == 1.0

    def test_round_trip_dict(self):
        plan = FaultPlan(
            seed=11,
            drop_rate=0.1,
            duplicate_rate=0.2,
            delay_rate=0.05,
            ack_drop_rate=0.15,
            pauses=(PauseWindow(party=1, start=0.5, end=1.5),),
            slowdowns=(LaneSlowdown("A1", 2.5),),
            crash_after_trees=(0, 2),
        )
        restored = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            FaultPlan.from_dict({"seed": 1, "jitter_rate": 0.5})
        # a plan saved while the delay was a field: the field is gone
        old = {**FaultPlan(delay_rate=0.1).to_dict(), "delay_seconds": 0.05}
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultPlan.from_dict(old)

    def test_is_null_and_describe(self):
        assert FaultPlan().is_null
        plan = FaultPlan(seed=7, drop_rate=0.1, crash_after_trees=(1,))
        assert not plan.is_null
        assert plan.crashes_after(1) and not plan.crashes_after(0)
        assert "drop=0.1" in plan.describe()

    def test_party_of_resource_convention(self):
        assert party_of_resource("B") == 0
        assert party_of_resource("B.dec") == 0
        assert party_of_resource("A1") == 1
        assert party_of_resource("A2.enc") == 2
        assert party_of_resource("WAN.B->A1") is None


# ----------------------------------------------------------------------
# RetryPolicy validation (regression: knobs used to be unchecked)
# ----------------------------------------------------------------------
class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"max_retries": -1},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_sequence(self):
        policy = RetryPolicy()
        waits = [policy.backoff(attempt) for attempt in range(1, 8)]
        # 0.05 s, doubling per retry, capped at 1 s.
        assert waits == pytest.approx([0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0])
        with pytest.raises(ValueError):
            policy.backoff(0)


# ----------------------------------------------------------------------
# ReliableChannel: exactly-once over a lossy wire
# ----------------------------------------------------------------------
def _reliable(plan, policy=None):
    inner = RecordingChannel(key_bits=256)
    return ReliableChannel(inner, plan=plan, policy=policy)


class TestReliableChannel:
    def test_exactly_once_in_order_under_heavy_faults(self):
        plan = FaultPlan(
            seed=21, drop_rate=0.3, duplicate_rate=0.3, ack_drop_rate=0.3
        )
        channel = _reliable(plan, RetryPolicy(max_retries=8))
        for i in range(40):
            channel.send(
                SplitQuery(sender=0, receiver=1, node_id=i, bin_flat_index=i)
            )
        received = channel.receive_all(0, 1)
        assert [m.node_id for m in received] == list(range(40))
        assert channel.counters.dedupe_dropped > 0
        assert channel.counters.resends > 0
        assert not any(isinstance(m, Ack) for m in received)

    def test_null_plan_is_pass_through(self):
        plain = RecordingChannel(key_bits=256)
        wrapped = ReliableChannel(RecordingChannel(key_bits=256), plan=None)
        for ch in (plain, wrapped):
            ch.send(SplitQuery(sender=0, receiver=1, node_id=3))
        message = wrapped.receive(0, 1)
        assert message.seq == -1  # never stamped
        assert wrapped.counters.acks == 0
        assert wrapped.total_bytes() == plain.total_bytes()
        assert wrapped.clock == 0.0

    def test_pause_window_survived(self):
        plan = FaultPlan(pauses=(PauseWindow(party=1, start=0.0, end=0.4),))
        channel = _reliable(plan, RetryPolicy(timeout=0.25, max_retries=3))
        channel.send(SplitQuery(sender=0, receiver=1, node_id=1))
        assert channel.receive(0, 1).node_id == 1
        assert channel.counters.pause_waits > 0
        assert channel.clock >= 0.4  # waited out the window

    def test_unsurvivable_plan_raises_delivery_error(self):
        plan = FaultPlan(seed=2, drop_rate=0.95)
        channel = _reliable(plan, RetryPolicy(max_retries=1))
        with pytest.raises(DeliveryError, match="attempts"):
            for i in range(30):
                channel.send(SplitQuery(sender=0, receiver=1, node_id=i))
        assert channel.counters.delivery_failures == 1

    def test_delivered_but_all_acks_lost_still_succeeds(self):
        # Close to the worst ack weather: the message lands every time,
        # the sender never hears back. Forward progress confirms it.
        plan = FaultPlan(seed=5, ack_drop_rate=0.99)
        channel = _reliable(plan, RetryPolicy(max_retries=2))
        for i in range(10):
            channel.send(SplitQuery(sender=0, receiver=1, node_id=i))
        received = channel.receive_all(0, 1)
        assert [m.node_id for m in received] == list(range(10))
        assert channel.counters.delivery_failures == 0

    def test_dropped_bytes_accounted_off_ledger(self):
        plan = FaultPlan(seed=8, drop_rate=0.4)
        channel = _reliable(plan, RetryPolicy(max_retries=10))
        for i in range(30):
            channel.send(SplitQuery(sender=0, receiver=1, node_id=i))
        assert channel.counters.drops > 0
        assert channel.counters.dropped_bytes > 0
        # Dropped transmissions never reach the inner queues.
        assert len(channel.receive_all(0, 1)) == 30

    def test_replay_is_deterministic(self):
        def run():
            plan = FaultPlan(
                seed=13, drop_rate=0.2, duplicate_rate=0.2, ack_drop_rate=0.2
            )
            channel = _reliable(plan, RetryPolicy(max_retries=8))
            for i in range(25):
                channel.send(SplitQuery(sender=0, receiver=1, node_id=i))
            return channel.summary(), channel.event_log.to_dicts()

        assert run() == run()

    def test_tallies_stay_exact_when_the_log_evicts(self):
        # A ring buffer may evict; the counters summary() reads may not.
        def run(log):
            plan = FaultPlan(
                seed=13, drop_rate=0.2, duplicate_rate=0.2, ack_drop_rate=0.2
            )
            channel = ReliableChannel(
                RecordingChannel(key_bits=256),
                plan=plan,
                policy=RetryPolicy(max_retries=8),
                event_log=log,
            )
            for i in range(25):
                channel.send(SplitQuery(sender=0, receiver=1, node_id=i))
            return channel.summary()

        small, roomy = EventLog(capacity=8), EventLog()
        summary = run(small)
        assert summary == run(roomy)
        assert summary["events"] == roomy.total == small.total > 8
        assert small.evicted == summary["events"] - 8
        kinds = [event.kind for event in roomy.events()]
        assert summary["drops"] == kinds.count("drop") > 0
        assert summary["resends"] == kinds.count("resend") > 0


# ----------------------------------------------------------------------
# The headline invariant: fault matrix -> bit-identical models
# ----------------------------------------------------------------------
_MATRIX_PLANS = [
    ("drops", lambda seed: FaultPlan(seed=seed, drop_rate=0.15)),
    ("duplicates", lambda seed: FaultPlan(seed=seed, duplicate_rate=0.25)),
    ("delays", lambda seed: FaultPlan(seed=seed, delay_rate=0.25)),
    (
        "mixed",
        lambda seed: FaultPlan(
            seed=seed, drop_rate=0.1, duplicate_rate=0.1, ack_drop_rate=0.1
        ),
    ),
]


class TestFaultMatrix:
    @pytest.fixture()
    def baseline(self, counted_config, party_datasets):
        parties, labels = party_datasets
        result = FederatedTrainer(counted_config).fit(parties, labels)
        return _model_bytes(result)

    @pytest.mark.parametrize("kind,make_plan", _MATRIX_PLANS)
    @pytest.mark.parametrize("seed", [1, 19])
    def test_survivable_faults_leave_model_bit_identical(
        self, counted_config, party_datasets, baseline, kind, make_plan, seed
    ):
        parties, labels = party_datasets
        result = FederatedTrainer(counted_config).fit(
            parties,
            labels,
            fault_plan=make_plan(seed),
            retry_policy=RetryPolicy(max_retries=8),
        )
        assert _model_bytes(result) == baseline
        assert result.faults[kind if kind != "mixed" else "drops"] > 0
        assert result.faults["delivery_failures"] == 0
        # The oracle bites: the parties act on what they receive, so a
        # duplicate or a resend after a lost ack reaches a receiver and
        # only the dedupe keeps the model above identical.
        if kind in ("duplicates", "mixed"):
            assert result.faults["dedupe_dropped"] > 0
        if kind == "duplicates":
            assert result.faults["dedupe_dropped"] == result.faults["duplicates"]
        _assert_drained(result)

    @pytest.mark.parametrize("mode", ["real", "counted"])
    @pytest.mark.parametrize("seed", [8, 9])
    def test_without_dedupe_a_stale_histogram_fails_loudly(
        self, monkeypatch, mode, seed
    ):
        # The same kind of faulted run with receive-side dedupe switched
        # off: the duplicated root histograms are read as the next
        # layer's and refused — never a silently different model.
        from repro.bench.scenario import GOLDEN

        monkeypatch.setattr(
            ReliableChannel, "_applies", lambda self, m: not isinstance(m, Ack)
        )
        parties, labels = GOLDEN.parties()
        with pytest.raises(ProtocolError, match=r"sent nodes \[0\], this layer builds \[1\]"):
            FederatedTrainer(GOLDEN.config(crypto_mode=mode)).fit(
                parties,
                labels,
                fault_plan=FaultPlan(seed=seed, duplicate_rate=0.25),
                retry_policy=RetryPolicy(max_retries=8),
            )

    @pytest.mark.parametrize("kind,make_plan", _MATRIX_PLANS)
    def test_without_receive_side_filtering_every_plan_fails_typed(
        self, monkeypatch, counted_config, party_datasets, kind, make_plan
    ):
        # ``_applies`` forced true: acks and stale copies surface, and the
        # first party to read one raises a typed error.
        monkeypatch.setattr(ReliableChannel, "_applies", lambda self, m: True)
        parties, labels = party_datasets
        with pytest.raises(ProtocolError, match="expected"):
            FederatedTrainer(counted_config).fit(
                parties,
                labels,
                fault_plan=make_plan(1),
                retry_policy=RetryPolicy(max_retries=8),
            )

    def test_crash_and_resume_bit_identical(
        self, counted_config, party_datasets, baseline, tmp_path
    ):
        parties, labels = party_datasets
        plan = FaultPlan(seed=5, drop_rate=0.1, crash_after_trees=(0, 1))
        result = FederatedTrainer(counted_config).fit_resilient(
            parties,
            labels,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=8),
            checkpoint_dir=str(tmp_path),
        )
        assert _model_bytes(result) == baseline
        assert result.faults["resumes"] == 2
        _assert_drained(result)

    def test_faulted_resumed_run_keeps_the_built_set(
        self, counted_config, party_datasets, tmp_path
    ):
        # Histogram subtraction carries per-layer state (the parents'
        # plaintext histograms); drops, resends and a resume from a
        # checkpoint must leave the built/derived marks, hence the
        # histogram traffic of every tree, exactly as in the clean run.
        parties, labels = party_datasets
        clean = FederatedTrainer(counted_config).fit(parties, labels)
        result = FederatedTrainer(counted_config).fit_resilient(
            parties,
            labels,
            fault_plan=FaultPlan(seed=5, drop_rate=0.1, crash_after_trees=(0,)),
            retry_policy=RetryPolicy(max_retries=8),
            checkpoint_dir=str(tmp_path),
        )
        assert _model_bytes(result) == _model_bytes(clean)
        assert trace_to_payload(result.trace) == trace_to_payload(clean.trace)
        marks = [
            node.derived
            for layer in result.trace.trees[0].layers
            for node in layer.nodes
        ]
        assert True in marks and False in marks

    def test_crash_without_checkpoint_dir_rejected(
        self, counted_config, party_datasets
    ):
        parties, labels = party_datasets
        plan = FaultPlan(crash_after_trees=(0,))
        with pytest.raises(ValueError, match="checkpoint_dir"):
            FederatedTrainer(counted_config).fit(
                parties, labels, fault_plan=plan
            )

    def test_fit_raises_training_interrupted_at_crash_boundary(
        self, counted_config, party_datasets, tmp_path
    ):
        parties, labels = party_datasets
        plan = FaultPlan(crash_after_trees=(0,))
        with pytest.raises(TrainingInterrupted) as info:
            FederatedTrainer(counted_config).fit(
                parties, labels, fault_plan=plan, checkpoint_dir=str(tmp_path)
            )
        assert info.value.completed_trees == 1
        assert os.path.exists(info.value.checkpoint_path)

    def test_run_report_carries_fault_summary(
        self, counted_config, party_datasets
    ):
        parties, labels = party_datasets
        result = FederatedTrainer(counted_config).fit(
            parties,
            labels,
            fault_plan=FaultPlan(seed=3, drop_rate=0.1),
            retry_policy=RetryPolicy(max_retries=8),
        )
        report = result.run_report(label="faulted").to_dict()
        assert report["version"] >= 3  # faults field arrived in v3
        assert report["faults"]["drops"] > 0
        assert report["faults"]["plan"]["drop_rate"] == 0.1
        assert report["faults"]["recovery_seconds"] > 0


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def _interrupt(self, config, parties, labels, tmp_path, after=(1,)):
        try:
            FederatedTrainer(config).fit(
                parties,
                labels,
                fault_plan=FaultPlan(crash_after_trees=tuple(after)),
                checkpoint_dir=str(tmp_path),
            )
        except TrainingInterrupted as interrupt:
            return interrupt
        raise AssertionError("expected a crash")

    def test_resume_matches_uninterrupted(
        self, counted_config, party_datasets, tmp_path
    ):
        parties, labels = party_datasets
        baseline = FederatedTrainer(counted_config).fit(parties, labels)
        interrupt = self._interrupt(counted_config, parties, labels, tmp_path)
        resumed = FederatedTrainer(counted_config).fit(
            parties, labels, resume_from=interrupt.checkpoint_path
        )
        assert _model_bytes(resumed) == _model_bytes(baseline)
        assert [r.tree_index for r in resumed.history] == [
            r.tree_index for r in baseline.history
        ]

    def test_checkpoint_round_trip_fields(
        self, counted_config, party_datasets, tmp_path
    ):
        parties, labels = party_datasets
        interrupt = self._interrupt(counted_config, parties, labels, tmp_path)
        state = load_checkpoint(
            interrupt.checkpoint_path, config=counted_config
        )
        assert state["next_tree"] == interrupt.completed_trees
        assert len(state["margins"]) == labels.shape[0]
        assert len(state["history"]) == interrupt.completed_trees
        assert len(state["trace"].trees) == interrupt.completed_trees

    def test_fingerprint_mismatch_rejected(
        self, counted_config, party_datasets, tmp_path
    ):
        from repro.core.serialization import ModelFormatError

        parties, labels = party_datasets
        interrupt = self._interrupt(counted_config, parties, labels, tmp_path)
        other = counted_config.replace(
            params=GBDTParams(n_trees=5, n_layers=4, n_bins=10)
        )
        with pytest.raises(ModelFormatError, match="different configuration"):
            load_checkpoint(interrupt.checkpoint_path, config=other)

    def test_unknown_checkpoint_version_rejected(self, tmp_path):
        from repro.core.serialization import ModelFormatError

        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"checkpoint_format_version": 99}))
        with pytest.raises(ModelFormatError, match="version"):
            load_checkpoint(str(path))

    def test_real_crypto_resume_bit_identical(self, party_datasets, tmp_path):
        # exponent_jitter=1 pins the encoding exponent, so the resumed
        # run's ciphertext stream decodes to the exact same statistics.
        parties, labels = party_datasets
        config = VF2BoostConfig.vf2boost(
            params=GBDTParams(n_trees=2, n_layers=3, n_bins=8),
            crypto_mode="real",
            key_bits=256,
            exponent_jitter=1,
            blaster_batch_size=128,
        )
        subset = np.arange(120)
        parties = [p.subset_instances(subset) for p in parties]
        labels = labels[subset]
        baseline = FederatedTrainer(config).fit(parties, labels)
        # B's raw (g, h) integers — the node totals that close every
        # packed feature — are per-tree state: the resumed run rebuilds
        # them, also when messages were dropped on the way to the crash.
        for plan in (
            FaultPlan(crash_after_trees=(0,)),
            FaultPlan(seed=5, drop_rate=0.1, crash_after_trees=(0,)),
        ):
            result = FederatedTrainer(config).fit_resilient(
                parties, labels, fault_plan=plan, checkpoint_dir=str(tmp_path)
            )
            assert _model_bytes(result) == _model_bytes(baseline)
        assert result.faults["drops"] > 0 and result.faults["resumes"] == 1


# ----------------------------------------------------------------------
# Engine perturbations
# ----------------------------------------------------------------------
class TestFaultyEngine:
    def test_straggler_stretches_duration(self):
        plan = FaultPlan(slowdowns=(LaneSlowdown("A1", 2.0),))
        healthy, faulty = SimEngine(), FaultyEngine(plan)
        for engine in (healthy, faulty):
            engine.submit("A1", 1.0, name="hist")
            engine.submit("B", 1.0, name="dec")
        assert faulty.tasks[0].end == pytest.approx(2 * healthy.tasks[0].end)
        assert faulty.tasks[1].end == pytest.approx(healthy.tasks[1].end)

    def test_pause_pushes_task_start(self):
        plan = FaultPlan(
            pauses=(
                PauseWindow(party=1, start=0.0, end=1.0),
                PauseWindow(party=1, start=1.0, end=1.5),  # chained
            )
        )
        engine = FaultyEngine(plan)
        task = engine.submit("A1", 0.5, name="hist")
        assert task.start == pytest.approx(1.5)
        untouched = engine.submit("B", 0.5, name="dec")
        assert untouched.start == pytest.approx(0.0)

    def test_pause_spares_wan_and_tasks_running_through(self):
        plan = FaultPlan(pauses=(PauseWindow(party=1, start=1.0, end=2.0),))
        engine = FaultyEngine(plan)
        # Starts before the window and runs through it: not moved.
        lead = engine.submit("B", 0.5, name="lead")
        through = engine.submit("A1", 1.0, deps=[lead], name="hist")
        assert (through.start, through.end) == (0.5, 1.5)
        # WAN resources belong to no party.
        gate = engine.submit("B.dec", 1.2, name="gate")
        wan = engine.submit("WAN.B->A1", 0.2, deps=[gate], name="comm")
        assert wan.start == 1.2
        # The party's next task on the lane would start inside the window.
        after = engine.submit("A1", 0.0, name="anchor")
        assert after.start == 2.0

    def test_sch005_fires_on_violating_graph(self):
        plan = FaultPlan(pauses=(PauseWindow(party=1, start=1.0, end=2.0),))
        engine = FaultyEngine(plan)
        # Released at 1.2, inside party 1's pause window.
        lead = engine.submit("B.dec", 1.2, name="lead")
        hist = engine.submit("A1", 0.6, deps=[lead], name="hist")
        dec = engine.submit("B", 0.4, deps=[hist], name="dec")
        assert plan.paused_at(1, 1.2) is not None
        assert (hist.start, hist.end) == pytest.approx((2.0, 2.6))
        assert plan.paused_at(1, hist.start) is None
        assert dec.start == pytest.approx(hist.end)

    def test_scheduler_self_check_stays_clean_under_faults(self, schedule_graphs):
        # The engine refused no task while building these graphs, so a
        # straggler lane and a pause window left them race-free.
        graphs = [g for g in schedule_graphs if g[1] is not None]
        assert graphs
        for _label, plan, graph in graphs:
            for task in graph:
                party = party_of_resource(task.resource)
                assert party is None or plan.paused_at(party, task.start) is None


# ----------------------------------------------------------------------
# Reports, bench gate, CLI wiring
# ----------------------------------------------------------------------
class TestReporting:
    def test_run_report_faults_round_trip(self, tmp_path):
        from repro.obs.report import RunReport

        report = RunReport(
            kind="train", label="x", faults={"drops": 3, "resends": 2}
        )
        path = tmp_path / "report.json"
        report.save(str(path))
        assert RunReport.load(str(path)).faults == {"drops": 3, "resends": 2}

    def test_v2_report_without_faults_loads(self, tmp_path):
        from repro.obs.report import RunReport

        data = RunReport(kind="train", label="old").to_dict()
        data.pop("faults")
        data["version"] = 2
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        assert RunReport.load(str(path)).faults == {}

    def test_bench_faults_scenario_deterministic(self):
        from repro.bench.perfdb import faults_scenario

        first, second = faults_scenario(), faults_scenario()
        assert first.scalars == second.scalars
        assert first.scalars["resends"].value > 0
        assert first.scalars["sim_recovery_overhead"].value > 0


class TestCLI:
    def test_faults_smoke_sweep(self, capsys):
        from repro.cli import main

        assert main(["faults", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "identical" in out and "DIVERGED" not in out

    def test_train_with_crash_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main(
            [
                "train",
                "--rows", "120", "--features", "6", "--trees", "3",
                "--layers", "3", "--bins", "6",
                "--fault-seed", "3", "--drop-rate", "0.05",
                "--crash-after", "0",
                "--checkpoint-dir", str(tmp_path / "ckpts"),
                "--report-out", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["faults"]["resumes"] == 1
        assert "resume(s)" in capsys.readouterr().out

    def test_resume_from_a_foreign_checkpoint_prints_an_error_line(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        small = ["--rows", "120", "--features", "6", "--layers", "3"]
        ckpts = tmp_path / "ckpts"
        assert main(["train", *small, "--trees", "2", "--checkpoint-dir", str(ckpts)]) == 0
        capsys.readouterr()
        foreign = str(ckpts / "ckpt_tree0001.json")
        code = main(["train", *small, "--trees", "3", "--bins", "4", "--resume-from", foreign])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: checkpoint was written under")
