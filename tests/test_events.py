"""Tests for the unified flight-recorder event log (repro.obs.events):
wire format, reserved-key validation, exact ring
eviction, byte-identical JSONL across reruns (including a faulty
training run), and JSONL round-tripping."""

import json

import pytest

from repro.cli import _synthetic_parties
from repro.core.config import VF2BoostConfig
from repro.core.trainer import FederatedTrainer
from repro.fed.faults import FaultPlan
from repro.fed.retry import RetryPolicy
from repro.gbdt.params import GBDTParams
from repro.obs.events import (
    Event,
    EventLog,
    event_from_wire,
    read_events_jsonl,
)


class TestEventSchema:
    def test_wire_form_is_flat(self):
        event = Event(
            time=1.5,
            subsystem="serve.slo",
            kind="rejected",
            labels={"scenario": "batched"},
            payload={"request_id": 7},
        )
        assert event.to_dict() == {
            "kind": "rejected",
            "subsystem": "serve.slo",
            "time": 1.5,
            "scenario": "batched",
            "request_id": 7,
        }

    def test_event_is_an_ordinary_key_but_old_lines_still_parse(self):
        # `event` was a wire alias of `kind`; it is payload like any
        # other key now, and a pre-unification line that names its kind
        # only under `event` is still accepted.
        event = Event(time=1.0, subsystem="s", kind="k", payload={"event": 1})
        assert event.to_dict()["event"] == 1
        old = event_from_wire({"event": "timeout", "time": 1.0})
        assert (old.kind, old.time, old.payload) == ("timeout", 1.0, {})

    def test_line_is_sorted_key_json(self):
        event = Event(time=0.0, subsystem="s", kind="k", payload={"b": 1, "a": 2})
        record = json.loads(event.line())
        assert list(record) == sorted(record)

    @pytest.mark.parametrize("reserved", ["kind", "subsystem", "time"])
    def test_reserved_keys_rejected(self, reserved):
        with pytest.raises(ValueError, match="reserved"):
            Event(time=0.0, subsystem="s", kind="k", payload={reserved: 1})
        with pytest.raises(ValueError, match="reserved"):
            Event(time=0.0, subsystem="s", kind="k", labels={reserved: 1})

    def test_label_payload_overlap_rejected(self):
        with pytest.raises(ValueError, match="both"):
            Event(
                time=0.0,
                subsystem="s",
                kind="k",
                labels={"party": 1},
                payload={"party": 2},
            )

    def test_event_from_wire_round_trip(self):
        event = Event(
            time=2.0,
            subsystem="fed.reliable",
            kind="drop",
            labels={"sender": 1},
            payload={"seq": 4},
        )
        back = event_from_wire(event.to_dict())
        assert back.to_dict() == event.to_dict()
        assert back.kind == "drop"
        assert back.subsystem == "fed.reliable"


class TestEventLog:
    def test_seq_follows_append_order(self):
        log = EventLog()
        for i in range(5):
            event = log.emit(float(i), "s", "k", index=i)
            assert event.seq == i
        assert log.total == 5
        assert [e.seq for e in log.events()] == [0, 1, 2, 3, 4]

    def test_ring_eviction_is_exact(self):
        log = EventLog(capacity=4)
        for i in range(6):
            log.emit(float(i), "s", "k", index=i)
        assert len(log) == 4
        assert log.evicted == 2
        assert log.total == 6
        assert [e.seq for e in log.events()] == [2, 3, 4, 5]
        assert [e.payload["index"] for e in log.events()] == [2, 3, 4, 5]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_tail_and_filter(self):
        log = EventLog()
        log.emit(0.0, "a", "x")
        log.emit(1.0, "a", "y")
        log.emit(2.0, "b", "x")
        assert [e.time for e in log.tail(2)] == [1.0, 2.0]
        assert log.tail(0) == []
        assert [e.kind for e in log.filter(subsystem="a")] == ["x", "y"]
        assert [e.subsystem for e in log.filter(kind="x")] == ["a", "b"]
        assert len(log.filter(subsystem="a", kind="x")) == 1

    def test_summary_counts(self):
        log = EventLog(capacity=8)
        log.emit(0.0, "a", "x")
        log.emit(1.0, "a", "y")
        log.emit(2.0, "b", "x")
        summary = log.summary()
        assert summary["size"] == 3
        assert summary["total"] == 3
        assert summary["evicted"] == 0
        assert summary["by_subsystem"] == {"a": 2, "b": 1}
        assert summary["by_kind"] == {"a/x": 1, "a/y": 1, "b/x": 1}

    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit(0.5, "serve.slo", "timeout", labels={"scenario": "s"}, rid=1)
        log.emit(1.5, "trainer", "tree_end", tree=0, train_loss=0.25)
        path = tmp_path / "events.jsonl"
        assert log.write_jsonl(str(path)) == 2
        back = read_events_jsonl(str(path))
        assert [e.to_dict() for e in back] == log.to_dicts()

    def test_write_jsonl_append_mode(self, tmp_path):
        log = EventLog()
        log.emit(0.0, "s", "k")
        path = tmp_path / "events.jsonl"
        log.write_jsonl(str(path))
        log.write_jsonl(str(path), append=True)
        assert len(path.read_text().splitlines()) == 2


def _faulty_train(tmp_path, tag):
    parties, labels = _synthetic_parties(120, 6, 8, seed=3)
    config = VF2BoostConfig.vf2boost(
        params=GBDTParams(n_trees=2, n_layers=3, n_bins=8),
        crypto_mode="counted",
    )
    trainer = FederatedTrainer(config)
    result = trainer.fit_resilient(
        parties,
        labels,
        fault_plan=FaultPlan(seed=7, drop_rate=0.1, crash_after_trees=(0,)),
        retry_policy=RetryPolicy(max_retries=8),
        checkpoint_dir=str(tmp_path / f"ckpts-{tag}"),
    )
    return result, trainer


class TestByteDeterminism:
    def test_identical_logs_serialize_byte_identically(self):
        def build():
            log = EventLog()
            log.emit(0.0, "serve.slo", "timeout", labels={"scenario": "s"}, rid=3)
            log.emit(1.0, "serve.fleet", "shed", replica=1, burn_rate=2.5)
            return log

        assert build().lines() == build().lines()
        assert "\n".join(build().lines()) == "\n".join(build().lines())

    def test_faulty_training_rerun_is_byte_identical(self, tmp_path):
        result_a, trainer_a = _faulty_train(tmp_path, "a")
        result_b, trainer_b = _faulty_train(tmp_path, "b")
        lines_a = trainer_a.events.lines()
        lines_b = trainer_b.events.lines()
        assert lines_a == lines_b
        assert lines_a  # the run actually recorded events
        # The TrainResult carries the same wire dicts.
        assert result_a.events == result_b.events
        kinds = {e["kind"] for e in result_a.events}
        assert "crash" in kinds
        assert "checkpoint_resumed" in kinds
        assert "tree_end" in kinds
