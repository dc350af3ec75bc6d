"""Tier-1 smoke tests for the benchmark regression gate
(:mod:`repro.bench.perfdb` and ``python -m repro bench-gate``)."""

import dataclasses
import json

import pytest

from repro import cli
from repro.bench.perfdb import (
    GateResult,
    PerfDB,
    PerfEntry,
    PerfScalar,
    counted_scenario,
    gate,
)


def entry(name="scenario", **scalars):
    return PerfEntry(name=name, scalars=scalars)


def exact(value):
    return PerfScalar(float(value), kind="exact", direction="lower")


def measured(value, direction="higher"):
    return PerfScalar(float(value), kind="measured", direction=direction)


@pytest.fixture(scope="module")
def counted():
    return counted_scenario()


class TestPerfScalar:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            PerfScalar(1.0, kind="guessed")

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            PerfScalar(1.0, direction="sideways")

    def test_round_trip(self):
        scalar = measured(3.5, direction="lower")
        assert PerfScalar.from_dict(scalar.to_dict()) == scalar


class TestPerfDB:
    def test_missing_file_is_empty_db(self, tmp_path):
        db = PerfDB.load(tmp_path / "nope.json")
        assert db.entries == []

    @pytest.mark.parametrize(
        "text",
        [
            '{"version": 1, "entries": [{"name": "a", "scal',  # truncated
            '{"version": 1, "entries": [{"scalars": {}}]}',  # no name
            '{"version": 1, "entries": [{"name": "a", "scalars": '
            '{"ops": {"value": 1.0, "unit": "s"}}}]}',  # unknown scalar key
            '{"version": 9, "entries": []}',  # written by a newer schema
        ],
    )
    def test_damaged_file_raises_value_error_naming_path(self, tmp_path, text):
        path = tmp_path / "perf.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="perf.json"):
            PerfDB.load(path)

    def test_save_load_round_trip(self, tmp_path):
        db = PerfDB()
        db.append(entry(ops=exact(4), thr=measured(9.0)))
        db.append(entry(name="other", ops=exact(5)))
        path = tmp_path / "perf.json"
        db.save(path)
        loaded = PerfDB.load(path)
        assert loaded.entries == db.entries
        assert json.loads(path.read_text())["version"] == 1

    def test_history_filters_by_name_in_order(self):
        db = PerfDB()
        db.append(entry(ops=exact(1)))
        db.append(entry(name="other", ops=exact(2)))
        db.append(entry(ops=exact(3)))
        assert [e.scalars["ops"].value for e in db.history("scenario")] == [1, 3]


class TestGate:
    def test_bootstrap_passes(self):
        result = gate(PerfDB(), [entry(ops=exact(4))])
        assert result.ok
        assert result.verdicts[0].reason.startswith("bootstrap")

    def test_exact_bit_equal_passes(self):
        db = PerfDB([entry(ops=exact(4))])
        assert gate(db, [entry(ops=exact(4))]).ok

    def test_exact_any_change_fails_both_directions(self):
        db = PerfDB([entry(ops=exact(4))])
        for changed in (3, 5):
            result = gate(db, [entry(ops=exact(changed))])
            assert not result.ok
            assert result.failures()[0].scalar == "ops"

    def test_missing_exact_scalar_fails(self):
        db = PerfDB([entry(ops=exact(4), bytes=exact(100))])
        result = gate(db, [entry(ops=exact(4))])
        assert not result.ok
        assert result.failures()[0].reason == "exact scalar missing from new entry"

    def test_new_exact_scalar_allowed(self):
        db = PerfDB([entry(ops=exact(4))])
        assert gate(db, [entry(ops=exact(4), extra=exact(7))]).ok

    def test_measured_within_tolerance_passes(self):
        db = PerfDB([entry(thr=measured(100.0))])
        assert gate(db, [entry(thr=measured(80.0))]).ok  # within 25% rtol

    def test_measured_regression_fails_only_worse_direction(self):
        db = PerfDB([entry(thr=measured(100.0))])
        assert not gate(db, [entry(thr=measured(50.0))]).ok
        # 2x *better* throughput is never a regression.
        assert gate(db, [entry(thr=measured(200.0))]).ok

    def test_measured_lower_is_better_direction(self):
        db = PerfDB([entry(lat=measured(1.0, direction="lower"))])
        assert not gate(db, [entry(lat=measured(2.0, direction="lower"))]).ok
        assert gate(db, [entry(lat=measured(0.5, direction="lower"))]).ok

    def test_measured_window_median_and_spread(self):
        history = [entry(thr=measured(value)) for value in (90.0, 100.0, 110.0)]
        db = PerfDB(history)
        # median 100, spread 20 -> tolerance max(25, 40) = 40.
        assert gate(db, [entry(thr=measured(61.0))]).ok
        assert not gate(db, [entry(thr=measured(59.0))]).ok

    def test_lines_mark_regressions(self):
        db = PerfDB([entry(ops=exact(4))])
        result = gate(db, [entry(ops=exact(5))])
        assert any("REGRESSION" in line for line in result.lines())
        data = result.to_dict()
        assert data["ok"] is False

    def test_result_is_json_serializable(self):
        result = gate(PerfDB(), [entry(ops=exact(4))])
        assert json.loads(json.dumps(result.to_dict()))["ok"] is True


class TestCountedScenario:
    def test_deterministic_rerun_passes_gate(self, counted):
        again = counted_scenario()
        assert again == counted
        db = PerfDB([counted])
        assert gate(db, [again]).ok

    def test_all_scalars_exact_and_positive(self, counted):
        assert counted.name == "counted-train"
        for key, scalar in counted.scalars.items():
            assert scalar.kind == "exact", key
            # critical.wait is legitimately 0.0 on a stall-free
            # schedule and the packed path never scales a cipher;
            # everything else must be strictly positive
            if key in ("critical.wait", "ops.scale"):
                assert scalar.value >= 0, key
            else:
                assert scalar.value > 0, key
        assert {"ops.enc", "ops.dec", "ops.hadd", "sim_makespan"} <= set(
            counted.scalars
        )

    def test_injected_regression_is_caught(self, counted):
        db = PerfDB([counted])
        scalars = dict(counted.scalars)
        worse = scalars["ops.enc"].value * 1.2
        scalars["ops.enc"] = dataclasses.replace(scalars["ops.enc"], value=worse)
        result = gate(db, [PerfEntry(name=counted.name, scalars=scalars)])
        assert not result.ok
        assert [v.scalar for v in result.failures()] == ["ops.enc"]


class TestCLI:
    def test_bench_gate_round_trip_then_tamper(self, tmp_path, capsys):
        db_path = str(tmp_path / "BENCH_perf.json")
        # Bootstrap run: passes and seeds the database.
        assert cli.main(["bench-gate", "--db", db_path]) == 0
        assert len(PerfDB.load(db_path).history("counted-train")) == 1
        # Identical rerun: exact scalars are bit-equal, gate passes.
        assert cli.main(["bench-gate", "--db", db_path]) == 0
        assert len(PerfDB.load(db_path).history("counted-train")) == 2
        capsys.readouterr()
        # Tamper with the committed baseline: the rerun must now fail
        # and must NOT append to the database.
        tampered = PerfDB.load(db_path)
        last = tampered.entries[-1]
        scalars = dict(last.scalars)
        scalars["ops.enc"] = dataclasses.replace(
            scalars["ops.enc"], value=scalars["ops.enc"].value + 1
        )
        tampered.entries[-1] = PerfEntry(name=last.name, scalars=scalars, meta=last.meta)
        tampered.save(db_path)
        assert cli.main(["bench-gate", "--db", db_path]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert len(PerfDB.load(db_path).history("counted-train")) == 2

    def test_bench_gate_json_output(self, tmp_path, capsys):
        db_path = str(tmp_path / "perf.json")
        assert cli.main(["bench-gate", "--db", db_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert all(v["ok"] for v in data["verdicts"])

    def test_gate_result_type(self, counted):
        assert isinstance(gate(PerfDB(), [counted]), GateResult)
