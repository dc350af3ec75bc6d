"""Tests for host calibration profiles and drift detection
(:mod:`repro.bench.calibrate`)."""

import dataclasses
import json

import pytest

from repro import cli
from repro.bench.calibrate import (
    DEFAULT_TOLERANCES,
    UNIT_COST_FIELDS,
    CalibrationProfile,
    calibrate,
    check_drift,
    crypto_throughputs,
    host_fingerprint,
    paper_ratios,
)
from repro.bench.costmodel import CostModel
from repro.core.config import VF2BoostConfig
from repro.crypto import math_utils
from repro.crypto.paillier import PaillierPrivateKey


class FakeTimer:
    """Monotonic fake clock: each read advances by a fixed step."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def fake_calibrate(**kwargs):
    kwargs.setdefault("key_bits", 256)
    kwargs.setdefault("samples", 8)
    return calibrate(timer=FakeTimer(), **kwargs)


def paper_profile(packing_gain=24.0, **overrides):
    """A synthetic profile whose ratios match the paper exactly."""
    cost = dataclasses.replace(CostModel.paper(), **overrides)
    # Ideal packing by default: gain equals width, efficiency 1.0.
    return CalibrationProfile(
        key_bits=2048,
        unit_costs={name: getattr(cost, name) for name in UNIT_COST_FIELDS},
        cipher_bytes=cost.cipher_bytes,
        packing_gain=packing_gain,
        pack_width=24,
        samples=0,
        seed=0,
    )


class TestOnePass:
    """Figure 7 and the profile are views of one timed pass on one key."""

    @pytest.mark.parametrize("key_bits", [256, 512, 1024])
    def test_packed_row_decrypts_the_trainer_pack(self, key_bits):
        profile = fake_calibrate(key_bits=key_bits)
        layout = VF2BoostConfig(key_bits=key_bits).gradient_layout(profile.samples)
        assert profile.pack_width == layout.capacity

    def test_figure7_packs_eleven_at_512_bits(self):
        # 48 rows: a 23 + 20 = 43-bit slot, 509 // 43 = 11 per cipher.
        report = crypto_throughputs(key_bits=512, samples=48, timer=FakeTimer())
        layout = VF2BoostConfig(key_bits=512).gradient_layout(48)
        assert report.pack_width == layout.capacity == 11
        assert report.n_exponents == VF2BoostConfig().exponent_jitter

    def test_one_prime_row_decrypts_with_a_bound_below_p_half(self, monkeypatch):
        # The row the unpacked path's Dec is timed by takes that Dec's
        # route; the CRT row (t_dec) and the packed row carry no bound.
        seen = []
        raw_decrypt = PaillierPrivateKey.raw_decrypt

        def spy(self, ciphertext, bound=None):
            seen.append(bound is not None and 2 * bound < self.p)
            return raw_decrypt(self, ciphertext, bound)

        monkeypatch.setattr(PaillierPrivateKey, "raw_decrypt", spy)
        report = crypto_throughputs(key_bits=256, samples=8, timer=FakeTimer())
        assert seen[:16] == [False] * 8 + [True] * 8
        assert not any(seen[16:])
        assert report.dec_one_prime > 0

    def test_one_key_per_calibration(self, monkeypatch):
        pairs = []
        draw = math_utils.generate_prime_pair

        def counted(*args, **kwargs):
            pairs.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(math_utils, "generate_prime_pair", counted)
        fake_calibrate()
        assert len(pairs) == 1


class TestCalibrate:
    def test_fake_timer_is_deterministic(self):
        assert fake_calibrate().to_dict() == fake_calibrate().to_dict()
        first = crypto_throughputs(key_bits=256, samples=8, timer=FakeTimer())
        again = crypto_throughputs(key_bits=256, samples=8, timer=FakeTimer())
        assert first.to_dict() == again.to_dict()

    def test_profile_covers_all_unit_costs(self):
        profile = fake_calibrate()
        assert set(profile.unit_costs) == set(UNIT_COST_FIELDS)
        assert all(value > 0 for value in profile.unit_costs.values())
        assert profile.cipher_bytes > 0
        assert profile.pack_width >= 1

    def test_host_fingerprint_recorded(self):
        profile = fake_calibrate()
        assert profile.host == host_fingerprint()
        assert "python" in profile.host

    def test_save_load_round_trip(self, tmp_path):
        profile = fake_calibrate()
        path = tmp_path / "profile.json"
        profile.save(path)
        loaded = CalibrationProfile.load(path)
        assert loaded == profile
        # The artifact itself is versioned, sorted JSON.
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert list(data["unit_costs"]) == sorted(data["unit_costs"])

    def test_backend_era_profile_still_loads(self):
        # PRs 10-14 wrote a "backend" key; unknown keys get a typed error.
        profile = fake_calibrate()
        legacy = {**profile.to_dict(), "backend": "fast"}
        assert CalibrationProfile.from_dict(legacy) == profile
        with pytest.raises(ValueError, match=r"\['lanes'\]"):
            CalibrationProfile.from_dict({**legacy, "lanes": 2})

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda d: d.pop("cipher_bytes"), "cipher_bytes"),
            (lambda d: d["unit_costs"].pop("t_scale"), "t_scale"),
            (lambda d: d.pop("unit_costs"), "t_enc"),
            (lambda d: d.update(lanes=2), "lanes"),
        ],
        ids=["field", "unit-cost", "no-unit-costs", "unknown-field"],
    )
    def test_damaged_profile_is_a_value_error(self, tmp_path, capsys, damage, named):
        data = fake_calibrate().to_dict()
        damage(data)
        with pytest.raises(ValueError, match=named):
            CalibrationProfile.from_dict(data)
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(data))
        assert cli.main(["whatif", "--profile", str(path), "--speedup", "powmod=2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: profile ") and named in err

    def test_cost_model_round_trip(self):
        profile = fake_calibrate()
        cost = CostModel.from_profile(profile)
        for name in UNIT_COST_FIELDS:
            assert getattr(cost, name) == profile.unit_costs[name]
        assert cost.cipher_bytes == profile.cipher_bytes

    def test_from_cost_model_preserves_paper_constants(self):
        profile = paper_profile()
        assert CostModel.from_profile(profile) == CostModel.paper()


class TestDrift:
    def test_paper_profile_is_drift_free(self):
        report = check_drift(paper_profile())
        assert report.ok
        assert report.failures() == []
        assert {check.name for check in report.checks} == set(DEFAULT_TOLERANCES)
        for check in report.checks:
            assert check.factor == pytest.approx(1.0)

    def test_perturbed_decryption_flags_dec_over_enc(self):
        slow_dec = paper_profile(t_dec=CostModel.paper().t_dec * 10)
        report = check_drift(slow_dec)
        assert not report.ok
        assert [check.name for check in report.failures()] == ["dec_over_enc"]

    def test_broken_packing_flags_efficiency(self):
        report = check_drift(paper_profile(packing_gain=1.0))
        assert "packing_efficiency" in {c.name for c in report.failures()}

    def test_custom_tolerances_override_defaults(self):
        profile = paper_profile(t_dec=CostModel.paper().t_dec * 10)
        report = check_drift(profile, tolerances={"dec_over_enc": 100.0})
        assert report.ok

    def test_factor_is_symmetric(self):
        paper = CostModel.paper()
        fast = check_drift(paper_profile(t_dec=paper.t_dec / 10))
        slow = check_drift(paper_profile(t_dec=paper.t_dec * 10))
        fast_check = {c.name: c for c in fast.checks}["dec_over_enc"]
        slow_check = {c.name: c for c in slow.checks}["dec_over_enc"]
        assert fast_check.factor == pytest.approx(slow_check.factor)

    def test_lines_render_verdicts(self):
        report = check_drift(paper_profile(t_dec=CostModel.paper().t_dec * 10))
        lines = report.lines()
        assert len(lines) == len(report.checks)
        assert any("DRIFT" in line for line in lines)
        assert any(line.endswith("ok") for line in lines)

    def test_to_dict_is_json_serializable(self):
        report = check_drift(paper_profile())
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert len(data["checks"]) == len(DEFAULT_TOLERANCES)

    def test_this_host_measurement_passes_drift(self):
        # The real-crypto measurement on the current host must land in
        # the advertised bands — this is the "same regime" guarantee
        # EXPERIMENTS.md relies on.  Tiny sample count keeps it fast.
        profile = calibrate(key_bits=256, samples=8, seed=7)
        assert check_drift(profile).ok

    def test_paper_ratio_values(self):
        ratios = paper_ratios()
        paper = CostModel.paper()
        assert ratios["dec_over_enc"] == pytest.approx(paper.t_dec / paper.t_enc)
        assert ratios["smul_over_hadd"] == pytest.approx(paper.t_smul / paper.t_hadd)
        assert ratios["packing_efficiency"] == 1.0
