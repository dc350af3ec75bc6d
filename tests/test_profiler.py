"""Tests for the hot-path profiler (:mod:`repro.obs.profiler`).

The load-bearing property: in counts-only mode the profiler's per-op
counts, summed over phases, equal the context's own OpStats — pinned
here against the same golden fingerprints as ``tests/test_obs_golden``.
"""

import json
from pathlib import Path

import pytest

from repro.crypto.ciphertext import PaillierContext
from repro.obs import HotPathProfiler, Tracer
from repro.obs.golden import _golden_dataset, _variant_config
from repro.obs.profiler import OP_METHODS

GOLDEN = Path(__file__).parent / "golden" / "opcounts.json"

#: profiler op name -> OpStats field
OP_FIELDS = {
    "enc": "encryptions",
    "dec": "decryptions",
    "hadd": "additions",
    "scale": "scalings",
    "smul": "scalar_multiplications",
    "padd": "plain_additions",
}


class FakeTimer:
    """Monotonic fake clock: each read advances by a fixed step."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture
def context():
    return PaillierContext.create(256, seed=11, jitter=3)


class TestInstallation:
    def test_install_uninstall_restores_methods(self, context):
        originals = {
            name: getattr(PaillierContext, name) for name in OP_METHODS
        }
        profiler = HotPathProfiler()
        profiler.install()
        try:
            for name in OP_METHODS:
                assert getattr(PaillierContext, name) is not originals[name]
        finally:
            profiler.uninstall()
        for name in OP_METHODS:
            assert getattr(PaillierContext, name) is originals[name]

    def test_second_install_rejected(self):
        with HotPathProfiler():
            with pytest.raises(RuntimeError):
                HotPathProfiler().install()

    def test_uninstall_is_idempotent(self):
        profiler = HotPathProfiler()
        profiler.install()
        profiler.uninstall()
        profiler.uninstall()  # no-op, no error
        # And a fresh profiler can install again.
        with HotPathProfiler():
            pass

    def test_records_survive_uninstall(self, context):
        with HotPathProfiler() as profiler:
            context.encrypt(1.5)
        summary = profiler.summary()
        assert summary["ops"]["enc"]["count"] == 1


class TestCounting:
    def test_counts_match_opstats(self, context):
        with HotPathProfiler() as profiler:
            ciphers = [context.encrypt(float(i)) for i in range(6)]
            total = ciphers[0]
            for cipher in ciphers[1:]:
                total = context.add(total, cipher)
            context.multiply(total, 7)
            context.decrypt(total)
        ops = profiler.summary()["ops"]
        stats = context.stats
        for op, fld in OP_FIELDS.items():
            assert ops.get(op, {}).get("count", 0) == getattr(stats, fld)

    def test_same_exponent_scale_not_counted(self, context):
        cipher = context.encrypt(2.0)
        with HotPathProfiler() as profiler:
            context.scale_to(cipher, cipher.exponent)  # no-op scale
        assert "scale" not in profiler.summary()["ops"]

    def test_key_holder_enc_is_one_powmod(self, context):
        # The key holder's obfuscator runs as four half-width pows inside
        # powmod_crt; the choke point still observes one logical powmod.
        assert context.can_decrypt
        with HotPathProfiler() as profiler:
            context.encrypt(2.0)
        ops = profiler.summary()["ops"]
        assert ops["enc"]["count"] == 1
        assert ops["enc"]["powmods"] == 1

    def test_positive_smul_is_one_powmod(self, context):
        cipher = context.encrypt(2.0)
        with HotPathProfiler() as profiler:
            context.multiply(cipher, 3)
        ops = profiler.summary()["ops"]
        assert ops["smul"]["count"] == 1
        assert ops["smul"]["powmods"] == 1

    def test_negative_smul_counts_the_inversion(self, context):
        cipher = context.encrypt(2.0)
        with HotPathProfiler() as profiler:
            context.multiply(cipher, -3)
        ops = profiler.summary()["ops"]
        assert ops["smul"]["count"] == 1
        # Negative scalars invert the cipher before exponentiating; the
        # inversion goes through the observed math_utils choke point,
        # so the SMul powmod tally is 2, not an undercounted 1.
        assert ops["smul"]["powmods"] == 2

    def test_unattributed_powmods_under_other(self):
        with HotPathProfiler() as profiler:
            PaillierContext.create(256, seed=3)  # keygen powmods
        summary = profiler.summary()
        assert summary["ops"]["other"]["powmods"] > 0
        assert summary["ops"]["other"]["count"] == 0

    def test_phase_attribution(self, context):
        with HotPathProfiler() as profiler:
            with profiler.phase_scope("Enc"):
                cipher = context.encrypt(1.0)
            with profiler.phase_scope("Dec"):
                context.decrypt(cipher)
        phases = profiler.summary()["phases"]
        assert set(phases) == {"Enc", "Dec"}
        assert phases["Enc"]["enc"]["count"] == 1
        assert phases["Dec"]["dec"]["count"] == 1

    def test_phase_scope_restores_previous(self):
        profiler = HotPathProfiler()
        profiler.set_phase("outer")
        with profiler.phase_scope("inner"):
            assert profiler.phase == "inner"
        assert profiler.phase == "outer"


class TestGoldenTraining:
    @pytest.mark.parametrize("variant", ["vf2boost", "secureboost"])
    def test_profiled_run_matches_golden_opcounts(self, variant):
        from repro.core.trainer import FederatedTrainer

        expected = json.loads(GOLDEN.read_text())["variants"][variant]["ops"]
        parties, labels = _golden_dataset()
        profiler = HotPathProfiler()
        result = FederatedTrainer(
            _variant_config(variant), profiler=profiler
        ).fit(parties, labels)
        ops = result.profile["ops"]
        for op, fld in OP_FIELDS.items():
            golden_total = sum(stats[fld] for stats in expected.values())
            assert ops.get(op, {}).get("count", 0) == golden_total, op

    def test_profile_lands_in_run_report(self):
        from repro.core.trainer import FederatedTrainer

        parties, labels = _golden_dataset()
        profiler = HotPathProfiler()
        result = FederatedTrainer(
            _variant_config("vf2boost"), profiler=profiler
        ).fit(parties, labels)
        report = result.run_report(label="profiled")
        assert report.profile == result.profile
        assert report.profile["ops"]["enc"]["count"] > 0
        # Round-trips through JSON.
        data = json.loads(report.to_json())
        assert data["profile"] == report.profile

    def test_unprofiled_run_has_empty_profile(self):
        from repro.core.trainer import FederatedTrainer

        parties, labels = _golden_dataset()
        result = FederatedTrainer(_variant_config("vf2boost")).fit(
            parties, labels
        )
        assert result.profile == {}


class TestTiming:
    def test_counts_only_mode_has_zero_seconds(self, context):
        with HotPathProfiler() as profiler:
            context.encrypt(1.0)
        summary = profiler.summary()
        assert summary["timed"] is False
        assert summary["ops"]["enc"]["seconds"] == 0.0

    def test_fake_timer_is_deterministic(self):
        def run():
            context = PaillierContext.create(256, seed=11, jitter=3)
            with HotPathProfiler(timer=FakeTimer()) as profiler:
                ciphers = [context.encrypt(float(i)) for i in range(4)]
                total = ciphers[0]
                for cipher in ciphers[1:]:
                    total = context.add(total, cipher)
                context.decrypt(total)
            return profiler.summary()

        assert run() == run()

    def test_self_time_excludes_nested_ops(self, context):
        # add() on mismatched exponents calls scale_to internally; the
        # parent's self-seconds must not include the child's.
        a = context.encrypt(1.0, exponent=0)
        b = context.encrypt(1.0, exponent=2)
        with HotPathProfiler(timer=FakeTimer(step=1.0)) as profiler:
            context.add(a, b)
        summary = profiler.summary()
        assert summary["timed"] is True
        if "scale" in summary["ops"]:  # aligned add triggered a scale
            total = sum(rec["seconds"] for rec in summary["ops"].values())
            # With a step-1 fake clock, total self time is bounded by
            # the 2 reads/op bookkeeping — nested time not double
            # counted means the sum is strictly less than the naive
            # sum of per-op wall spans.
            spans = sum(
                2 * rec["count"] for rec in summary["ops"].values()
            )
            assert total <= spans


class TestMergeInto:
    def test_spans_laid_end_to_end(self, context):
        with HotPathProfiler(timer=FakeTimer()) as profiler:
            with profiler.phase_scope("P"):
                context.encrypt(1.0)
                context.encrypt(2.0)
        tracer = Tracer()
        spans = profiler.merge_into(tracer, offset=10.0)
        assert spans
        assert spans[0].start == 10.0
        for prev, cur in zip(spans, spans[1:]):
            assert cur.start == prev.end
        assert spans[0].name == "P.enc"
        assert spans[0].args["count"] == 2
