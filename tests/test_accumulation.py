"""Tests for re-ordered histogram accumulation (§5.1)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.accumulation import ExponentWorkspace, reordered_sum
from repro.crypto.ciphertext import PaillierContext

CTX = PaillierContext.create(256, seed=15, jitter=4)


def _encrypt_many(values):
    return [CTX.encrypt(v) for v in values]


class TestCorrectness:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_reordered_equals_naive(self, values):
        ciphers = _encrypt_many(values)
        assert CTX.decrypt(reordered_sum(CTX, ciphers)) == pytest.approx(
            CTX.decrypt(CTX.sum_ciphers(ciphers)), abs=1e-5
        )

    def test_sum_value(self):
        values = [random.Random(3).uniform(-1, 1) for _ in range(30)]
        total = reordered_sum(CTX, _encrypt_many(values))
        assert CTX.decrypt(total) == pytest.approx(sum(values), abs=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            reordered_sum(CTX, [])


class TestScalingCounts:
    def test_reordered_needs_at_most_e_minus_one_scalings(self):
        values = [random.Random(5).uniform(-1, 1) for _ in range(60)]
        ciphers = _encrypt_many(values)
        exponents = {c.exponent for c in ciphers}
        before = CTX.stats.snapshot()
        reordered_sum(CTX, ciphers)
        assert CTX.stats.diff(before).scalings <= len(exponents) - 1

    def test_naive_scales_much_more(self):
        rng = random.Random(6)
        values = [rng.uniform(-1, 1) for _ in range(60)]
        ciphers = _encrypt_many(values)
        before = CTX.stats.snapshot()
        CTX.sum_ciphers(ciphers)
        naive_scalings = CTX.stats.diff(before).scalings
        before = CTX.stats.snapshot()
        reordered_sum(CTX, ciphers)
        reordered_scalings = CTX.stats.diff(before).scalings
        assert naive_scalings > 3 * max(1, reordered_scalings)

    def test_single_exponent_needs_no_scaling(self):
        ctx = PaillierContext.create(256, seed=16, jitter=1)
        ciphers = [ctx.encrypt(float(v)) for v in range(10)]
        before = ctx.stats.snapshot()
        reordered_sum(ctx, ciphers)
        assert ctx.stats.diff(before).scalings == 0


class TestExponentWorkspace:
    def test_add_and_finalize(self):
        ws = ExponentWorkspace(CTX)
        values = [0.25, -0.5, 1.0, 2.0]
        for v in values:
            ws.add(CTX.encrypt(v))
        assert len(ws) == 4
        assert CTX.decrypt(ws.finalize()) == pytest.approx(sum(values), abs=1e-6)

    def test_exponents_sorted(self):
        ws = ExponentWorkspace(CTX)
        ws.add(CTX.encrypt(1.0, exponent=10))
        ws.add(CTX.encrypt(1.0, exponent=8))
        assert ws.exponents == [8, 10]

    def test_finalize_empty_raises(self):
        with pytest.raises(ValueError):
            ExponentWorkspace(CTX).finalize()

    def test_finalize_or_zero(self):
        empty = ExponentWorkspace(CTX)
        assert CTX.decrypt(empty.finalize_or_zero(8)) == 0.0

    def test_add_does_not_scale(self):
        ws = ExponentWorkspace(CTX)
        before = CTX.stats.snapshot()
        ws.add(CTX.encrypt(1.0, exponent=8))
        ws.add(CTX.encrypt(2.0, exponent=10))
        assert CTX.stats.diff(before).scalings == 0
