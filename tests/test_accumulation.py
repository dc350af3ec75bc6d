"""Tests for re-ordered histogram accumulation (§5.1)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.accumulation import ExponentWorkspace, reordered_sum
from repro.crypto.ciphertext import PaillierContext

CTX = PaillierContext.create(256, seed=15, jitter=4)


def _encrypt_many(block, values):
    """The operands of fresh ciphers of ``values`` in the open ``block``."""
    return [block.load(CTX.encrypt(v)) for v in values]


def _decrypt(block, operand) -> float:
    return CTX.decrypt(block.unload(operand))


class TestCorrectness:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_reordered_equals_naive(self, values):
        with CTX.resident() as block:
            operands = _encrypt_many(block, values)
            assert _decrypt(block, reordered_sum(CTX, operands)) == pytest.approx(
                _decrypt(block, CTX.sum_ciphers(operands)), abs=1e-5
            )

    def test_sum_value(self):
        values = [random.Random(3).uniform(-1, 1) for _ in range(30)]
        with CTX.resident() as block:
            total = reordered_sum(CTX, _encrypt_many(block, values))
            assert _decrypt(block, total) == pytest.approx(sum(values), abs=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            reordered_sum(CTX, [])


class TestScalingCounts:
    def test_reordered_needs_at_most_e_minus_one_scalings(self):
        values = [random.Random(5).uniform(-1, 1) for _ in range(60)]
        with CTX.resident() as block:
            operands = _encrypt_many(block, values)
            exponents = {operand.exponent for operand in operands}
            before = CTX.stats.snapshot()
            reordered_sum(CTX, operands)
        assert CTX.stats.diff(before).scalings <= len(exponents) - 1

    def test_naive_scales_much_more(self):
        rng = random.Random(6)
        values = [rng.uniform(-1, 1) for _ in range(60)]
        with CTX.resident() as block:
            operands = _encrypt_many(block, values)
            before = CTX.stats.snapshot()
            CTX.sum_ciphers(operands)
            naive_scalings = CTX.stats.diff(before).scalings
            before = CTX.stats.snapshot()
            reordered_sum(CTX, operands)
            reordered_scalings = CTX.stats.diff(before).scalings
        assert naive_scalings > 3 * max(1, reordered_scalings)

    def test_single_exponent_needs_no_scaling(self):
        ctx = PaillierContext.create(256, seed=16, jitter=1)
        with ctx.resident() as block:
            operands = [block.load(ctx.encrypt(float(v))) for v in range(10)]
            before = ctx.stats.snapshot()
            reordered_sum(ctx, operands)
        assert ctx.stats.diff(before).scalings == 0


class TestExponentWorkspace:
    def test_add_and_finalize(self):
        ws = ExponentWorkspace(CTX)
        values = [0.25, -0.5, 1.0, 2.0]
        with CTX.resident() as block:
            for operand in _encrypt_many(block, values):
                ws.add(operand)
            assert len(ws) == 4
            assert _decrypt(block, ws.finalize()) == pytest.approx(sum(values), abs=1e-6)

    def test_exponents_sorted(self):
        ws = ExponentWorkspace(CTX)
        with CTX.resident() as block:
            ws.add(block.load(CTX.encrypt(1.0, exponent=10)))
            ws.add(block.load(CTX.encrypt(1.0, exponent=8)))
        assert ws.exponents == [8, 10]

    def test_finalize_empty_raises(self):
        with pytest.raises(ValueError):
            ExponentWorkspace(CTX).finalize()

    def test_finalize_or_zero(self):
        empty = ExponentWorkspace(CTX)
        with CTX.resident() as block:
            assert _decrypt(block, empty.finalize_or_zero(8)) == 0.0

    def test_add_does_not_scale(self):
        ws = ExponentWorkspace(CTX)
        with CTX.resident() as block:
            before = CTX.stats.snapshot()
            ws.add(block.load(CTX.encrypt(1.0, exponent=8)))
            ws.add(block.load(CTX.encrypt(2.0, exponent=10)))
        assert CTX.stats.diff(before).scalings == 0
