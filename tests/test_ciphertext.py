"""Tests for encrypted-number arithmetic and operation counting."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ciphertext import PaillierContext

floats = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


class TestEncryptDecrypt:
    @given(floats)
    @settings(max_examples=40)
    def test_round_trip(self, value):
        ctx = _ctx()
        assert ctx.decrypt(ctx.encrypt(value)) == pytest.approx(value, abs=1e-6)

    def test_public_context_cannot_decrypt(self, context):
        public = context.public_context()
        cipher = public.encrypt(1.5)
        with pytest.raises(PermissionError):
            public.decrypt(cipher)
        # The private context can decrypt ciphers made under the public one.
        assert context.decrypt(cipher) == pytest.approx(1.5)

    @pytest.mark.parametrize("exponent", [4, 8, 11])
    def test_value_bound_is_exact_at_the_ciphers_exponent(self, context, exponent):
        # The bound is ceil(bound * B**e) in encoded units: the value one
        # unit past it is refused, the one at it is not.
        step = 16.0**-exponent
        bound = 0.1  # 0.1 * 16**e is no integer: the ceiling decides
        edge = math.ceil(Fraction(bound) * 16**exponent)
        inside = context.encrypt(edge * step, exponent=exponent)
        assert context.decrypt(inside, bound) == context.decrypt(inside)
        outside = context.encrypt((edge + 1) * step, exponent=exponent)
        with pytest.raises(ValueError, match="bound"):
            context.decrypt(outside, bound)
        assert context.decrypt(context.encrypt(-bound, exponent=exponent), bound) == (
            context.decrypt(context.encrypt(-bound, exponent=exponent))
        )

    def test_can_decrypt_flag(self, context):
        assert context.can_decrypt
        assert not context.public_context().can_decrypt

    def test_encrypt_zero(self, context):
        zero = context.encrypt_zero(exponent=8)
        assert context.decrypt(zero) == 0.0

    def test_stats_count_encryptions(self, context):
        before = context.stats.snapshot()
        context.encrypt(1.0)
        context.encrypt(2.0)
        assert context.stats.diff(before).encryptions == 2


class TestArithmetic:
    @given(floats, floats)
    @settings(max_examples=30)
    def test_homomorphic_addition(self, u, v):
        ctx = _ctx()
        total = ctx.add(ctx.encrypt(u), ctx.encrypt(v))
        assert ctx.decrypt(total) == pytest.approx(u + v, abs=1e-5)

    @given(floats, st.integers(min_value=-100, max_value=100))
    @settings(max_examples=30)
    def test_integer_scalar_multiplication(self, v, k):
        ctx = _ctx()
        product = ctx.multiply(ctx.encrypt(v), k)
        assert ctx.decrypt(product) == pytest.approx(v * k, abs=1e-3)

    def test_float_scalar_multiplication(self, context):
        product = context.multiply(context.encrypt(3.0), 0.25)
        assert context.decrypt(product) == pytest.approx(0.75)

    def test_operator_overloads(self, context):
        a, b = context.encrypt(2.0), context.encrypt(5.0)
        assert context.decrypt(a + b) == pytest.approx(7.0)
        assert context.decrypt(a + 1.5) == pytest.approx(3.5)
        assert context.decrypt(3 * a) == pytest.approx(6.0)
        assert context.decrypt(b - a) == pytest.approx(3.0)
        assert context.decrypt(b - 1.0) == pytest.approx(4.0)

    def test_add_plain(self, context):
        shifted = context.add_plain(context.encrypt(-2.0), 10.0)
        assert context.decrypt(shifted) == pytest.approx(8.0)

    def test_sum_ciphers(self, context):
        values = [0.5, -1.25, 3.0, 0.0]
        total = context.sum_ciphers(context.encrypt(v) for v in values)
        assert context.decrypt(total) == pytest.approx(sum(values))

    def test_sum_empty_raises(self, context):
        with pytest.raises(ValueError):
            context.sum_ciphers([])


class TestExponentAlignment:
    def test_mismatched_exponents_align(self, context):
        a = context.encrypt(1.5, exponent=6)
        b = context.encrypt(2.5, exponent=9)
        total = context.add(a, b)
        assert total.exponent == 9
        assert context.decrypt(total) == pytest.approx(4.0)

    def test_alignment_counts_scaling(self, context):
        a = context.encrypt(1.0, exponent=6)
        b = context.encrypt(1.0, exponent=9)
        before = context.stats.snapshot()
        context.add(a, b)
        diff = context.stats.diff(before)
        assert diff.scalings == 1
        assert diff.additions == 1

    def test_same_exponent_no_scaling(self, context):
        a = context.encrypt(1.0, exponent=8)
        b = context.encrypt(2.0, exponent=8)
        before = context.stats.snapshot()
        context.add(a, b)
        assert context.stats.diff(before).scalings == 0

    def test_scale_to_lower_precision_rejected(self, context):
        a = context.encrypt(1.0, exponent=8)
        with pytest.raises(ValueError):
            context.scale_to(a, 5)

    def test_scale_to_same_exponent_is_noop(self, context):
        a = context.encrypt(1.0, exponent=8)
        before = context.stats.snapshot()
        assert context.scale_to(a, 8) is a
        assert context.stats.diff(before).scalings == 0


class TestOpStats:
    def test_reset(self, context):
        context.encrypt(1.0)
        context.stats.reset()
        assert context.stats.encryptions == 0

    def test_diff_tracks_all_fields(self, context):
        before = context.stats.snapshot()
        a = context.encrypt(1.0, exponent=6)
        b = context.encrypt(1.0, exponent=8)
        c = context.add(a, b)
        context.multiply(c, 3)
        context.add_plain(c, 1.0)
        context.decrypt(c)
        diff = context.stats.diff(before)
        assert diff.encryptions == 2
        assert diff.additions == 1
        assert diff.scalings >= 1
        assert diff.scalar_multiplications == 1
        assert diff.plain_additions == 1
        assert diff.decryptions == 1

    def test_size_bits(self, context):
        cipher = context.encrypt(1.0)
        assert cipher.size_bits() == 2 * context.public_key.key_bits


def _ctx() -> PaillierContext:
    # Module-level cache so hypothesis examples share one keypair.
    global _CACHED
    try:
        return _CACHED
    except NameError:
        _CACHED = PaillierContext.create(256, seed=77, jitter=1)
        return _CACHED
