"""Tests for encrypted-number arithmetic and operation counting."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import math_utils
from repro.crypto.ciphertext import OpStats, PaillierContext, _scaled_bound
from repro.crypto.packing import pack_ciphers

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

    @given(
        bound=st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 0.1]),
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-(2**70), 2**70),
        ),
        exponent=st.integers(-8, 20),
    )
    @settings(max_examples=200, derandomize=True)
    def test_scaled_bound_is_the_exact_ceiling(self, bound, exponent):
        # what decrypt_encoded computed with Fractions, in integers
        exact = math.ceil(Fraction(bound) * Fraction(16) ** exponent)
        assert _scaled_bound(bound, 16, exponent) == exact

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
        # Ciphers have no operators: every op is an explicit, counted
        # PaillierContext call.
        a, b = context.encrypt(2.0), context.encrypt(5.0)
        before = context.stats.snapshot()
        for op in (
            lambda: a + b,
            lambda: a + 1.5,
            lambda: 1.5 + a,
            lambda: 3 * a,
            lambda: a * 3,
            lambda: b - a,
            lambda: b - 1.0,
        ):
            with pytest.raises(TypeError):
                op()
        assert context.stats.diff(before) == OpStats()

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


def _pack(ctx, values):
    return pack_ciphers(ctx, [ctx.encrypt(v, exponent=0) for v in values], 32)


#: misuses of the cipher algebra (§2.2, §5.2) the crypto types refuse
MISUSES = {
    "plain_add_operator": (TypeError, lambda ctx: ctx.encrypt(1.0) + 0.5),
    "cipher_product": (TypeError, lambda ctx: ctx.encrypt(2.0) * ctx.encrypt(3.0)),
    "operator_on_pack": (TypeError, lambda ctx: _pack(ctx, [1.0, 2.0]) + ctx.encrypt(0.0)),
    "mixed_exponent_pack": (
        ValueError,
        lambda ctx: pack_ciphers(
            ctx, [ctx.encrypt(1.0, exponent=6), ctx.encrypt(2.0, exponent=9)], 32
        ),
    ),
    "repack_a_pack": (TypeError, lambda ctx: pack_ciphers(ctx, [_pack(ctx, [1.0, 2.0])], 32)),
    "smul_of_a_pack": (TypeError, lambda ctx: ctx.multiply_raw(_pack(ctx, [1.0, 2.0]), 4)),
    "plain_add_to_a_pack": (TypeError, lambda ctx: ctx.add_plain(_pack(ctx, [1.0, 2.0]), 0.5)),
}

#: every counted op on a cipher, with a pack where its cipher goes
_OPS_ON_A_PACK = {
    "add": lambda ctx, pack, cipher: ctx.add(pack, cipher),
    "add_to": lambda ctx, pack, cipher: ctx.add(cipher, pack),
    "scale_to": lambda ctx, pack, cipher: ctx.scale_to(pack, pack.exponent + 1),
    "multiply": lambda ctx, pack, cipher: ctx.multiply(pack, 3),
    "multiply_raw": lambda ctx, pack, cipher: ctx.multiply_raw(pack, 4),
    "add_plain": lambda ctx, pack, cipher: ctx.add_plain(pack, 0.5),
    "add_plain_raw": lambda ctx, pack, cipher: ctx.add_plain_raw(pack, 5),
}


class TestMisuseRaises:
    @pytest.mark.parametrize("misuse", sorted(MISUSES))
    def test_misuse_raises(self, context, misuse):
        error, misuse_of = MISUSES[misuse]
        with pytest.raises(error):
            misuse_of(context)

    def test_add_of_a_pack_is_a_typed_error_and_uncounted(self, context):
        packed, cipher = _pack(context, [1.0, 2.0]), context.encrypt(1.0)
        with context.resident([cipher]):
            pass  # leaving a block restores the refusing default
        before = context.stats.additions
        for _ in range(2):
            with pytest.raises(TypeError, match="not PackedCipher"):
                context.add(packed, cipher)
        assert context.stats.additions == before

    def test_resident_smul_and_shift_are_the_int_ones(self, context, choke_calls):
        # every scalar route of raw_multiply, the inverted one included
        key = context.public_key
        cipher = context.encrypt(1.5)
        scalars = [0, 1, 1 << 47, key.n + 7, key.n - 3, -5]
        expected = [key.raw_multiply(cipher.ciphertext, k) for k in scalars]
        shifted = key.raw_add_plain(cipher.ciphertext, 12345)
        del choke_calls[:]
        before = context.stats.snapshot()
        with context.resident([cipher]) as operands:
            (handle,) = operands.ciphers
            raised = [context.multiply_raw(handle, k) for k in scalars]
            got = [context.cipher_of(operand) for operand in raised]
            plain = context.cipher_of(context.add_plain_raw(handle, 12345))
        assert [c.ciphertext for c in got] == expected
        assert plain.ciphertext == shifted
        assert {c.exponent for c in got + [plain]} == {cipher.exponent}
        ops = context.stats.diff(before)
        assert (ops.scalar_multiplications, ops.plain_additions) == (len(scalars), 1)
        if math_utils.get_backend().name == "openssl":
            # an arena power each, but the two inverted scalars'
            assert choke_calls == ["invert", "powmod"] * 2

    def test_a_block_of_one_exponent_holds_no_other(self, context):
        # its handles carry no exponent: a cipher at another one would be
        # summed as if it had the block's
        cipher = context.encrypt(1.0, exponent=8)
        with context.resident() as outer:
            assert outer.ciphers == () and not outer.enclosed
            assert context.encrypt_zero(9).ciphertext == 1  # nothing loaded yet: a cipher
            with context.resident([cipher]) as inner:
                assert inner.enclosed
            if math_utils.get_backend().name == "openssl":
                with pytest.raises(ValueError, match="exponent 8"):
                    with context.resident([context.encrypt(1.0, exponent=9)]):
                        pass
                with pytest.raises(ValueError, match="exponent 8"):
                    context.encrypt_zero(9)
                zero = context.encrypt_zero(8)
                assert context.cipher_of(zero).ciphertext == 1
        assert context._block is None

    @pytest.mark.parametrize("op", sorted(_OPS_ON_A_PACK))
    @pytest.mark.parametrize("in_block", [False, True])
    def test_a_pack_gets_no_arithmetic(self, context, op, in_block):
        # A pack is never added to, scaled or multiplied: each op refuses
        # it with a typed error and counts nothing, in a resident block
        # or out of one.
        packed, cipher = _pack(context, [1.0, 2.0]), context.encrypt(1.0)
        before = context.stats.snapshot()
        with context.resident([cipher] if in_block else []) as operands:
            operand = operands.ciphers[0] if in_block else cipher
            with pytest.raises(TypeError, match="not PackedCipher"):
                _OPS_ON_A_PACK[op](context, packed, operand)
        assert context.stats.diff(before) == OpStats()


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
