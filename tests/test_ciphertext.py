"""Tests for encrypted-number arithmetic and operation counting."""

import contextlib
import math
import multiprocessing
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        with context.resident() as block:
            zero = block.unload(context.encrypt_zero(exponent=8))
        assert context.decrypt(zero) == 0.0 and zero.exponent == 8

    def test_stats_count_encryptions(self, context):
        before = context.stats.snapshot()
        context.encrypt(1.0)
        context.encrypt(2.0)
        assert context.stats.diff(before).encryptions == 2


def _on_operands(ctx, op, *ciphers):
    """``op`` on the ciphers' operands in a resident block, its result unloaded."""
    with ctx.resident() as block:
        return block.unload(op(*(block.load(cipher) for cipher in ciphers)))


class TestArithmetic:
    @given(floats, floats)
    @settings(max_examples=30)
    def test_homomorphic_addition(self, u, v):
        ctx = _ctx()
        total = _on_operands(ctx, ctx.add, ctx.encrypt(u), ctx.encrypt(v))
        assert ctx.decrypt(total) == pytest.approx(u + v, abs=1e-5)

    @given(floats, st.integers(min_value=-100, max_value=100))
    @settings(max_examples=30)
    def test_integer_scalar_multiplication(self, v, k):
        ctx = _ctx()
        product = _on_operands(ctx, lambda a: ctx.multiply(a, k), ctx.encrypt(v))
        assert ctx.decrypt(product) == pytest.approx(v * k, abs=1e-3)

    def test_float_scalar_multiplication(self, context):
        product = _on_operands(context, lambda a: context.multiply(a, 0.25), context.encrypt(3.0))
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
        shifted = _on_operands(context, lambda a: context.add_plain(a, 10.0), context.encrypt(-2.0))
        assert context.decrypt(shifted) == pytest.approx(8.0)

    def test_sum_ciphers(self, context):
        values = [0.5, -1.25, 3.0, 0.0]
        ciphers = [context.encrypt(v) for v in values]
        total = _on_operands(context, lambda *operands: context.sum_ciphers(operands), *ciphers)
        assert context.decrypt(total) == pytest.approx(sum(values))

    def test_sum_empty_raises(self, context):
        with pytest.raises(ValueError):
            context.sum_ciphers([])


def _pack(ctx, values):
    with ctx.resident() as block:
        operands = [block.load(ctx.encrypt(v, exponent=0)) for v in values]
        return pack_ciphers(ctx, operands, 32)


def _fixtures(ctx) -> SimpleNamespace:
    """What the misuses misuse, made before their op counters are read.

    In a block, ``h`` and ``g`` are the operands of ``cipher`` and of
    ``other`` (at another exponent).
    """
    return SimpleNamespace(
        cipher=ctx.encrypt(1.0), other=ctx.encrypt(2.0, exponent=11), pack=_pack(ctx, [1.0, 2.0])
    )


#: misuses of the cipher algebra (§2.2, §5.2) the crypto types refuse:
#: ``(error, in a resident block, misuse(ctx, fixtures))``
MISUSES = {
    "plain_add_operator": (TypeError, False, lambda ctx, f: f.cipher + 0.5),
    "cipher_product": (TypeError, False, lambda ctx, f: f.cipher * f.other),
    "operator_on_pack": (TypeError, False, lambda ctx, f: f.pack + f.cipher),
    "mixed_exponent_pack": (ValueError, True, lambda ctx, f: pack_ciphers(ctx, [f.h, f.g], 32)),
    "repack_a_pack": (TypeError, True, lambda ctx, f: pack_ciphers(ctx, [f.pack], 32)),
    "smul_of_a_pack": (TypeError, True, lambda ctx, f: ctx.multiply_raw(f.pack, 4)),
    "plain_add_to_a_pack": (TypeError, True, lambda ctx, f: ctx.add_plain(f.pack, 0.5)),
    # a cipher is no operand: a block loads it first
    "add_of_ciphers": (TypeError, False, lambda ctx, f: ctx.add(f.cipher, f.cipher)),
    "cipher_into_a_block": (TypeError, True, lambda ctx, f: ctx.add(f.h, f.cipher)),
    "cipher_at_another_exponent": (TypeError, True, lambda ctx, f: ctx.add(f.h, f.other)),
}
# Nor are these.  Handed to libcrypto, None, an int and bytes would be
# read as pointers: the process would crash or sum garbage.
for _name, _stranger in (("none", None), ("int", 12345), ("bytes", b"\x01" * 8), ("str", "x")):
    MISUSES[f"add_{_name}"] = (TypeError, True, lambda ctx, f, x=_stranger: ctx.add(f.h, x))
    MISUSES[f"add_to_{_name}"] = (TypeError, True, lambda ctx, f, x=_stranger: ctx.add(x, f.h))
    MISUSES[f"add_{_name}_out_of_a_block"] = (
        TypeError, False, lambda ctx, f, x=_stranger: ctx.add(f.cipher, x)
    )

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


def _outcome_in_a_child(context, in_block: bool, misuse) -> tuple[str, bool]:
    """``(what misuse raised, whether it counted no op)``, run in a forked
    child: a crash is an outcome (``"exit -11"``), not the test run's end."""
    fork = multiprocessing.get_context("fork")
    reader, writer = fork.Pipe(duplex=False)

    def run():
        fixtures = _fixtures(context)
        with contextlib.ExitStack() as stack:
            if in_block:
                block = stack.enter_context(context.resident())
                fixtures.h, fixtures.g = block.load(fixtures.cipher), block.load(fixtures.other)
            before = context.stats.snapshot()
            try:
                misuse(context, fixtures)
                raised = "nothing"
            except BaseException as error:  # noqa: BLE001 - the outcome is the test's subject
                raised = type(error).__name__
            writer.send((raised, context.stats.diff(before) == OpStats()))

    child = fork.Process(target=run)
    child.start()
    child.join(60)
    if child.exitcode != 0:
        return f"exit {child.exitcode}", False
    return reader.recv()


class TestMisuseRaises:
    @pytest.mark.parametrize("misuse", sorted(MISUSES))
    def test_misuse_raises(self, context, misuse, engines):
        error, in_block, misuse_of = MISUSES[misuse]
        for engine in engines():
            outcome = _outcome_in_a_child(context, in_block, misuse_of)
            assert outcome == (error.__name__, True), engine

    def test_add_of_a_pack_is_a_typed_error_and_uncounted(self, context):
        packed, cipher = _pack(context, [1.0, 2.0]), context.encrypt(1.0)
        before = context.stats.additions
        for _ in range(2):
            with context.resident() as block:
                with pytest.raises(TypeError, match="not PackedCipher"):
                    context.add(packed, block.load(cipher))
            # leaving the block leaves no arena: the op is refused still
            with pytest.raises(TypeError, match="no resident block is open"):
                context.add(packed, cipher)
        assert context.stats.additions == before

    def test_resident_smul_and_shift_are_the_int_ones(self, context, choke_calls, engines):
        # every scalar route of raw_multiply, the inverted one included
        key = context.public_key
        cipher = context.encrypt(1.5)
        scalars = [0, 1, 1 << 47, key.n + 7, key.n - 3, -5]
        expected = [key.raw_multiply(cipher.ciphertext, k) for k in scalars]
        shifted = key.raw_add_plain(cipher.ciphertext, 12345)
        for engine in engines():
            del choke_calls[:]
            before = context.stats.snapshot()
            with context.resident() as block:
                operand = block.load(cipher)
                got = [block.unload(context.multiply_raw(operand, k)) for k in scalars]
                plain = block.unload(context.add_plain_raw(operand, 12345))
            assert [c.ciphertext for c in got] == expected
            assert plain.ciphertext == shifted
            assert {c.exponent for c in got + [plain]} == {cipher.exponent}
            ops = context.stats.diff(before)
            assert (ops.scalar_multiplications, ops.plain_additions) == (len(scalars), 1)
            # the two inverted scalars invert; libcrypto's arena powers the
            # others without a powmod, the int arena with one each
            powers = ["powmod"] * 4 if engine == "python" else []
            assert choke_calls == powers + ["invert", "powmod"] * 2

    def test_a_block_loads_no_cipher_of_another_key(self, context, engines):
        # Ciphers under two keys add to garbage that still decrypts to a
        # number: the block refuses the foreign one before any op counts.
        foreign = PaillierContext.create(256, seed=99).encrypt(1.0)
        own = context.encrypt(1.0)
        for engine in engines():
            before = context.stats.snapshot()
            for ctx in (context, context.public_context()):
                with ctx.resident() as block:
                    block.load(own)
                    with pytest.raises(TypeError, match="another public key"):
                        block.load(foreign)
            assert context.stats.diff(before) == OpStats(), engine

    def test_one_block_holds_operands_of_every_exponent(self, context):
        # each operand carries its exponent: an HAdd aligns them in any block
        low, high = context.encrypt(1.0, exponent=8), context.encrypt(2.0, exponent=9)
        with context.resident() as block:
            with pytest.raises(RuntimeError, match="already open"):
                with context.resident():
                    pass
            before = context.stats.snapshot()
            total = block.unload(context.add(block.load(low), block.load(high)))
            ops = context.stats.diff(before)
            zeros = [block.unload(context.encrypt_zero(e)) for e in (8, 9, 8)]
        assert (ops.additions, ops.scalings) == (1, 1)
        assert total.exponent == 9 and context.decrypt(total) == pytest.approx(3.0)
        assert [(z.ciphertext, z.exponent) for z in zeros] == [(1, 8), (1, 9), (1, 8)]
        assert context.block is None

    @pytest.mark.parametrize("op", sorted(_OPS_ON_A_PACK))
    @pytest.mark.parametrize("in_block", [False, True])
    def test_a_pack_gets_no_arithmetic(self, context, op, in_block):
        # A pack is never added to, scaled or multiplied: each op refuses
        # it with a typed error and counts nothing, in a resident block
        # or out of one.
        packed, cipher = _pack(context, [1.0, 2.0]), context.encrypt(1.0)
        before = context.stats.snapshot()
        if in_block:
            with context.resident() as block:
                with pytest.raises(TypeError, match="not PackedCipher"):
                    _OPS_ON_A_PACK[op](context, packed, block.load(cipher))
        else:
            with pytest.raises(TypeError):
                _OPS_ON_A_PACK[op](context, packed, cipher)
        assert context.stats.diff(before) == OpStats()


class TestExponentAlignment:
    def test_mismatched_exponents_align(self, context):
        a = context.encrypt(1.5, exponent=6)
        b = context.encrypt(2.5, exponent=9)
        total = _on_operands(context, context.add, a, b)
        assert total.exponent == 9
        assert context.decrypt(total) == pytest.approx(4.0)

    def test_alignment_counts_scaling(self, context):
        a = context.encrypt(1.0, exponent=6)
        b = context.encrypt(1.0, exponent=9)
        before = context.stats.snapshot()
        _on_operands(context, context.add, a, b)
        diff = context.stats.diff(before)
        assert diff.scalings == 1
        assert diff.additions == 1

    def test_same_exponent_no_scaling(self, context):
        a = context.encrypt(1.0, exponent=8)
        b = context.encrypt(2.0, exponent=8)
        before = context.stats.snapshot()
        _on_operands(context, context.add, a, b)
        assert context.stats.diff(before).scalings == 0

    def test_scale_to_lower_precision_rejected(self, context):
        a = context.encrypt(1.0, exponent=8)
        with pytest.raises(ValueError):
            _on_operands(context, lambda x: context.scale_to(x, 5), a)

    def test_scale_to_same_exponent_is_noop(self, context):
        with context.resident() as block:
            a = block.load(context.encrypt(1.0, exponent=8))
            before = context.stats.snapshot()
            assert context.scale_to(a, 8) is a
        assert context.stats.diff(before).scalings == 0


class TestOpStats:
    def test_diff_tracks_all_fields(self, context):
        before = context.stats.snapshot()
        a = context.encrypt(1.0, exponent=6)
        b = context.encrypt(1.0, exponent=8)
        with context.resident() as block:
            c = context.add(block.load(a), block.load(b))
            context.multiply(c, 3)
            context.add_plain(c, 1.0)
            c = block.unload(c)
        context.decrypt(c)
        diff = context.stats.diff(before)
        assert diff.encryptions == 2
        assert diff.additions == 1
        assert diff.scalings >= 1
        assert diff.scalar_multiplications == 1
        assert diff.plain_additions == 1
        assert diff.decryptions == 1


def _ctx() -> PaillierContext:
    # Module-level cache so hypothesis examples share one keypair.
    global _CACHED
    try:
        return _CACHED
    except NameError:
        _CACHED = PaillierContext.create(256, seed=77, jitter=1)
        return _CACHED
