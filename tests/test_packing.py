"""Tests for polynomial-based cipher packing (§5.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ciphertext import PaillierContext
from repro.crypto.packing import (
    pack_capacity,
    pack_ciphers,
    unpack_values,
)

CTX = PaillierContext.create(256, seed=5, jitter=1)


def _pack(context, ciphers, limb_bits):
    """:func:`pack_ciphers` on the ciphers' operands in a resident block."""
    with context.resident() as block:
        return pack_ciphers(context, [block.load(c) for c in ciphers], limb_bits=limb_bits)


class TestPackCapacity:
    def test_capacity_positive(self):
        assert pack_capacity(CTX.public_key, 32) >= 1

    def test_capacity_scales_inversely_with_limb(self):
        assert pack_capacity(CTX.public_key, 16) > pack_capacity(CTX.public_key, 64)

    def test_paper_configuration(self):
        # S=2048, M=64 -> t = 32 per the paper's S/M bound. Our space is
        # n/3 (2045 usable bits), filled to the last whole limb.
        from repro.crypto.paillier import generate_keypair

        pub, _ = generate_keypair(2048, seed=6)
        assert pack_capacity(pub, 64) == 31

    def test_full_limb_headroom_at_exact_boundary(self):
        # A maximal pack at an exact-boundary modulus decrypts unreduced.
        # The two smallest primes above sqrt(3 * 2**192) give max_int just
        # past 2**192: usable = 192 = 3 * 64.  PR 10 held a whole limb
        # back here for a pack (+) pack HAdd; no code path adds packs (a
        # PackedCipher has no arithmetic), so all three limbs are used.
        import math

        from repro.crypto import math_utils
        from repro.crypto.encoding import EncodedNumber
        from repro.crypto.paillier import derive_insecure_keypair_from_primes

        primes = []
        candidate = math.isqrt(3 * 2**192) + 1
        while len(primes) < 2:
            candidate += 1
            if math_utils.is_probable_prime(candidate):
                primes.append(candidate)
        pub, priv = derive_insecure_keypair_from_primes(*primes)
        assert pub.max_int.bit_length() - 1 == 192
        assert pack_capacity(pub, 64) == 3
        context = PaillierContext(pub, priv, jitter=1)
        top = (1 << 64) - 1
        ciphers = [
            context.encrypt_encoded(EncodedNumber(pub, top, 0, context.encoder.base))
            for _ in range(3)
        ]
        packed = _pack(context, ciphers, limb_bits=64)
        maximal = (1 << 192) - 1
        assert maximal <= pub.max_int < 2 * maximal
        assert unpack_values(context, packed) == [top] * 3
        with pytest.raises(ValueError, match="capacity is 3"):
            _pack(context, ciphers + ciphers[:1], limb_bits=64)

    def test_tiny_key_rejected(self):
        # A 64-bit key leaves ~62 usable plaintext bits — not even one
        # 64-bit limb. Packing would silently overflow; must raise.
        from repro.crypto.paillier import generate_keypair

        pub, _ = generate_keypair(64, seed=9)
        with pytest.raises(ValueError, match="key too small to pack any limb"):
            pack_capacity(pub, 64)

    def test_tiny_key_ok_with_narrower_limb(self):
        from repro.crypto.paillier import generate_keypair

        pub, _ = generate_keypair(64, seed=9)
        assert pack_capacity(pub, 16) >= 1


class TestPackUnpack:
    @given(
        st.lists(st.integers(min_value=0, max_value=2**30 - 1), min_size=1, max_size=6)
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, values):
        ciphers = [CTX.encrypt(float(v), exponent=0) for v in values]
        packed = _pack(CTX, ciphers, limb_bits=32)
        assert unpack_values(CTX, packed) == values

    def test_first_value_in_lowest_limb(self):
        ciphers = [CTX.encrypt(float(v), exponent=0) for v in (1, 2, 3)]
        packed = _pack(CTX, ciphers, limb_bits=16)
        raw = CTX.decrypt_raw(
            type(ciphers[0])(CTX, packed.ciphertext, packed.exponent)
        )
        assert raw & 0xFFFF == 1

    def test_zero_values(self):
        ciphers = [CTX.encrypt(0.0, exponent=0) for _ in range(4)]
        packed = _pack(CTX, ciphers, limb_bits=24)
        assert unpack_values(CTX, packed) == [0, 0, 0, 0]

    def test_max_limb_values(self):
        top = (1 << 20) - 1
        ciphers = [CTX.encrypt(float(top), exponent=0) for _ in range(3)]
        packed = _pack(CTX, ciphers, limb_bits=20)
        assert unpack_values(CTX, packed) == [top] * 3

    def test_single_cipher_pack(self):
        packed = _pack(CTX, [CTX.encrypt(42.0, exponent=0)], limb_bits=32)
        assert unpack_values(CTX, packed) == [42]

    def test_exponent_carried(self):
        ciphers = [CTX.encrypt(1.5, exponent=4), CTX.encrypt(2.0, exponent=4)]
        packed = _pack(CTX, ciphers, limb_bits=40)
        assert packed.exponent == 4
        values = unpack_values(CTX, packed)
        base = CTX.encoder.base
        assert values[0] / base**4 == pytest.approx(1.5)
        assert values[1] / base**4 == pytest.approx(2.0)


class TestPackValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _pack(CTX, [], limb_bits=32)

    def test_over_capacity_rejected(self):
        capacity = pack_capacity(CTX.public_key, 32)
        assert capacity == 7  # 253 usable bits, no limb held back
        ciphers = [CTX.encrypt(1.0, exponent=0) for _ in range(capacity + 1)]
        assert unpack_values(CTX, _pack(CTX, ciphers[:-1], limb_bits=32)) == [1] * 7
        with pytest.raises(ValueError, match="capacity is 7"):
            _pack(CTX, ciphers, limb_bits=32)

    def test_mixed_exponents_rejected(self):
        ciphers = [CTX.encrypt(1.0, exponent=2), CTX.encrypt(1.0, exponent=3)]
        with pytest.raises(ValueError):
            _pack(CTX, ciphers, limb_bits=32)


class TestPackedCipherIsInert:
    """What lets a pack fill the plaintext: nothing ever adds two packs."""

    def test_a_pack_has_no_arithmetic(self):
        import dataclasses
        import operator

        packed = _pack(CTX, [CTX.encrypt(1.0, exponent=0)], limb_bits=32)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(packed, packed)
        with pytest.raises(dataclasses.FrozenInstanceError):
            packed.count = 2

    def test_packs_are_made_by_the_packer_only(self):
        from pathlib import Path

        import repro

        makers = {
            path.name
            for path in Path(repro.__file__).parent.rglob("*.py")
            if "PackedCipher(" in path.read_text()
        }
        assert makers == {"packing.py"}

    def test_plaintext_above_the_limbs_is_refused(self):
        import dataclasses

        ciphers = [CTX.encrypt(float(v), exponent=0) for v in (1, 2, 3)]
        packed = _pack(CTX, ciphers, limb_bits=32)
        with pytest.raises(ValueError, match="overflows its 2 limbs"):
            unpack_values(CTX, dataclasses.replace(packed, count=2))


class TestPackingEconomics:
    def test_single_decryption_per_pack(self):
        ciphers = [CTX.encrypt(float(v), exponent=0) for v in (5, 6, 7)]
        packed = _pack(CTX, ciphers, limb_bits=32)
        before = CTX.stats.snapshot()
        unpack_values(CTX, packed)
        assert CTX.stats.diff(before).decryptions == 1

    def test_pack_costs_t_minus_one_ops(self):
        ciphers = [CTX.encrypt(float(v), exponent=0) for v in range(5)]
        before = CTX.stats.snapshot()
        _pack(CTX, ciphers, limb_bits=32)
        diff = CTX.stats.diff(before)
        assert diff.additions == 4
        assert diff.scalar_multiplications == 4

    def test_wire_size_independent_of_count(self):
        one = _pack(CTX, [CTX.encrypt(1.0, exponent=0)], limb_bits=32)
        many = _pack(
            CTX, [CTX.encrypt(1.0, exponent=0) for _ in range(4)], limb_bits=32
        )
        assert one.size_bits(CTX.public_key) == many.size_bits(CTX.public_key)
