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


class TestPackCapacity:
    def test_capacity_positive(self):
        assert pack_capacity(CTX.public_key, 32) >= 1

    def test_capacity_scales_inversely_with_limb(self):
        assert pack_capacity(CTX.public_key, 16) > pack_capacity(CTX.public_key, 64)

    def test_paper_configuration(self):
        # S=2048, M=64 -> t = 32 per the paper's S/M bound. Our space is
        # n/3 (~ S - 1.6 bits) minus one full limb of HAdd headroom, so
        # two limbs drop off the paper's figure.
        from repro.crypto.paillier import generate_keypair

        pub, _ = generate_keypair(2048, seed=6)
        assert pack_capacity(pub, 64) == 30

    def test_full_limb_headroom_at_exact_boundary(self):
        # Synthetic modulus placing the usable bit count exactly at a
        # multiple of the limb width: max_int = 2**192, usable = 192.
        # This is the boundary where the old one-*bit* reservation left
        # zero headroom: a maximal 3-limb pack decoded fine alone (the
        # bug was latent) but a single HAdd of two such packs spilled
        # past max_int into the dead zone, corrupting every limb.
        from repro.crypto.paillier import PaillierPublicKey

        pub = PaillierPublicKey(3 * (2**192 + 1))
        usable = pub.max_int.bit_length() - 1
        assert usable == 192 and usable % 64 == 0
        maximal_old = (1 << (3 * 64)) - 1  # the old formula allowed 3 limbs
        assert maximal_old <= pub.max_int < 2 * maximal_old
        # The full-limb reservation gives 2 limbs, and a maximal 2-limb
        # pack survives the same HAdd with room to spare.
        assert pack_capacity(pub, 64) == 2
        maximal_new = (1 << (2 * 64)) - 1
        assert 2 * maximal_new <= pub.max_int

    def test_tighter_top_bound_buys_capacity(self):
        # Callers that know their packed values are far below 2**M get
        # at least the conservative capacity back, never less.
        conservative = pack_capacity(CTX.public_key, 64)
        assert pack_capacity(CTX.public_key, 64, top_bits=8) >= conservative
        assert pack_capacity(CTX.public_key, 64, top_bits=64) == conservative

    def test_top_bits_validated(self):
        with pytest.raises(ValueError, match="top_bits"):
            pack_capacity(CTX.public_key, 64, top_bits=0)
        with pytest.raises(ValueError, match="top_bits"):
            pack_capacity(CTX.public_key, 64, top_bits=65)

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
        packed = pack_ciphers(CTX, ciphers, limb_bits=32)
        assert unpack_values(CTX, packed) == values

    def test_first_value_in_lowest_limb(self):
        ciphers = [CTX.encrypt(float(v), exponent=0) for v in (1, 2, 3)]
        packed = pack_ciphers(CTX, ciphers, limb_bits=16)
        raw = CTX.decrypt_raw(
            type(ciphers[0])(CTX, packed.ciphertext, packed.exponent)
        )
        assert raw & 0xFFFF == 1

    def test_zero_values(self):
        ciphers = [CTX.encrypt(0.0, exponent=0) for _ in range(4)]
        packed = pack_ciphers(CTX, ciphers, limb_bits=24)
        assert unpack_values(CTX, packed) == [0, 0, 0, 0]

    def test_max_limb_values(self):
        top = (1 << 20) - 1
        ciphers = [CTX.encrypt(float(top), exponent=0) for _ in range(3)]
        packed = pack_ciphers(CTX, ciphers, limb_bits=20)
        assert unpack_values(CTX, packed) == [top] * 3

    def test_single_cipher_pack(self):
        packed = pack_ciphers(CTX, [CTX.encrypt(42.0, exponent=0)], limb_bits=32)
        assert unpack_values(CTX, packed) == [42]

    def test_exponent_carried(self):
        ciphers = [CTX.encrypt(1.5, exponent=4), CTX.encrypt(2.0, exponent=4)]
        packed = pack_ciphers(CTX, ciphers, limb_bits=40)
        assert packed.exponent == 4
        values = unpack_values(CTX, packed)
        base = CTX.encoder.base
        assert values[0] / base**4 == pytest.approx(1.5)
        assert values[1] / base**4 == pytest.approx(2.0)


class TestPackValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pack_ciphers(CTX, [], limb_bits=32)

    def test_over_capacity_rejected(self):
        capacity = pack_capacity(CTX.public_key, 32)
        ciphers = [CTX.encrypt(1.0, exponent=0) for _ in range(capacity + 1)]
        with pytest.raises(ValueError):
            pack_ciphers(CTX, ciphers, limb_bits=32)

    def test_mixed_exponents_rejected(self):
        ciphers = [CTX.encrypt(1.0, exponent=2), CTX.encrypt(1.0, exponent=3)]
        with pytest.raises(ValueError):
            pack_ciphers(CTX, ciphers, limb_bits=32)


class TestPackingEconomics:
    def test_single_decryption_per_pack(self):
        ciphers = [CTX.encrypt(float(v), exponent=0) for v in (5, 6, 7)]
        packed = pack_ciphers(CTX, ciphers, limb_bits=32)
        before = CTX.stats.snapshot()
        unpack_values(CTX, packed)
        assert CTX.stats.diff(before).decryptions == 1

    def test_pack_costs_t_minus_one_ops(self):
        ciphers = [CTX.encrypt(float(v), exponent=0) for v in range(5)]
        before = CTX.stats.snapshot()
        pack_ciphers(CTX, ciphers, limb_bits=32)
        diff = CTX.stats.diff(before)
        assert diff.additions == 4
        assert diff.scalar_multiplications == 4

    def test_wire_size_independent_of_count(self):
        one = pack_ciphers(CTX, [CTX.encrypt(1.0, exponent=0)], limb_bits=32)
        many = pack_ciphers(
            CTX, [CTX.encrypt(1.0, exponent=0) for _ in range(4)], limb_bits=32
        )
        assert one.size_bits(CTX.public_key) == many.size_bits(CTX.public_key)
