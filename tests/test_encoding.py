"""Tests for fixed-point encoding with exponent jitter."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import Encoder
from repro.crypto.paillier import generate_keypair

PUBLIC, _ = generate_keypair(256, seed=3)


@pytest.fixture()
def encoder() -> Encoder:
    return Encoder(PUBLIC, base=16, exponent=8, jitter=1)


class TestEncodeDecode:
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=60)
    def test_round_trip_close(self, value):
        enc = Encoder(PUBLIC, base=16, exponent=8)
        decoded = enc.decode(enc.encode(value))
        assert abs(decoded - value) <= 16**-8 + abs(value) * 1e-12

    def test_exact_integers(self, encoder):
        for value in (-5.0, 0.0, 3.0, 1024.0):
            assert encoder.decode(encoder.encode(value)) == value

    def test_negative_values_use_upper_range(self, encoder):
        encoded = encoder.encode(-1.0)
        assert encoded.value > PUBLIC.n - PUBLIC.max_int - 1

    def test_positive_values_use_lower_range(self, encoder):
        encoded = encoder.encode(1.0)
        assert encoded.value <= PUBLIC.max_int

    def test_overflow_raises(self, encoder):
        with pytest.raises(OverflowError):
            encoder.encode(float(PUBLIC.n))

    def test_decode_dead_zone_raises(self, encoder):
        from repro.crypto.encoding import EncodedNumber

        bad = EncodedNumber(PUBLIC, PUBLIC.n // 2, 8)
        with pytest.raises(OverflowError):
            bad.decode()

    def test_decode_foreign_key_rejected(self, encoder):
        other_pub, _ = generate_keypair(256, seed=99)
        foreign = Encoder(other_pub).encode(1.0)
        with pytest.raises(ValueError):
            encoder.decode(foreign)


class TestBaseMismatch:
    def test_decode_with_wrong_base_rejected(self, encoder):
        encoded = encoder.encode(2.5)
        with pytest.raises(ValueError, match="encoding base mismatch"):
            encoded.decode(base=2)

    def test_encoder_decode_rejects_foreign_base(self, encoder):
        # Before EncodedNumber carried its base, this decoded silently
        # to a wrong value; now the mismatch is an error.
        foreign = Encoder(PUBLIC, base=2, exponent=8).encode(2.5)
        with pytest.raises(ValueError, match="encoding base mismatch"):
            encoder.decode(foreign)

    def test_decrease_exponent_rejects_foreign_base(self, encoder):
        encoded = encoder.encode(2.5, exponent=4)
        with pytest.raises(ValueError, match="encoding base mismatch"):
            encoded.decrease_exponent_to(6, base=2)

    def test_matching_base_round_trips(self, encoder):
        encoded = encoder.encode(2.5)
        assert encoded.decode(base=16) == pytest.approx(2.5)
        assert encoded.base == 16


class TestExponentHandling:
    def test_pinned_exponent(self, encoder):
        encoded = encoder.encode(2.5, exponent=4)
        assert encoded.exponent == 4
        assert encoded.value == round(2.5 * 16**4)

    def test_decrease_exponent_preserves_value(self, encoder):
        encoded = encoder.encode(3.25, exponent=4)
        rescaled = encoded.decrease_exponent_to(7)
        assert rescaled.exponent == 7
        assert rescaled.decode() == pytest.approx(3.25)

    def test_decrease_exponent_rejects_precision_loss(self, encoder):
        encoded = encoder.encode(3.25, exponent=6)
        with pytest.raises(ValueError):
            encoded.decrease_exponent_to(4)


class TestJitter:
    def test_jitter_window(self):
        enc = Encoder(PUBLIC, exponent=8, jitter=4, rng=random.Random(0))
        seen = {enc.encode(0.5).exponent for _ in range(200)}
        assert seen == {8, 9, 10, 11}

    def test_jitter_one_is_deterministic(self):
        enc = Encoder(PUBLIC, exponent=8, jitter=1)
        assert all(enc.encode(0.5).exponent == 8 for _ in range(10))

    def test_jittered_values_decode_identically(self):
        enc = Encoder(PUBLIC, exponent=8, jitter=5, rng=random.Random(1))
        for _ in range(50):
            assert enc.decode(enc.encode(-0.375)) == pytest.approx(-0.375)

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            Encoder(PUBLIC, jitter=0)

    def test_invalid_base_rejected(self):
        with pytest.raises(ValueError):
            Encoder(PUBLIC, base=1)
