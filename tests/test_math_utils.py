"""Unit tests for the number-theory primitives."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import math_utils


class TestIsProbablePrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101, 199):
            assert math_utils.is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 6, 9, 15, 21, 91, 561, 1105):
            assert not math_utils.is_probable_prime(c)

    def test_negative_numbers(self):
        assert not math_utils.is_probable_prime(-7)

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat pseudoprimes must not fool Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not math_utils.is_probable_prime(carmichael)

    def test_large_known_prime(self):
        assert math_utils.is_probable_prime(2**127 - 1)  # Mersenne prime

    def test_large_known_composite(self):
        assert not math_utils.is_probable_prime(2**128 + 1)


class TestGeneratePrime:
    def test_bit_length_exact(self):
        for bits in (16, 32, 64):
            prime = math_utils.generate_prime(bits)
            assert prime.bit_length() == bits
            assert math_utils.is_probable_prime(prime)

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            math_utils.generate_prime(4)

    def test_seeded_generator_replays(self):
        first = math_utils.generate_prime(64, random.Random(8))
        assert first == math_utils.generate_prime(64, random.Random(8))
        assert first != math_utils.generate_prime(64, random.Random(9))


class TestGeneratePrimePair:
    def test_product_has_requested_bits(self):
        for bits in (16, 17, 65, 128):
            (p, _), (q, _) = math_utils.generate_prime_pair(bits)
            assert (p * q).bit_length() == bits
            assert p != q
            assert math.gcd(p * q, (p - 1) * (q - 1)) == 1

    def test_primality_of_both(self):
        (p, p_factors), (q, q_factors) = math_utils.generate_prime_pair(96)
        assert math_utils.is_probable_prime(p)
        assert math_utils.is_probable_prime(q)
        # ... and of every listed factor of p - 1 and q - 1
        for prime, factors in ((p, p_factors), (q, q_factors)):
            assert math.prod(factors) == prime - 1
            assert all(math_utils.is_probable_prime(f) for f in factors)

    def test_large_primes_have_the_factored_form(self):
        # p - 1 = 2 * k * r, k below the trial-division bound, r prime
        (p, factors), _ = math_utils.generate_prime_pair(160)
        assert factors[0] == 2 and factors[-1].bit_length() == 80 - 16
        assert math.prod(factors[1:-1]) < 1 << 16
        assert p >> 78 == 3  # top two bits set

    def test_seeded_draws_replay(self):
        first = math_utils.generate_prime_pair(130, random.Random(4))
        assert first == math_utils.generate_prime_pair(130, random.Random(4))
        assert first != math_utils.generate_prime_pair(130, random.Random(5))


class TestInvert:
    def test_round_trip(self):
        modulus = 1009  # prime
        for a in (2, 3, 17, 1008):
            inverse = math_utils.invert(a, modulus)
            assert (a * inverse) % modulus == 1

    def test_non_invertible_raises(self):
        with pytest.raises(ValueError):
            math_utils.invert(6, 9)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_invert_property(self, a):
        modulus = 104729  # prime
        inverse = math_utils.invert(a % modulus or 1, modulus)
        assert ((a % modulus or 1) * inverse) % modulus == 1


class TestCrtCombine:
    @given(
        st.integers(min_value=0, max_value=10**12),
    )
    @settings(max_examples=50)
    def test_reconstructs_value(self, value):
        p, q = 1_000_003, 999_983
        value = value % (p * q)
        q_inv_p = math_utils.invert(q, p)
        combined = math_utils.crt_combine(value % p, value % q, p, q, q_inv_p)
        assert combined % (p * q) == value


class TestRandomHelpers:
    def test_random_coprime(self):
        n = 15  # 3 * 5
        for _ in range(50):
            r = math_utils.random_coprime(n)
            assert 1 <= r < n
            assert math.gcd(r, n) == 1
