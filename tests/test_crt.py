"""Tests for the key holder's CRT route through the powmod choke point.

The contract under test: :func:`math_utils.powmod_crt` returns the
integer the plain full-width ``pow`` returns, for every route it can
take, and a whole encrypt/HAdd/SMul/pack trace under the key holder's
pool equals the same trace under a ``crt=None`` pool.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import math_utils
from repro.crypto.ciphertext import PaillierContext
from repro.crypto.math_utils import CrtParams, powmod_crt
from repro.crypto.packing import pack_ciphers, unpack_values
from repro.crypto.paillier import (
    ObfuscatorPool,
    derive_insecure_keypair_from_primes,
    generate_keypair,
)

PUBLIC, PRIVATE = generate_keypair(256, seed=42)


def _crt_params():
    """CRT constants built without ``PaillierPrivateKey.crt_params``."""
    p2 = PRIVATE.p * PRIVATE.p
    q2 = PRIVATE.q * PRIVATE.q
    return CrtParams(p=PRIVATE.p, q=PRIVATE.q, q_sq_inv=pow(q2, -1, p2))


class TestCrtPowmod:
    def test_bit_identical_to_plain_pow(self):
        crt = _crt_params()
        rng = random.Random(3)
        for _ in range(20):
            base = rng.randrange(1, PUBLIC.n_squared)
            for exponent in (rng.randrange(1, PUBLIC.n), PUBLIC.n):
                assert powmod_crt(base, exponent, crt) == pow(
                    base, exponent, PUBLIC.n_squared
                )

    def test_private_key_crt_params_are_cached(self, choke_calls):
        # A fresh key object: the module-level one may already be warm.
        _, private = derive_insecure_keypair_from_primes(PRIVATE.p, PRIVATE.q)
        del choke_calls[:]
        first = private.crt_params()
        assert private.crt_params() is first
        assert choke_calls == ["invert"]  # the q^2 inverse, once per key
        assert first == _crt_params()
        assert first.modulus == PUBLIC.n_squared

    def test_key_holder_enc_is_one_powmod(self, choke_calls):
        # The key holder's obfuscator runs as four half-width pows inside
        # powmod_crt; the choke point still sees one logical powmod.
        context = PaillierContext(PUBLIC, PRIVATE)
        del choke_calls[:]
        context.encrypt(2.0)
        assert choke_calls == ["powmod"]
        assert context.stats.encryptions == 1

    def test_dispatch_uses_crt_only_for_matching_modulus(self):
        crt = _crt_params()
        # Mismatched modulus must take the plain path, same result.
        assert math_utils.powmod(7, 65537, PUBLIC.n, crt=crt) == pow(
            7, 65537, PUBLIC.n
        )
        assert math_utils.powmod(7, 65537, PUBLIC.n_squared, crt=crt) == pow(
            7, 65537, PUBLIC.n_squared
        )

    @pytest.mark.parametrize("squarings", [0, 1, 58, 59, 60, 61, 117, 118, 119, 177])
    def test_power_of_two_exponent_is_squarings(self, squarings, choke_calls):
        # Every packing SMul is c^(2^stride): the route asks ``pow`` for
        # the squarings in pieces below its window-table cutoff — same
        # integer, one choke-point call, with or without CRT constants.
        rng = random.Random(squarings)
        n_squared = PUBLIC.n_squared
        exponent = 1 << squarings
        for base in (
            rng.randrange(2, n_squared),
            n_squared + rng.randrange(2, n_squared),
            n_squared - 1,
        ):
            expected = pow(base, exponent, n_squared)
            assert math_utils.powmod(base, exponent, n_squared) == expected
            assert (
                math_utils.powmod(base, exponent, n_squared, crt=_crt_params())
                == expected
            )
            # A neighbouring exponent is no shift: plain path.
            assert math_utils.powmod(base, exponent + 1, n_squared) == pow(
                base, exponent + 1, n_squared
            )
        assert choke_calls == ["powmod"] * 9

    def test_power_of_two_route_never_hands_pow_a_long_exponent(self, monkeypatch):
        asked = []
        real_pow = pow

        def spy(base, exponent, modulus):
            asked.append(exponent)
            return real_pow(base, exponent, modulus)

        monkeypatch.setattr(math_utils, "pow", spy, raising=False)
        assert math_utils.powmod(3, 1 << 177, PUBLIC.n_squared) == real_pow(
            3, 1 << 177, PUBLIC.n_squared
        )
        assert asked == [1 << 59, 1 << 59, 1 << 59]
        asked.clear()
        math_utils.powmod(3, 1 << 59, PUBLIC.n_squared)
        math_utils.powmod(3, (1 << 60) + 1, PUBLIC.n_squared)
        assert asked == [1 << 59, (1 << 60) + 1]

    def test_route_by_exponent_and_base(self, monkeypatch):
        crt = _crt_params()
        p, q, n = PRIVATE.p, PRIVATE.q, PUBLIC.n
        moduli = []

        def counting_pow(base, exponent, modulus):
            moduli.append(modulus)
            return pow(base, exponent, modulus)

        # Shadows the builtin for math_utils only; nothing in src/ is a seam.
        monkeypatch.setattr(math_utils, "pow", counting_pow, raising=False)
        cases = [
            # obfuscator shape, unit base: the four p-adic steps
            (12345, n, [p, p * p, q, q * q]),
            # any other exponent: the generic split
            (12345, n - 1, [p * p, q * q]),
            (p, 3, [p * p, q * q]),
            # exponent n, base outside the p-adic identity: plain pow
            (0, n, [n * n]),
            (p, n, [n * n]),
            (5 * q, n, [n * n]),
            (n, n, [n * n]),
        ]
        for base, exponent, expected in cases:
            del moduli[:]
            assert powmod_crt(base, exponent, crt) == pow(base, exponent, n * n)
            assert moduli == expected, (base, exponent)

    def test_invert_names_the_non_unit(self):
        with pytest.raises(ValueError, match="not invertible modulo"):
            math_utils.invert(PRIVATE.p, PUBLIC.n_squared)
        assert math_utils.invert(3, 7) == 5


def _prime_at_or_after(start: int, step: int) -> int:
    candidate = start
    while not math_utils.is_probable_prime(candidate):
        candidate += step
    return candidate


def _limb_edge_keys():
    """Keys whose primes are the largest and the smallest of their size.

    63/64/65 and 127/128/129 bits straddle one and two 64-bit limbs (and
    CPython's 30-bit digits), so ``p``, ``p^2`` and the reduced exponents
    land on both sides of every word boundary.
    """
    keys = []
    for bits in (63, 64, 65, 127, 128, 129):
        p = _prime_at_or_after((1 << bits) - 1, -2)
        q = _prime_at_or_after((1 << (bits - 1)) + 1, 2)
        # both orders: q mod (p - 1) only reduces when q > p
        keys.append(derive_insecure_keypair_from_primes(p, q))
        keys.append(derive_insecure_keypair_from_primes(q, p))
    return keys


LIMB_EDGE_KEYS = _limb_edge_keys()


class TestCrtBoundaries:
    @given(
        random_exponent=st.integers(min_value=0),
        random_base=st.integers(min_value=0),
    )
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_split_matches_plain_pow_at_limb_edges(
        self, random_exponent, random_base
    ):
        for public, private in LIMB_EDGE_KEYS:
            n, n2 = public.n, public.n_squared
            p, q = private.p, private.q
            crt = private.crt_params()
            exponents = [0, 1, n - 1, n, n + 1, 2 * n, random_exponent % n2]
            # p, q, 0 and n are not units: outside the p-adic identity
            bases = [0, 1, p, q, p * q - 1, n, n2 - 1, random_base % n2]
            for exponent in exponents:
                for base in bases:
                    assert math_utils.powmod(base, exponent, n2, crt=crt) == pow(
                        base, exponent, n2
                    ), (p, q, base, exponent)


def _ciphertext_trace(crt: bool) -> list[int]:
    """Encrypt/HAdd/SMul/pack with pinned randomness.

    ``crt=False`` swaps in a pool without the key holder's CRT constants:
    the plain full-width reference for every obfuscator.
    """
    context = PaillierContext(
        PUBLIC,
        PRIVATE,
        jitter=1,
        obfuscator_rng=random.Random(99),
    )
    if not crt:
        context.pool = ObfuscatorPool(PUBLIC, rng=random.Random(99), crt=None)
    a = context.encrypt(1.25, exponent=4)
    b = context.encrypt(-2.5, exponent=4)
    total = context.add(a, b)
    scaled = context.multiply(a, -3)
    positive = [context.encrypt(float(v), exponent=0) for v in (11, 22, 33)]
    packed = pack_ciphers(context, positive, limb_bits=24)
    trace = [
        a.ciphertext,
        b.ciphertext,
        total.ciphertext,
        scaled.ciphertext,
        packed.ciphertext,
    ]
    assert context.decrypt(total) == pytest.approx(-1.25)
    assert context.decrypt(scaled) == pytest.approx(-3.75)
    assert unpack_values(context, packed) == [11, 22, 33]
    return trace


def test_key_holder_split_matches_plain_obfuscators():
    assert _ciphertext_trace(crt=True) == _ciphertext_trace(crt=False)
