"""Tests for the key holder's obfuscator route and the powmod choke points.

The contract under test: an obfuscator the key holder draws — a unit
lifted to ``y^p mod p^2`` and one to ``y^q mod q^2``, glued by Garner —
has exactly the law of ``r^n mod n^2`` for a uniform unit ``r``, and
:func:`math_utils.powmod`, on whatever engine the platform has, returns
the integer the built-in ``pow`` returns.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import math_utils
from repro.crypto.ciphertext import PaillierContext
from repro.crypto.packing import pack_ciphers, unpack_values
from repro.crypto.paillier import (
    ObfuscatorPool,
    PaillierPrivateKey,
    derive_insecure_keypair_from_primes,
    generate_keypair,
)

PUBLIC, PRIVATE = generate_keypair(256, seed=42)


class _Scripted:
    """Stands in for a ``random.Random``: ``randrange`` replays a script."""

    def __init__(self, *values: int) -> None:
        self.values = list(values)

    def randrange(self, bound: int) -> int:
        value = self.values.pop(0)
        assert 0 <= value < bound
        return value


def _draw(private: PaillierPrivateKey, a: int, b: int) -> int:
    """The obfuscator for the draws ``a + 1`` mod p and ``b + 1`` mod q."""
    return private.make_obfuscator(_Scripted(a, b))


def _spy_on_powmod(monkeypatch) -> list[tuple[int, int, int]]:
    """``(base, exponent, modulus)`` of every ``math_utils.powmod`` call."""
    asked = []
    powmod = math_utils.powmod

    def spy(base, exponent, modulus):
        asked.append((base, exponent, modulus))
        return powmod(base, exponent, modulus)

    monkeypatch.setattr(math_utils, "powmod", spy)
    return asked


class TestCrtPowmod:
    def test_bit_identical_to_plain_pow(self):
        # Each side of a key-holder draw is the plain power it stands for.
        p, q = PRIVATE.p, PRIVATE.q
        rng = random.Random(3)
        for _ in range(20):
            a, b = rng.randrange(p - 1), rng.randrange(q - 1)
            lifted = _draw(PRIVATE, a, b)
            assert lifted % (p * p) == pow(a + 1, p, p * p)
            assert lifted % (q * q) == pow(b + 1, q, q * q)

    def test_draw_state_is_built_once_per_key(self, choke_calls):
        # A fresh key object: the module-level one may already be warm.
        private = PaillierPrivateKey(PUBLIC, PRIVATE.p, PRIVATE.q)
        del choke_calls[:]
        private.make_obfuscator()
        state = private._q_sq_inv
        # the q^2 inverse once per key, then one powmod per side and draw
        assert state == pow(PRIVATE.q**2, -1, PRIVATE.p**2)
        assert choke_calls == ["invert", "powmod", "powmod"]
        private.make_obfuscator()
        assert private._q_sq_inv == state
        assert choke_calls[3:] == ["powmod", "powmod"]

    def test_key_holder_enc_is_one_powmod(self, monkeypatch, choke_calls):
        # One half-width powmod per prime and Enc: a uniform unit lifted
        # to the prime-th power; building the key lifts nothing.
        p, q = PRIVATE.p, PRIVATE.q
        lifts = ((p, p * p), (q, q * q))
        asked = _spy_on_powmod(monkeypatch)
        private = PaillierPrivateKey(PUBLIC, p, q)
        assert not [call for call in asked if call[1:] in lifts]
        context = PaillierContext(PUBLIC, private)
        del asked[:], choke_calls[:]
        for value in (2.0, -3.5, 0.0):
            assert context.decrypt(context.encrypt(value)) == pytest.approx(value)
        assert context.stats.encryptions == 3
        assert choke_calls.count("invert") == 1
        # twelve powmods: each Enc's two lifts, each Dec's halves
        assert choke_calls.count("powmod") == 12
        # each draw is (y, prime, prime^2) for a unit y below the prime
        draws = [call for call in asked if call[1:] in lifts]
        assert [call[1:] for call in draws] == list(lifts) * 3
        assert all(0 < base < prime for base, prime, _ in draws)
        decryptions = [call[1:] for call in asked if call[1:] not in lifts]
        assert sorted(decryptions) == sorted([(p - 1, p * p), (q - 1, q * q)] * 3)

    @pytest.mark.parametrize("squarings", [0, 1, 58, 59, 60, 61, 117, 118, 119, 177])
    def test_power_of_two_exponent_is_squarings(self, squarings, choke_calls):
        # Every packing SMul is c^(2^stride): one choke-point call, the
        # integer ``pow`` returns, on either side of 64-bit exponent words.
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
            # A neighbouring exponent is no shift: plain path.
            assert math_utils.powmod(base, exponent + 1, n_squared) == pow(
                base, exponent + 1, n_squared
            )
        assert choke_calls == ["powmod"] * 6

    def test_route_by_key_kind(self, monkeypatch):
        # Whether the pool holds a private key picks the sampler; no
        # caller does.
        p, q, n = PRIVATE.p, PRIVATE.q, PUBLIC.n
        _, bare = derive_insecure_keypair_from_primes(p, q)
        pools = [
            # a private key, generated or from bare primes: one
            # half-width lift per side
            (ObfuscatorPool(PUBLIC, private_key=PRIVATE), [(p, p * p), (q, q * q)]),
            (ObfuscatorPool(PUBLIC, private_key=bare), [(p, p * p), (q, q * q)]),
            # no private key: the full-width reference
            (ObfuscatorPool(PUBLIC), [(n, n * n)]),
        ]
        asked = _spy_on_powmod(monkeypatch)
        for pool, expected in pools:
            del asked[:]
            obfuscator = pool.take()
            assert [call[1:] for call in asked] == expected
            assert PRIVATE.raw_decrypt(obfuscator) == 0

    def test_invert_names_the_non_unit(self):
        with pytest.raises(ValueError, match="not invertible modulo"):
            math_utils.invert(PRIVATE.p, PUBLIC.n_squared)
        assert math_utils.invert(3, 7) == 5


def _prime_at_or_after(start: int, step: int) -> int:
    candidate = start
    while not math_utils.is_probable_prime(candidate):
        candidate += step
    return candidate


def _limb_edge_primes() -> list[int]:
    """The largest and the smallest prime of each limb-edge size.

    63/64/65 and 127/128/129 bits straddle one and two 64-bit limbs (and
    CPython's 30-bit digits), so ``p`` and ``p^2`` land on both sides of
    every word boundary.
    """
    primes = []
    for bits in (63, 64, 65, 127, 128, 129):
        primes.append(_prime_at_or_after((1 << bits) - 1, -2))
        primes.append(_prime_at_or_after((1 << (bits - 1)) + 1, 2))
    return primes


LIMB_EDGE_PRIMES = _limb_edge_primes()


#: widest random operand the engine test draws: twice the widest
#: limb-edge modulus (a 129-bit prime squared)
_RANDOM_BITS = 2 * 2 * 129


class TestLimbEdges:
    @given(
        random_base=st.integers(min_value=0, max_value=(1 << _RANDOM_BITS) - 1),
        random_exponent=st.integers(min_value=0, max_value=(1 << _RANDOM_BITS) - 1),
    )
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_powmod_matches_pow(self, random_base, random_exponent):
        # The engine against the built-in reference, cached (powmod) and
        # uncached (the Miller-Rabin rounds), on both sides of every word
        # boundary; a modulus Montgomery arithmetic cannot take (1, even)
        # and a negative exponent must give pow's answer too.
        cases = [
            (prime, modulus)
            for prime in LIMB_EDGE_PRIMES
            for modulus in (prime, prime * prime)
        ]
        cases += [(LIMB_EDGE_PRIMES[0], 1), (LIMB_EDGE_PRIMES[0], 1 << 64)]
        for prime, modulus in cases:
            width = 2 * modulus.bit_length()
            bases = (0, 1, modulus - 1, modulus, modulus + 1, random_base % (1 << width))
            exponents = (
                0,
                1,
                1 << 47,
                (1 << 60) + 1,
                prime - 1,
                random_exponent % (1 << width),
            )
            for base in bases:
                for exponent in exponents:
                    expected = pow(base, exponent, modulus)
                    for engine in (math_utils.powmod, math_utils._powmod_once):
                        assert engine(base, exponent, modulus) == expected, (
                            modulus,
                            base,
                            exponent,
                        )
        prime = LIMB_EDGE_PRIMES[-1]
        assert math_utils.powmod(3, -1, prime) == pow(3, -1, prime)

    def test_lift_route_at_limb_edges(self):
        # Primes on both sides of a word boundary: still n-th residues.
        for p, q in zip(LIMB_EDGE_PRIMES[::2], LIMB_EDGE_PRIMES[1::2]):
            for public, private in (
                derive_insecure_keypair_from_primes(p, q),
                derive_insecure_keypair_from_primes(q, p),
            ):
                pool = ObfuscatorPool(public, private_key=private)
                for _ in range(3):
                    assert private.raw_decrypt(pool.take()) == 0


class TestObfuscatorLaw:
    """The key holder's draw has the law of ``r^n mod n^2``, exactly."""

    @pytest.mark.parametrize("p, q", [(5, 7), (7, 5), (11, 13), (47, 59), (37, 101)])
    def test_every_nth_residue_is_hit_exactly_once(self, p, q):
        n = p * q
        residues = Counter(
            pow(r, n, n * n) for r in range(1, n) if math.gcd(r, n) == 1
        )
        assert set(residues.values()) == {1}  # r -> r^n is injective on Z_n^*
        _, private = derive_insecure_keypair_from_primes(p, q)
        drawn = Counter(_draw(private, a, b) for a in range(p - 1) for b in range(q - 1))
        assert drawn == residues

    @pytest.mark.parametrize("key_bits", [256, 384, 512])
    def test_drawn_obfuscators_are_nth_residues(self, key_bits):
        public, private = generate_keypair(key_bits, seed=key_bits)
        order = (private.p - 1) * (private.q - 1)
        pool = ObfuscatorPool(public, private_key=private)
        drawn = [pool.take() for _ in range(24)]
        assert len(set(drawn)) == len(drawn)
        for obfuscator in drawn:
            assert private.raw_decrypt(obfuscator) == 0
            assert pow(obfuscator, order, public.n_squared) == 1


def _ciphertext_trace(pool_seed: int, key_holder: bool = True) -> list[int]:
    """Encrypt/HAdd/SMul/pack with pinned randomness.

    ``key_holder=False`` swaps in a pool without the private key: the
    full-width ``r^n mod n^2`` reference for every obfuscator.
    """
    context = PaillierContext(
        PUBLIC,
        PRIVATE,
        jitter=1,
        obfuscator_rng=random.Random(pool_seed),
    )
    if not key_holder:
        context.pool = ObfuscatorPool(PUBLIC, rng=random.Random(pool_seed))
    a = context.encrypt(1.25, exponent=4)
    b = context.encrypt(-2.5, exponent=4)
    positive = [context.encrypt(float(v), exponent=0) for v in (11, 22, 33)]
    with context.resident() as block:
        x = block.load(a)
        total = block.unload(context.add(x, block.load(b)))
        scaled = block.unload(context.multiply(x, -3))
        packed = pack_ciphers(context, [block.load(c) for c in positive], limb_bits=24)
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
    # Same law, different sampler: a seeded key-holder trace replays
    # bit for bit, decrypts like the full-width reference trace (checked
    # inside), and shares no ciphertext with it or with another seed.
    trace = _ciphertext_trace(99)
    assert trace == _ciphertext_trace(99)
    assert not set(trace) & set(_ciphertext_trace(99, key_holder=False))
    assert not set(trace) & set(_ciphertext_trace(100))
    # A pool handed another key's private half raises.
    other_public, other_private = generate_keypair(256, seed=43)
    with pytest.raises(ValueError, match="does not belong"):
        ObfuscatorPool(PUBLIC, private_key=other_private)
    with pytest.raises(ValueError, match="does not belong"):
        ObfuscatorPool(other_public, private_key=PRIVATE)
