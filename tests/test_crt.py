"""Tests for the key holder's obfuscator route and the powmod choke points.

The contract under test: an obfuscator the key holder draws — a tabled
generator power per side when the key carries the factorisation of
``p - 1``, a lifted unit per side when it does not, glued by Garner —
has exactly the law of ``r^n mod n^2`` for a uniform unit ``r``, and
:func:`math_utils.fixed_base_powmod` returns the integer the plain
``pow`` returns.
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
    PaillierPublicKey,
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


def _factored_key(p: int, q: int) -> PaillierPrivateKey:
    """A toy key that carries its factor lists: the table route."""
    return PaillierPrivateKey(
        PaillierPublicKey(p * q),
        p,
        q,
        tuple(math_utils._trial_factor(p - 1)),
        tuple(math_utils._trial_factor(q - 1)),
    )


def _spy_on_pow(monkeypatch) -> list[tuple[int, int]]:
    """``(exponent, modulus)`` of every ``pow`` that ``math_utils`` runs."""
    asked = []

    def spy(base, exponent, modulus):
        asked.append((exponent, modulus))
        return pow(base, exponent, modulus)

    # Shadows the builtin for math_utils only; nothing in src/ is a seam.
    monkeypatch.setattr(math_utils, "pow", spy, raising=False)
    return asked


class TestCrtPowmod:
    def test_bit_identical_to_plain_pow(self):
        # Each side of a key-holder draw is the plain power it stands for.
        p, q = PRIVATE.p, PRIVATE.q
        root_p = math_utils.primitive_root(p, PRIVATE.p_factors)
        root_q = math_utils.primitive_root(q, PRIVATE.q_factors)
        _, bare = derive_insecure_keypair_from_primes(p, q)
        rng = random.Random(3)
        for _ in range(20):
            a, b = rng.randrange(p - 1), rng.randrange(q - 1)
            tabled = _draw(PRIVATE, a, b)
            assert tabled % (p * p) == pow(pow(root_p, p, p * p), a + 1, p * p)
            assert tabled % (q * q) == pow(pow(root_q, q, q * q), b + 1, q * q)
            lifted = _draw(bare, a, b)
            assert lifted % (p * p) == pow(a + 1, p, p * p)
            assert lifted % (q * q) == pow(b + 1, q, q * q)

    def test_draw_state_is_built_once_per_key(self, choke_calls):
        # A fresh key object: the module-level one may already be warm.
        private = PaillierPrivateKey(
            PUBLIC, PRIVATE.p, PRIVATE.q, PRIVATE.p_factors, PRIVATE.q_factors
        )
        del choke_calls[:]
        private.make_obfuscator()
        state = private._draw_state
        # the q^2 inverse once per key; the tables are multiplications
        assert choke_calls == ["invert", "fixed_base_powmod", "fixed_base_powmod"]
        private.make_obfuscator()
        assert private._draw_state is state
        assert choke_calls[3:] == ["fixed_base_powmod", "fixed_base_powmod"]

    def test_key_holder_enc_is_one_powmod(self, monkeypatch, choke_calls):
        # One powmod per side and per *key*: the generator lift, at
        # construction.  No encryption, the first included, asks for one.
        p, q = PRIVATE.p, PRIVATE.q
        asked = _spy_on_pow(monkeypatch)
        private = PaillierPrivateKey(
            PUBLIC, p, q, PRIVATE.p_factors, PRIVATE.q_factors
        )
        lifts = [call for call in asked if call in ((p, p * p), (q, q * q))]
        assert lifts == [(p, p * p), (q, q * q)]
        context = PaillierContext(PUBLIC, private)
        del asked[:], choke_calls[:]
        for value in (2.0, -3.5, 0.0):
            assert context.decrypt(context.encrypt(value)) == pytest.approx(value)
        assert context.stats.encryptions == 3
        assert choke_calls.count("fixed_base_powmod") == 6
        assert choke_calls.count("invert") == 1
        # the six powmods are the three decryptions', none an Enc's
        assert choke_calls.count("powmod") == 6
        assert {modulus for _, modulus in asked} <= {p * p, q * q}
        assert all(exponent in (p - 1, q - 1, -1) for exponent, _ in asked)

    @pytest.mark.parametrize("squarings", [0, 1, 58, 59, 60, 61, 117, 118, 119, 177])
    def test_power_of_two_exponent_is_squarings(self, squarings, choke_calls):
        # Every packing SMul is c^(2^stride): the route asks ``pow`` for
        # the squarings in pieces below its window-table cutoff — same
        # integer, one choke-point call.
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

    def test_power_of_two_route_never_hands_pow_a_long_exponent(self, monkeypatch):
        asked = _spy_on_pow(monkeypatch)
        assert math_utils.powmod(3, 1 << 177, PUBLIC.n_squared) == pow(
            3, 1 << 177, PUBLIC.n_squared
        )
        assert [exponent for exponent, _ in asked] == [1 << 59, 1 << 59, 1 << 59]
        asked.clear()
        math_utils.powmod(3, 1 << 59, PUBLIC.n_squared)
        math_utils.powmod(3, (1 << 60) + 1, PUBLIC.n_squared)
        assert [exponent for exponent, _ in asked] == [1 << 59, (1 << 60) + 1]

    def test_route_by_key_kind(self, monkeypatch):
        # What the key *is* picks the sampler; no caller does.
        p, q, n = PRIVATE.p, PRIVATE.q, PUBLIC.n
        _, bare = derive_insecure_keypair_from_primes(p, q)
        one_sided = PaillierPrivateKey(PUBLIC, p, q, p_factors=PRIVATE.p_factors)
        pools = [
            # generated key: tabled powers, no pow at all
            (ObfuscatorPool(PUBLIC, private_key=PRIVATE), []),
            # bare primes: one half-width lift per side
            (ObfuscatorPool(PUBLIC, private_key=bare), [(p, p * p), (q, q * q)]),
            # each side decides for itself
            (ObfuscatorPool(PUBLIC, private_key=one_sided), [(q, q * q)]),
            # no factorisation: the full-width reference
            (ObfuscatorPool(PUBLIC), [(n, n * n)]),
        ]
        for pool, _ in pools:
            pool.take()  # the q^2 inverse is a pow(-1) of the first draw
        asked = _spy_on_pow(monkeypatch)
        for pool, expected in pools:
            del asked[:]
            obfuscator = pool.take()
            assert asked == expected
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


class TestFixedBase:
    @given(
        random_exponent=st.integers(min_value=0),
        random_base=st.integers(min_value=0),
    )
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_fixed_base_matches_plain_pow_at_limb_edges(
        self, random_exponent, random_base
    ):
        window = math_utils._WINDOW_BITS
        for prime in LIMB_EDGE_PRIMES:
            order = prime - 1
            for modulus in (prime, prime * prime):
                for base in (2, modulus - 1, random_base % modulus):
                    table = math_utils.fixed_base_table(
                        base, order.bit_length(), modulus
                    )
                    for exponent in (
                        0,
                        1,
                        (1 << window) - 1,
                        1 << window,
                        order - 1,
                        order,
                        random_exponent % order,
                    ):
                        assert math_utils.fixed_base_powmod(
                            table, exponent, modulus
                        ) == pow(base, exponent, modulus), (modulus, base, exponent)

    def test_exponent_outside_the_table_is_refused(self):
        table = math_utils.fixed_base_table(3, 12, 1009)
        assert len(table) == -(-12 // math_utils._WINDOW_BITS)
        top = 1 << (math_utils._WINDOW_BITS * len(table))
        assert math_utils.fixed_base_powmod(table, top - 1, 1009) == pow(3, top - 1, 1009)
        for exponent in (top, -1):
            with pytest.raises(ValueError, match="outside the range"):
                math_utils.fixed_base_powmod(table, exponent, 1009)

    def test_lift_route_at_limb_edges(self):
        # Keys from bare primes take the lift: still n-th residues.
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
        _, bare = derive_insecure_keypair_from_primes(p, q)
        for private in (_factored_key(p, q), bare):
            drawn = Counter(
                _draw(private, a, b) for a in range(p - 1) for b in range(q - 1)
            )
            assert drawn == residues

    @pytest.mark.parametrize("key_bits", [256, 384, 512])
    def test_drawn_obfuscators_are_nth_residues(self, key_bits):
        public, private = generate_keypair(key_bits, seed=key_bits)
        assert private.p_factors and private.q_factors
        order = (private.p - 1) * (private.q - 1)
        pool = ObfuscatorPool(public, private_key=private)
        drawn = [pool.take() for _ in range(24)]
        assert len(set(drawn)) == len(drawn)
        for obfuscator in drawn:
            assert private.raw_decrypt(obfuscator) == 0
            assert pow(obfuscator, order, public.n_squared) == 1

    def test_primitive_root_check_refuses_a_quadratic_residue(self):
        for prime in (23, 1009, PRIVATE.p):
            factors = (
                PRIVATE.p_factors if prime == PRIVATE.p
                else math_utils._trial_factor(prime - 1)
            )
            root = math_utils.primitive_root(prime, factors)
            assert math_utils.is_primitive_root(root, prime, factors)
            assert not any(
                math_utils.is_primitive_root(g, prime, factors) for g in range(2, root)
            )
            # a square generates at most half the group; 0 and 1 nothing
            for candidate in (root * root, 4, 1, 0, prime):
                assert not math_utils.is_primitive_root(candidate, prime, factors)

    def test_generator_is_derived_from_a_verified_root(self):
        p, factors = PRIVATE.p, PRIVATE.p_factors
        generator = PRIVATE._generators[0]
        assert generator == pow(math_utils.primitive_root(p, factors), p, p * p)
        # order exactly p - 1 modulo p^2: no proper divisor kills it
        assert pow(generator, p - 1, p * p) == 1
        assert all(pow(generator, (p - 1) // f, p * p) != 1 for f in set(factors))


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
