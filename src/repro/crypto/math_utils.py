"""Number-theoretic primitives underpinning the Paillier cryptosystem.

Everything here operates on plain Python integers.  Modular
exponentiation — and its exponentiation-grade sibling, modular
inversion — go through a single choke point (:func:`powmod` /
:func:`invert`) over the built-in three-argument ``pow``.  There is one
engine; a faster one would replace ``pow`` under these two functions,
not be selected beside it (DESIGN §4.14).  A power of a base that stays
fixed for the life of a key has a choke point of its own beside them,
:func:`fixed_base_powmod`, which reads a :func:`fixed_base_table`
instead of calling ``pow``: the key holder draws every obfuscator out
of two such tables.

None of the three carries a hook of its own: whoever wants to count or
time them wraps the module attribute from outside, as the end-to-end
benchmark's tracer and the tests do, and every caller reaches them as
``math_utils.powmod`` / ``math_utils.invert`` /
``math_utils.fixed_base_powmod`` so such a wrapper sees every call.
"""

from __future__ import annotations

import math
import random
import secrets
from collections.abc import Iterable
from types import SimpleNamespace

__all__ = [
    "is_probable_prime",
    "is_primitive_root",
    "primitive_root",
    "generate_prime",
    "generate_prime_pair",
    "get_backend",
    "invert",
    "crt_combine",
    "fixed_base_table",
    "fixed_base_powmod",
    "powmod",
    "random_coprime",
]

# Small primes used to cheaply reject composite candidates before the
# Miller-Rabin rounds.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


#: most squarings one ``pow`` call is asked for on the power-of-two
#: route of :func:`powmod`: ``2**59`` is the largest power of two CPython
#: (60-bit cutoff, 3.11) still raises to by plain binary exponentiation
_SQUARING_BITS = 59
_SQUARING_PIECE = 1 << _SQUARING_BITS

#: radix of a :func:`fixed_base_table` is ``2**_WINDOW_BITS``.  From the
#: measured sweep in EXPERIMENTS.md (PR 20): each step wider doubles the
#: build, and past 5 the table outgrows the cache so draws stop gaining.
_WINDOW_BITS = 5
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1

#: ``p - 1 = 2 * k * r`` in :func:`_factored_prime` has ``k`` below
#: ``2**_COFACTOR_BITS``, small enough to factor by trial division
_COFACTOR_BITS = 16


def get_backend() -> SimpleNamespace:
    """Constant descriptor of the one engine: ``.name == "python"``.

    Kept only because ``benchmarks/e2e/run.py:run_meta`` records the
    name and that file could not be edited when the backend layer was
    removed; the next benchmark PR can drop the field and this function
    together.
    """
    return SimpleNamespace(name="python")


def crt_combine(residue_p: int, residue_q: int, p: int, q: int, q_inv_p: int) -> int:
    """Combine residues modulo ``p`` and ``q`` into a residue modulo ``p*q``.

    Uses Garner's formula; ``q_inv_p`` must equal ``invert(q, p)`` and is
    passed in so hot paths can precompute it once per key.  The moduli
    only need to be coprime: decryption combines over ``(p, q)``, the
    key holder's obfuscator draw over ``(p^2, q^2)``.
    """
    h = (q_inv_p * (residue_p - residue_q)) % p
    return residue_q + h * q


def powmod(base: int, exponent: int, modulus: int) -> int:
    """Modular exponentiation ``base ** exponent mod modulus``.

    The choke point for exponentiation: every modular power of the
    crypto layer whose base is not tabled (:func:`fixed_base_powmod`)
    is one call of this function.

    A power-of-two exponent above ``2**59`` — every packing SMul is
    ``c^(2^stride)`` — is handed to ``pow`` in pieces of at most 59
    squarings: CPython's ``pow`` first builds a table of odd powers for
    any exponent over 60 bits, multiplications a pure shift never uses.
    Same integer, still one call.
    """
    if exponent > _SQUARING_PIECE and exponent & (exponent - 1) == 0:
        # base^(2^k) is k squarings; asked for in pieces ``pow`` runs
        # as plain binary exponentiation, with no window table.
        squarings = exponent.bit_length() - 1
        while squarings > _SQUARING_BITS:
            base = pow(base, _SQUARING_PIECE, modulus)
            squarings -= _SQUARING_BITS
        exponent = 1 << squarings
    return pow(base, exponent, modulus)


def fixed_base_table(base: int, exponent_bits: int, modulus: int) -> list[list[int]]:
    """Powers of one base for every radix-``2^w`` digit of an exponent.

    ``table[i][d] = base^(d * 2^(w*i)) mod modulus`` for exponents of up
    to ``exponent_bits`` bits: ``ceil(exponent_bits / w) * 2^w`` residues
    at one multiplication each, worth it for a base raised many times.
    """
    table = []
    for _ in range(-(-exponent_bits // _WINDOW_BITS)):
        row = [1]
        for _ in range(_WINDOW_MASK):
            row.append(row[-1] * base % modulus)
        table.append(row)
        base = row[-1] * base % modulus
    return table


def fixed_base_powmod(table: list[list[int]], exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus`` read out of the base's table.

    The choke point for tabled powers: one multiplication per radix
    digit of ``exponent``, against a squaring per *bit* in
    :func:`powmod`.  ``table`` must be the base's
    :func:`fixed_base_table` for this ``modulus``.

    Raises:
        ValueError: ``exponent`` is negative or longer than the table.
    """
    if exponent < 0 or exponent >> (_WINDOW_BITS * len(table)):
        raise ValueError("exponent outside the range of the fixed-base table")
    result = 1
    for row in table:
        result = result * row[exponent & _WINDOW_MASK] % modulus
        exponent >>= _WINDOW_BITS
    return result


def invert(a: int, modulus: int) -> int:
    """Return the modular inverse of ``a`` modulo ``modulus``.

    Inversion is exponentiation-grade work (extended gcd or
    ``pow(a, -1, m)``), so it is a choke point of its own: the SMul
    negative-scalar path and the CRT precomputations are countable
    beside :func:`powmod` instead of hidden inside a ``pow``.

    Raises:
        ValueError: if ``a`` has no inverse modulo ``modulus``.
    """
    try:
        return pow(a, -1, modulus)
    except ValueError as exc:
        raise ValueError(f"{a} is not invertible modulo {modulus}") from exc


def is_probable_prime(n: int, rounds: int = 30) -> bool:
    """Miller-Rabin primality test.

    Args:
        n: candidate integer.
        rounds: number of random bases; error probability <= 4**-rounds.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random | None = None) -> int:
    """Generate a random probable prime with exactly ``bits`` bits.

    ``rng`` replaces system entropy with a seeded generator (test keys).
    """
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    if rng is None:
        rng = secrets.SystemRandom()
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate):
            return candidate


def is_primitive_root(candidate: int, prime: int, factors: Iterable[int]) -> bool:
    """Whether ``candidate`` generates ``Z_prime^*``.

    ``factors`` must hold every prime factor of ``prime - 1`` (the
    caller verifies that): an element of a cyclic group of order
    ``prime - 1`` generates it iff no ``(prime - 1) / f`` power is 1.
    """
    return candidate % prime != 0 and all(
        powmod(candidate, (prime - 1) // f, prime) != 1 for f in factors
    )


def primitive_root(prime: int, factors: Iterable[int]) -> int:
    """The smallest primitive root modulo ``prime`` (``factors`` as above)."""
    factors = sorted(set(factors))  # 2 first: every square fails right there
    return next(g for g in range(2, prime) if is_primitive_root(g, prime, factors))


def _trial_factor(n: int) -> list[int]:
    """Prime factors of ``n`` with multiplicity, by trial division."""
    factors, divisor = [], 2
    while divisor * divisor <= n:
        while n % divisor == 0:
            factors.append(divisor)
            n //= divisor
        divisor += 1
    return factors + [n] if n > 1 else factors


def _factored_prime(bits: int, rng: random.Random) -> tuple[int, tuple[int, ...]]:
    """A ``bits``-bit prime with its top two bits set, and ``p - 1`` factored.

    Returns ``(p, factors)``, ``factors`` being the prime factors of
    ``p - 1`` with multiplicity: ``p = 2 * k * r + 1`` for a random
    prime ``r`` and a random ``k < 2**_COFACTOR_BITS`` (DESIGN §4.14 on
    why that form is harmless); a prime too short for the form is drawn
    directly and ``p - 1`` trial-factored.
    """
    low = 3 << (bits - 2)
    if bits <= 2 * _COFACTOR_BITS:
        while True:
            p = low | rng.getrandbits(bits - 2) | 1
            if is_probable_prime(p):
                return p, tuple(_trial_factor(p - 1))
    r = generate_prime(bits - _COFACTOR_BITS, rng)
    while True:
        # low < 2kr + 1 < 2^bits, and k < 2^16: r has its top bit set
        k = rng.randrange(low // (2 * r) + 1, (1 << (bits - 1)) // r)
        p = 2 * k * r + 1
        if is_probable_prime(p):
            return p, (2, *_trial_factor(k), r)


def generate_prime_pair(
    modulus_bits: int, rng: random.Random | None = None
) -> tuple[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]]:
    """Draw the two primes of a Paillier modulus, each with ``p - 1`` factored.

    Returns ``((p, p_factors), (q, q_factors))``.  Both primes have
    their top two bits set, so ``p * q`` has exactly ``modulus_bits``
    bits; a pair is redrawn only when ``p == q`` or
    ``gcd(pq, (p-1)(q-1)) != 1`` — Paillier's precondition, which
    ``q = 2p + 1`` (possible at odd ``modulus_bits``) fails.

    Args:
        modulus_bits: size of ``p * q``.
        rng: seeded generator for *reproducible* (insecure) test keys;
            ``None`` draws from system entropy through the same code.
    """
    if rng is None:
        rng = secrets.SystemRandom()
    half = modulus_bits // 2
    while True:
        p, p_factors = _factored_prime(half, rng)
        q, q_factors = _factored_prime(modulus_bits - half, rng)
        if p != q and math.gcd(p * q, (p - 1) * (q - 1)) == 1:
            return (p, p_factors), (q, q_factors)


def random_coprime(n: int, rng: random.Random | None = None) -> int:
    """Uniform random integer in ``[1, n)`` coprime to ``n``.

    For an RSA-style modulus the failure probability per draw is
    negligible, so the loop terminates almost immediately.

    Args:
        n: the modulus.
        rng: optional seeded generator — tests pin obfuscator draws
            with it; production callers leave it ``None`` for system
            entropy.
    """
    while True:
        r = (rng.randrange(n - 1) if rng is not None else secrets.randbelow(n - 1)) + 1
        if math.gcd(r, n) == 1:
            return r
