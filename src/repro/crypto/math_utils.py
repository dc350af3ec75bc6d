"""Number-theoretic primitives underpinning the Paillier cryptosystem.

Everything here operates on plain Python integers.  Modular
exponentiation — and its exponentiation-grade sibling, modular
inversion — go through a single choke point (:func:`powmod` /
:func:`invert`) over the built-in three-argument ``pow``.  There is one
engine; a faster one would replace ``pow`` under these two functions,
not be selected beside it (DESIGN §4.14).

The two functions carry no hook of their own: whoever wants to count or
time them wraps the module attribute from outside, as the end-to-end
benchmark's tracer and the tests do, and every caller reaches them as
``math_utils.powmod`` / ``math_utils.invert`` so such a wrapper sees
every call.  One call is one *logical* operation at this layer: the key
holder's CRT route (:func:`powmod_crt`) assembles one obfuscator from
up to four half-width ``pow`` calls, and is still the one
:func:`powmod` that asked for it.
"""

from __future__ import annotations

import math
import random
import secrets
from dataclasses import dataclass, field
from types import SimpleNamespace

__all__ = [
    "CrtParams",
    "is_probable_prime",
    "generate_prime",
    "generate_prime_pair",
    "get_backend",
    "invert",
    "crt_combine",
    "lcm",
    "powmod",
    "powmod_crt",
    "random_below",
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

def get_backend() -> SimpleNamespace:
    """Constant descriptor of the one engine: ``.name == "python"``.

    Kept only because ``benchmarks/e2e/run.py:run_meta`` records the
    name and that file could not be edited when the backend layer was
    removed; the next benchmark PR can drop the field and this function
    together.
    """
    return SimpleNamespace(name="python")


@dataclass(frozen=True)
class CrtParams:
    """Factorization-derived constants for CRT-split powmod mod ``n^2``.

    Only the key holder can build these (they encode ``p`` and ``q``);
    public contexts pass ``crt=None`` and get the plain full-width path.
    Everything but the three constructor arguments is derived, so the
    constants are consistent with each other by construction.

    Attributes:
        p, q: the prime factors of ``n``.
        q_sq_inv: ``invert(q^2, p^2)`` — Garner's recombination constant
            (passed in so the key holder computes it through the
            :func:`invert` choke point).
        n: ``p * q`` — the exponent the p-adic route recognizes.
        p_squared, q_squared: ``p ** 2``, ``q ** 2``.
        modulus: ``n ** 2`` — the modulus these params split; dispatch
            ignores the params when the call's modulus differs.
        exp_p, exp_q: ``q mod (p - 1)`` and ``p mod (q - 1)`` — the
            half-width exponents of ``r^n`` modulo ``p`` and ``q``.
    """

    p: int = field(repr=False)
    q: int = field(repr=False)
    q_sq_inv: int = field(repr=False)
    n: int = field(init=False, repr=False)
    p_squared: int = field(init=False, repr=False)
    q_squared: int = field(init=False, repr=False)
    modulus: int = field(init=False, repr=False)
    exp_p: int = field(init=False, repr=False)
    exp_q: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        n = p * q
        for name, value in (
            ("n", n),
            ("p_squared", p * p),
            ("q_squared", q * q),
            ("modulus", n * n),
            ("exp_p", q % (p - 1)),
            ("exp_q", p % (q - 1)),
        ):
            object.__setattr__(self, name, value)


def crt_combine(residue_p: int, residue_q: int, p: int, q: int, q_inv_p: int) -> int:
    """Combine residues modulo ``p`` and ``q`` into a residue modulo ``p*q``.

    Uses Garner's formula; ``q_inv_p`` must equal ``invert(q, p)`` and is
    passed in so hot paths can precompute it once per key.  The moduli
    only need to be coprime: decryption combines over ``(p, q)``,
    :func:`powmod_crt` over ``(p^2, q^2)``.
    """
    h = (q_inv_p * (residue_p - residue_q)) % p
    return residue_q + h * q


def powmod_crt(base: int, exponent: int, crt: CrtParams) -> int:
    """Exact ``pow(base, exponent, crt.modulus)`` from half-width steps.

    The obfuscator exponent ``n = p * q`` takes the p-adic route:
    ``x^p mod p^2`` depends only on ``x mod p``, so for a base that
    is a unit modulo ``p``
    ``base^n mod p^2 = ((base mod p)^(q mod (p-1)) mod p)^p mod p^2``
    (Fermat's little theorem inside, the binomial theorem outside),
    and symmetrically for ``q^2`` — two half-width steps with
    half-length exponents per side instead of one full-width pow
    (measured 1.9x at 512-bit keys, 2.3x at 1024, 2.8x at 2048; see
    EXPERIMENTS.md).  A base divisible by ``p`` or ``q`` is outside
    that identity and takes the plain path.  Any other exponent is
    split over ``p^2`` / ``q^2`` at full exponent length.
    :func:`crt_combine` then reconstructs the unique residue modulo
    ``p^2 * q^2``, so the result is bit-identical to the direct pow.

    Built on ``pow``, not on :func:`powmod`: the internal steps are
    not logical operations of their own.
    """
    if exponent == crt.n:
        base_p, base_q = base % crt.p, base % crt.q
        if not (base_p and base_q):
            return pow(base, exponent, crt.modulus)
        xp = pow(pow(base_p, crt.exp_p, crt.p), crt.p, crt.p_squared)
        xq = pow(pow(base_q, crt.exp_q, crt.q), crt.q, crt.q_squared)
    else:
        xp = pow(base % crt.p_squared, exponent, crt.p_squared)
        xq = pow(base % crt.q_squared, exponent, crt.q_squared)
    return crt_combine(xp, xq, crt.p_squared, crt.q_squared, crt.q_sq_inv)


def powmod(base: int, exponent: int, modulus: int, crt: CrtParams | None = None) -> int:
    """Modular exponentiation ``base ** exponent mod modulus``.

    The single choke point for exponentiation: every modular power of
    the crypto layer is one call of this function.

    Args:
        base, exponent, modulus: the operation itself.
        crt: optional :class:`CrtParams` for the modulus (key holder
            only); when it matches ``modulus`` the result is assembled
            from half-width steps (:func:`powmod_crt`), otherwise the
            call takes the plain path.  Either way the returned integer
            is identical.

    A power-of-two exponent above ``2**59`` — every packing SMul is
    ``c^(2^stride)`` — is handed to ``pow`` in pieces of at most 59
    squarings: CPython's ``pow`` first builds a table of odd powers for
    any exponent over 60 bits, multiplications a pure shift never uses.
    Same integer, still one call.
    """
    if crt is not None and crt.modulus == modulus and exponent >= 0:
        return powmod_crt(base, exponent, crt)
    if exponent > _SQUARING_PIECE and exponent & (exponent - 1) == 0:
        # base^(2^k) is k squarings; asked for in pieces ``pow`` runs
        # as plain binary exponentiation, with no window table.
        squarings = exponent.bit_length() - 1
        while squarings > _SQUARING_BITS:
            base = pow(base, _SQUARING_PIECE, modulus)
            squarings -= _SQUARING_BITS
        exponent = 1 << squarings
    return pow(base, exponent, modulus)


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


def lcm(a: int, b: int) -> int:
    """Least common multiple of two positive integers."""
    return a // math.gcd(a, b) * b


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


def generate_prime(bits: int) -> int:
    """Generate a random probable prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    while True:
        candidate = secrets.randbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate):
            return candidate


def generate_prime_pair(modulus_bits: int) -> tuple[int, int]:
    """Generate distinct primes ``(p, q)`` whose product has ``modulus_bits`` bits.

    The primes are drawn with ``modulus_bits // 2`` bits each and redrawn
    until ``p * q`` actually reaches the requested modulus size and
    ``p != q``.
    """
    half = modulus_bits // 2
    while True:
        p = generate_prime(half)
        q = generate_prime(modulus_bits - half)
        if p == q:
            continue
        n = p * q
        if n.bit_length() == modulus_bits:
            return p, q


def random_below(n: int) -> int:
    """Uniform random integer in ``[0, n)``."""
    return secrets.randbelow(n)


def random_coprime(n: int, rng: random.Random | None = None) -> int:
    """Uniform random integer in ``[1, n)`` coprime to ``n``.

    For an RSA-style modulus the failure probability per draw is
    negligible, so the loop terminates almost immediately.

    Args:
        n: the modulus.
        rng: optional seeded generator — tests pin obfuscator draws
            with it to compare the CRT route against the full-width
            reference; production callers leave it ``None`` for
            system entropy.
    """
    while True:
        r = (rng.randrange(n - 1) if rng is not None else secrets.randbelow(n - 1)) + 1
        if math.gcd(r, n) == 1:
            return r
