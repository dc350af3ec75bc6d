"""Number-theoretic primitives underpinning the Paillier cryptosystem.

Everything here operates on plain Python integers.  Modular
exponentiation — and its exponentiation-grade sibling, modular
inversion — go through a single observed choke point (:func:`powmod` /
:func:`invert`) that dispatches to the active
:class:`~repro.crypto.backend.CryptoBackend`.  The default backend is
the built-in three-argument ``pow``; :func:`set_backend` swaps in the
pure-Python fast path or the ``gmpy2`` engine, all of which return
bit-identical integers (see :mod:`repro.crypto.backend`).

The profiler's observer fires exactly once per *logical* operation at
this layer, regardless of how many internal half-width exponentiations
the active backend performs — op-count fingerprints are therefore
backend-invariant.  Work executed outside this process (blaster lanes)
is folded back in via :func:`observe_powmods`.
"""

from __future__ import annotations

import contextlib
import math
import random
import secrets
from collections.abc import Callable, Iterator

from repro.crypto.backend import (
    CryptoBackend,
    PythonBackend,
    create_backend,
    crt_combine,
)

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "generate_prime_pair",
    "get_backend",
    "invert",
    "crt_combine",
    "lcm",
    "observe_powmods",
    "powmod",
    "random_below",
    "random_coprime",
    "set_backend",
    "set_powmod_observer",
    "use_backend",
]

# Small primes used to cheaply reject composite candidates before the
# Miller-Rabin rounds.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


#: optional zero-argument callback fired on every :func:`powmod` call;
#: the hot-path profiler attributes these to the enclosing cipher op
_POWMOD_OBSERVER: Callable[[], None] | None = None

#: the active big-integer engine every exponentiation dispatches to
_BACKEND: CryptoBackend = PythonBackend()


def set_powmod_observer(
    observer: Callable[[], None] | None,
) -> Callable[[], None] | None:
    """Install (or clear, with ``None``) the powmod observer.

    Returns the previously installed observer so callers can restore it
    — the contract :class:`repro.obs.profiler.HotPathProfiler` relies
    on for nested install/uninstall.
    """
    global _POWMOD_OBSERVER
    previous = _POWMOD_OBSERVER
    _POWMOD_OBSERVER = observer
    return previous


def observe_powmods(count: int) -> None:
    """Replay ``count`` powmod observations through the observer.

    Blaster lanes execute their exponentiations in worker processes
    where the parent's observer cannot see them; each lane reports a
    tally and the parent folds it back in here, keeping profiler
    powmod counts identical to a serial run.
    """
    if count < 0:
        raise ValueError("powmod tally cannot be negative")
    if _POWMOD_OBSERVER is not None:
        for _ in range(count):
            _POWMOD_OBSERVER()


def set_backend(backend: CryptoBackend | str) -> CryptoBackend:
    """Swap the active crypto backend; returns the previous one.

    Accepts a backend instance or a registry name
    (``"python"`` / ``"fast"`` / ``"gmpy2"``).
    """
    global _BACKEND
    previous = _BACKEND
    if isinstance(backend, str):
        backend = create_backend(backend)
    _BACKEND = backend
    return previous


def get_backend() -> CryptoBackend:
    """The currently active crypto backend."""
    return _BACKEND


@contextlib.contextmanager
def use_backend(backend: CryptoBackend | str) -> Iterator[CryptoBackend]:
    """Scope a backend over a block, restoring the previous one."""
    previous = set_backend(backend)
    try:
        yield _BACKEND
    finally:
        set_backend(previous)


def powmod(base: int, exponent: int, modulus: int, crt=None, fixed: bool = False) -> int:
    """Modular exponentiation ``base ** exponent mod modulus``.

    The single observed choke point for exponentiation: the cost model
    and profiler see every call (see :func:`set_powmod_observer`), and
    the active backend decides *how* the result is computed.

    Args:
        base, exponent, modulus: the operation itself.
        crt: optional :class:`~repro.crypto.backend.CrtParams` for the
            modulus (key holder only); when it matches ``modulus`` the
            backend assembles the result from half-width steps,
            otherwise the call takes the plain path.  Either way the
            returned integer is identical.
        fixed: hint that ``base`` is a per-key constant (``g = n + 1``
            powers, ``h``-function terms) worth a fixed-base table on
            backends that keep them.
    """
    if _POWMOD_OBSERVER is not None:
        _POWMOD_OBSERVER()
    if crt is not None and crt.modulus == modulus and exponent >= 0:
        return _BACKEND.powmod_crt(base, exponent, crt)
    if fixed and exponent >= 0:
        table = _BACKEND.fixed_base(base, modulus, max(1, exponent.bit_length()))
        return table.pow(exponent)
    return _BACKEND.powmod(base, exponent, modulus)


def invert(a: int, modulus: int) -> int:
    """Return the modular inverse of ``a`` modulo ``modulus``.

    Inversion is exponentiation-grade work (extended gcd or
    ``pow(a, -1, m)``), so it fires the powmod observer: the SMul
    negative-scalar path and CRT precomputations are attributed instead
    of silently undercounted.

    Raises:
        ValueError: if ``a`` has no inverse modulo ``modulus``.
    """
    if _POWMOD_OBSERVER is not None:
        _POWMOD_OBSERVER()
    return _BACKEND.invert(a, modulus)


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
            with it to prove cross-backend bit-identity; production
            callers leave it ``None`` for system entropy.
    """
    while True:
        r = (rng.randrange(n - 1) if rng is not None else secrets.randbelow(n - 1)) + 1
        if math.gcd(r, n) == 1:
            return r
