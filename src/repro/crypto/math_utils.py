"""Number-theoretic primitives underpinning the Paillier cryptosystem.

Everything here operates on plain Python integers.  Modular
exponentiation of an ``int`` — and its exponentiation-grade sibling,
modular inversion — go through a single choke point (:func:`powmod` /
:func:`invert`).  ``powmod`` runs on one engine, fixed at import by
what the platform has: OpenSSL's ``BN_mod_exp_mont`` through ``ctypes``
when a versioned libcrypto loads and passes a known-answer check, the
built-in three-argument ``pow`` otherwise.  ``pow`` is also the
reference the engine is tested against (DESIGN §4.14).

Neither choke point carries a hook of its own: whoever wants to count
or time them wraps the module attribute from outside, as the end-to-end
benchmark's tracer and the tests do, and every caller reaches them as
``math_utils.powmod`` / ``math_utils.invert`` so such a wrapper sees
every call.

An :func:`arena` keeps integers mod one modulus resident as handles, so
that a run of modular products and powers pays no conversion per op
(DESIGN §4.15).  It has two engines with one interface: on libcrypto a
handle is a BIGNUM in Montgomery form, a product one
``BN_mod_mul_montgomery`` and a power one ``BN_mod_exp_mont`` plus one
product; without it (or for a modulus Montgomery arithmetic has no
answer for) a handle is an ``int``, a product ``x * y mod m`` and a
power :func:`powmod`.  The libcrypto arena's ``power``, like its
``multiply``, is not a :func:`powmod` call.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import random
import secrets
from collections.abc import Callable, Iterator
from types import SimpleNamespace

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "generate_prime_pair",
    "arena",
    "get_backend",
    "invert",
    "crt_combine",
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


#: Versioned sonames only.  An unversioned name can resolve to a stub
#: that aborts the whole process when loaded (macOS's
#: ``/usr/lib/libcrypto.dylib``), which no ``try`` can catch.
_LIBCRYPTO_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")

#: Montgomery contexts kept, one per modulus, oldest evicted first.  A
#: key asks for three (``n^2``, ``p^2``, ``q^2``), so five keys stay warm.
_MONT_CACHE_SIZE = 16

#: ``(base, exponent, modulus)`` the engine must agree with ``pow`` on
#: before it is used: a Mersenne-prime modulus and an exponent that
#: spans three 64-bit words
_KNOWN_ANSWER = (3**80 + 7, (1 << 150) + 12345, (1 << 127) - 1)


class _Montgomery:
    """One modulus's cache entry: its Montgomery context and BIGNUM pool.

    Attributes:
        bn / mont: the modulus as a BIGNUM and its ``BN_MONT_CTX``.
        width: bytes of the modulus; ``out`` a result buffer that wide.
        free: pooled BIGNUMs no arena holds; ``allocated`` counts every
            BIGNUM the pool made, held or free.
        pins: arenas open on this entry; a pinned entry is not evicted.
    """

    __slots__ = ("bn", "mont", "width", "out", "free", "allocated", "pins")

    def __init__(self, bn, mont, width: int, out) -> None:
        self.bn, self.mont, self.width, self.out = bn, mont, width, out
        self.free: list = []
        self.allocated = 0
        self.pins = 0


class _BigNum(ctypes.c_void_p):
    """A handle of libcrypto's arena: a pooled BIGNUM's pointer.

    Its ``exponent`` slot is for the handle's holder to tag it with (the
    cipher layer's fixed-point exponent): a slot reads and writes at
    half the cost of an attribute of the instance dict.
    """

    __slots__ = ("exponent",)


def _bind_libcrypto(lib: ctypes.CDLL) -> tuple[Callable, Callable, Callable, dict]:
    """``(powmod, powmod_once, arena, cache)`` on ``lib``'s BIGNUM arithmetic.

    ``powmod`` runs ``BN_mod_exp_mont`` with the modulus's Montgomery
    context taken from ``cache`` (built on first use, freed on eviction
    with the entry's pooled BIGNUMs); ``powmod_once`` runs the uncached
    ``BN_mod_exp``, for a modulus asked about once.  Shapes Montgomery
    arithmetic has no answer for — a negative exponent, an even modulus
    or one below 3 — go to ``pow``.  ``arena`` is
    :func:`arena` on this library.

    No call declares ``argtypes``: every argument is already a
    ``c_void_p``, a buffer or a small ``int``, and the conversion layer
    adds 10-20 % to an arena product (0.88 against 0.74 µs at 512-bit
    keys).

    Not thread-safe: the operand BIGNUMs and the ``BN_CTX`` are module
    scratch shared by every call, and nothing in the package raises a
    power from two threads.

    Raises:
        AttributeError: ``lib`` lacks one of the symbols.
    """
    void_p, c_int, handle = ctypes.c_void_p, ctypes.c_int, _BigNum

    def bind(name: str, restype):
        function = getattr(lib, name)
        function.restype = restype
        return function

    to_bn, from_bn, to_mont, from_mont, mul_mont, exp_mont, exp_once = (
        bind(name, restype)
        for name, restype in (
            ("BN_lebin2bn", void_p),
            ("BN_bn2lebinpad", c_int),
            ("BN_to_montgomery", c_int),
            ("BN_from_montgomery", c_int),
            ("BN_mod_mul_montgomery", c_int),
            ("BN_mod_exp_mont", c_int),
            ("BN_mod_exp", c_int),
        )
    )
    for name, restype in (
        ("BN_new", void_p),
        ("BN_free", None),
        ("BN_CTX_new", void_p),
        ("BN_MONT_CTX_new", void_p),
        ("BN_MONT_CTX_free", None),
        ("BN_MONT_CTX_set", c_int),
    ):
        bind(name, restype)
    bn_ctx = void_p(lib.BN_CTX_new())
    base_bn, exponent_bn, modulus_bn, result_bn, unloaded_bn = (
        void_p(lib.BN_new()) for _ in range(5)
    )
    cache: dict[int, _Montgomery] = {}

    def _load(base: int, exponent: int, modulus: int, width: int) -> None:
        if not 0 <= base < modulus:
            base %= modulus
        to_bn(base.to_bytes(width, "little"), width, base_bn)
        length = (exponent.bit_length() + 7) >> 3
        to_bn(exponent.to_bytes(length, "little"), length, exponent_bn)

    def _evict() -> None:
        # The oldest entry no open arena has pinned: freeing one under
        # an arena would leave its BIGNUMs pointing at a freed context.
        modulus = next((m for m, entry in cache.items() if not entry.pins), None)
        if modulus is None:
            return
        evicted = cache.pop(modulus)
        for bn in evicted.free:
            lib.BN_free(bn)
        evicted.free.clear()
        evicted.allocated = 0
        lib.BN_free(evicted.bn)
        lib.BN_MONT_CTX_free(evicted.mont)

    def _montgomery(modulus: int) -> _Montgomery:
        if len(cache) >= _MONT_CACHE_SIZE:
            _evict()
        width = (modulus.bit_length() + 7) >> 3
        bn = void_p(to_bn(modulus.to_bytes(width, "little"), width, None))
        mont = void_p(lib.BN_MONT_CTX_new())
        if not lib.BN_MONT_CTX_set(mont, bn, bn_ctx):
            raise ArithmeticError("BN_MONT_CTX_set failed")
        # the result buffer is per modulus too: one allocation, not one a call
        cache[modulus] = entry = _Montgomery(
            bn, mont, width, ctypes.create_string_buffer(width)
        )
        return entry

    def powmod(base: int, exponent: int, modulus: int) -> int:
        if exponent < 0 or modulus < 3 or not modulus & 1:
            return pow(base, exponent, modulus)
        entry = cache.get(modulus) or _montgomery(modulus)
        width, out = entry.width, entry.out
        _load(base, exponent, modulus, width)
        if not exp_mont(result_bn, base_bn, exponent_bn, entry.bn, bn_ctx, entry.mont):
            raise ArithmeticError("BN_mod_exp_mont failed")
        from_bn(result_bn, out, width)
        return int.from_bytes(out.raw, "little")

    def powmod_once(base: int, exponent: int, modulus: int) -> int:
        if exponent < 0 or modulus < 3 or not modulus & 1:
            return pow(base, exponent, modulus)
        width = (modulus.bit_length() + 7) >> 3
        to_bn(modulus.to_bytes(width, "little"), width, modulus_bn)
        _load(base, exponent, modulus, width)
        if not exp_once(result_bn, base_bn, exponent_bn, modulus_bn, bn_ctx):
            raise ArithmeticError("BN_mod_exp failed")
        out = ctypes.create_string_buffer(width)
        from_bn(result_bn, out, width)
        return int.from_bytes(out.raw, "little")

    @contextlib.contextmanager
    def arena(modulus: int) -> Iterator[SimpleNamespace]:
        entry = cache.get(modulus) or _montgomery(modulus)
        mont, width, out, free = entry.mont, entry.width, entry.out, entry.free
        mod_bn = entry.bn
        loads: list = []
        products: list = []  # a stack: mark() is its height
        # power()'s exponent -> two BIGNUMs of the block's own, freed
        # on leaving it: they never join the pool
        exponents: dict[int, list] = {}
        scratch: list = []

        def new(kind=handle):
            bn = lib.BN_new()
            if not bn:
                raise MemoryError("BN_new failed")
            return kind(bn)

        def take():
            if free:
                return free.pop()
            bn = new()
            entry.allocated += 1
            return bn

        def load(value: int):
            if not 0 <= value < modulus:
                value %= modulus
            bn = take()
            loads.append(bn)
            loaded = to_bn(value.to_bytes(width, "little"), width, bn)
            if not loaded or not to_mont(bn, bn, mont, bn_ctx):
                raise ArithmeticError("loading a BIGNUM failed")
            return bn

        def multiply(a, b):
            # ctypes passes None, an int or bytes on as a pointer: only a
            # handle may reach libcrypto
            if type(a) is not handle or type(b) is not handle:
                raise _refusal(handle, a, b)
            # take()'s common case inline: past the first pair of a
            # build, a product reuses a pooled BIGNUM
            bn = free.pop() if free else take()
            products.append(bn)
            if mul_mont(bn, a, b, mont, bn_ctx):
                return bn
            raise ArithmeticError("BN_mod_mul_montgomery failed")

        def exponent_pair(exponent: int) -> tuple:
            # the exponent as a BIGNUM and R^(2 - e) mod m: R^-1 is the
            # reduction of 1, raised to e, then twice into Montgomery form
            scratch.append(new(void_p))
            scratch.append(new(void_p))
            exponent_bignum, correction = exponents[exponent] = scratch[-2:]
            length = (exponent.bit_length() + 7) >> 3
            if not (
                to_bn(exponent.to_bytes(length, "little"), length, exponent_bignum)
                and to_bn(b"\x01", 1, unloaded_bn)
                and from_mont(unloaded_bn, unloaded_bn, mont, bn_ctx)
                and exp_mont(correction, unloaded_bn, exponent_bignum, mod_bn, bn_ctx, mont)
                and to_mont(correction, correction, mont, bn_ctx)
                and to_mont(correction, correction, mont, bn_ctx)
            ):
                raise ArithmeticError("loading an exponent failed")
            return exponent_bignum, correction

        def power(bn, exponent: int):
            # (aR)^e * R^(2 - e) * R^-1 = a^e R: a power and one product
            if type(bn) is not handle:
                raise _refusal(handle, bn)
            exponent_bignum, correction = exponents.get(exponent) or exponent_pair(exponent)
            result = free.pop() if free else take()
            products.append(result)
            if exp_mont(result, bn, exponent_bignum, mod_bn, bn_ctx, mont) and mul_mont(
                result, result, correction, mont, bn_ctx
            ):
                return result
            raise ArithmeticError("raising a BIGNUM to a power failed")

        def unload(bn) -> int:
            if type(bn) is not handle:
                raise _refusal(handle, bn)
            if not from_mont(unloaded_bn, bn, mont, bn_ctx):
                raise ArithmeticError("BN_from_montgomery failed")
            from_bn(unloaded_bn, out, width)
            return int.from_bytes(out.raw, "little")

        def recycle(mark: int = 0, keep=()) -> None:
            made = products[mark:]
            del products[mark:]
            if keep:
                held = set(map(id, keep))
                for bn in made:
                    (products if id(bn) in held else free).append(bn)
            else:
                free.extend(made)

        entry.pins += 1
        try:
            yield SimpleNamespace(
                load=load,
                multiply=multiply,
                power=power,
                unload=unload,
                mark=products.__len__,
                recycle=recycle,
                handle=handle,
            )
        finally:
            free.extend(products)
            free.extend(loads)
            for bn in scratch:
                lib.BN_free(bn)
            entry.pins -= 1

    return powmod, powmod_once, arena, cache


def _refusal(handle: type, *operands) -> TypeError:
    """The error for an arena operand that is not one of its ``handle`` s."""
    stranger = next(x for x in operands if type(x) is not handle)
    return TypeError(f"arena operands are its handles, not {type(stranger).__name__}")


class _Residue(int):
    """A handle of the ``int`` arena: an integer in ``[0, modulus)``.

    A subclass so that the arena refuses a bare ``int`` as libcrypto's
    refuses anything but a BIGNUM, and so that a handle takes
    attributes as a libcrypto handle does.
    """


@contextlib.contextmanager
def _int_arena(modulus: int) -> Iterator[SimpleNamespace]:
    """:func:`arena` on ``int`` s: its handles are :class:`_Residue` s."""

    def residue(*operands) -> None:
        if any(type(x) is not _Residue for x in operands):
            raise _refusal(_Residue, *operands)

    def multiply(a, b) -> _Residue:
        residue(a, b)
        return _Residue(a * b % modulus)

    def power(a, exponent: int) -> _Residue:
        residue(a)
        return _Residue(powmod(a, exponent, modulus))

    def unload(a) -> int:
        residue(a)
        return int(a)

    yield SimpleNamespace(
        load=lambda value: _Residue(value % modulus),
        multiply=multiply,
        power=power,
        unload=unload,
        mark=lambda: 0,
        recycle=lambda mark=0, keep=(): None,
        handle=_Residue,
    )


def _arena_agrees(arena: Callable) -> bool:
    """Whether ``arena`` computes as ``int`` s do on :data:`_KNOWN_ANSWER`'s modulus.

    One round trip through every call the arena makes: two loads (the
    second reduced mod the modulus), a product of products, a power of
    a product by the three-word exponent, three unloads.
    """
    a, b, modulus = _KNOWN_ANSWER
    try:
        with arena(modulus) as bignums:
            x, y = bignums.load(a), bignums.load(b)
            product = bignums.multiply(bignums.multiply(x, x), y)
            raised = bignums.power(product, b)
            got = bignums.unload(product), bignums.unload(y), bignums.unload(raised)
    except ArithmeticError:
        return False
    product = a * a * b % modulus
    return got == (product, b % modulus, pow(product, b, modulus))


def _load_engine() -> tuple[str, Callable, Callable, Callable, dict]:
    """``(name, powmod, powmod_once, arena, cache)`` of this platform's engine.

    The first versioned libcrypto that binds and reproduces ``pow`` on
    :data:`_KNOWN_ANSWER` with both of its powers; else ``pow`` and the
    ``int`` arena.  libcrypto's arena is kept only if
    :func:`_arena_agrees`; without it the blocks hold ``int`` s.
    """
    for soname in _LIBCRYPTO_SONAMES:
        try:
            powmod, powmod_once, arena, cache = _bind_libcrypto(ctypes.CDLL(soname))
            if all(f(*_KNOWN_ANSWER) == pow(*_KNOWN_ANSWER) for f in (powmod, powmod_once)):
                arena = arena if _arena_agrees(arena) else _int_arena
                return "openssl", powmod, powmod_once, arena, cache
        except (OSError, AttributeError, ArithmeticError):
            continue
    return "python", pow, pow, _int_arena, {}


_ENGINE, _powmod, _powmod_once, _arena, _MONT_CACHE = _load_engine()


def get_backend() -> SimpleNamespace:
    """The engine under :func:`powmod`: ``.name`` is ``"openssl"`` or ``"python"``."""
    return SimpleNamespace(name=_ENGINE)


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

    The choke point for exponentiation: every modular power of an
    ``int`` in the crypto layer is one call of this function, on the engine
    :func:`get_backend` names.  The moduli it is asked for recur (a
    key's ``n^2``, ``p^2``, ``q^2``), so each keeps its Montgomery
    context between calls.
    """
    return _powmod(base, exponent, modulus)


def arena(modulus: int) -> contextlib.AbstractContextManager:
    """A block holding integers mod ``modulus`` as handles, on the engine's arena.

    libcrypto's (Montgomery-form BIGNUMs) where the engine has one and
    Montgomery arithmetic has an answer for ``modulus`` (odd, at least
    3); else the ``int`` one.  The value is a namespace with

    * ``load(x)`` — ``x mod modulus`` as a handle;
    * ``multiply(a, b)`` — the product of two handles, a new handle;
    * ``power(a, e)`` — ``a`` raised to a non-negative ``int`` ``e``, a
      new handle (on libcrypto ``BN_mod_exp_mont`` on the Montgomery
      form, corrected by one product with ``R^(2-e)``; both
      per-exponent BIGNUMs are made once per block);
    * ``unload(a)`` — a handle's integer in ``[0, modulus)``;
    * ``mark()`` / ``recycle(mark=0, keep=())`` — every product and
      power made since ``mark()`` returned ``mark`` goes back to the
      pool, except the handles in ``keep``: none of the others is used
      after it;
    * ``handle`` — the type of every handle.  Anything else — a bare
      ``int``, ``None``, bytes — makes ``multiply``, ``power`` and
      ``unload`` raise ``TypeError``.  A handle takes attributes (the
      cipher layer tags each with its exponent).

    libcrypto's handles come from a pool owned by the modulus's
    Montgomery-cache entry, which the block pins: no eviction frees the
    context under a live handle.  Leaving the block, however it is
    left, returns every handle's BIGNUM to that pool and frees the
    exponents'; the pool is freed with its entry.  Handles are plain
    pointers, not owners: none may outlive the block.
    """
    if modulus < 3 or not modulus & 1:
        return _int_arena(modulus)
    return _arena(modulus)


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
        # n is a one-off candidate: no Montgomery context worth keeping
        x = _powmod_once(a, d, n)
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


def _top_two_bits_prime(bits: int, rng: random.Random) -> int:
    """A random ``bits``-bit probable prime with its top two bits set."""
    low = 3 << (bits - 2)
    while True:
        p = low | rng.getrandbits(bits - 2) | 1
        if is_probable_prime(p):
            return p


def generate_prime_pair(
    modulus_bits: int, rng: random.Random | None = None
) -> tuple[int, int]:
    """Draw the two primes ``(p, q)`` of a Paillier modulus.

    Both primes have their top two bits set, so ``p * q`` has exactly
    ``modulus_bits`` bits; a pair is redrawn only when ``p == q`` or
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
        p = _top_two_bits_prime(half, rng)
        q = _top_two_bits_prime(modulus_bits - half, rng)
        if p != q and math.gcd(p * q, (p - 1) * (q - 1)) == 1:
            return p, q


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
