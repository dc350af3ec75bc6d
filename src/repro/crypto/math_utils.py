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

On the same engine, :func:`montgomery_arena` keeps integers resident as
BIGNUMs in Montgomery form for one modulus, so that a run of modular
products costs one ``BN_mod_mul_montgomery`` each and a power one
``BN_mod_exp_mont`` plus one product (DESIGN §4.15).  The arena's
``power``, like its ``multiply``, is not a :func:`powmod` call.
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
    "get_backend",
    "invert",
    "montgomery_arena",
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


def _bind_libcrypto(lib: ctypes.CDLL) -> tuple[Callable, Callable, Callable, dict]:
    """``(powmod, powmod_once, arena, cache)`` on ``lib``'s BIGNUM arithmetic.

    ``powmod`` runs ``BN_mod_exp_mont`` with the modulus's Montgomery
    context taken from ``cache`` (built on first use, freed on eviction
    with the entry's pooled BIGNUMs); ``powmod_once`` runs the uncached
    ``BN_mod_exp``, for a modulus asked about once.  Shapes Montgomery
    arithmetic has no answer for — a negative exponent, an even modulus
    or one below 3 — go to ``pow``.  ``arena`` is
    :func:`montgomery_arena` on this library.

    The arena's calls declare no ``argtypes``: every argument is already
    a ``c_void_p``, a buffer or a small ``int``, and the conversion layer
    adds 10-20 % to a product (0.88 against 0.74 µs at 512-bit keys).

    Not thread-safe: the operand BIGNUMs and the ``BN_CTX`` are module
    scratch shared by every call, and nothing in the package raises a
    power from two threads.

    Raises:
        AttributeError: ``lib`` lacks one of the symbols.
    """
    void_p, c_int = ctypes.c_void_p, ctypes.c_int
    for name, restype, argtypes in (
        ("BN_new", void_p, ()),
        ("BN_free", None, (void_p,)),
        ("BN_CTX_new", void_p, ()),
        ("BN_MONT_CTX_new", void_p, ()),
        ("BN_MONT_CTX_free", None, (void_p,)),
        ("BN_MONT_CTX_set", c_int, (void_p,) * 3),
        ("BN_lebin2bn", void_p, (ctypes.c_char_p, c_int, void_p)),
        ("BN_bn2lebinpad", c_int, (void_p, ctypes.c_char_p, c_int)),
        ("BN_mod_exp_mont", c_int, (void_p,) * 6),
        ("BN_mod_exp", c_int, (void_p,) * 5),
    ):
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    to_bn, from_bn = lib.BN_lebin2bn, lib.BN_bn2lebinpad
    exp_mont, exp_once = lib.BN_mod_exp_mont, lib.BN_mod_exp
    # lib[name] is a fresh function object: the arena's calls declare a
    # restype and no argtypes, whatever the shared attributes above declare
    to_bn_bare, from_bn_bare, to_mont, from_mont, mul_mont, exp_mont_bare = (
        lib[name]
        for name in (
            "BN_lebin2bn",
            "BN_bn2lebinpad",
            "BN_to_montgomery",
            "BN_from_montgomery",
            "BN_mod_mul_montgomery",
            "BN_mod_exp_mont",
        )
    )
    to_bn_bare.restype = void_p
    for function in (from_bn_bare, to_mont, from_mont, mul_mont, exp_mont_bare):
        function.restype = c_int
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
        products: list = []
        kept: list = []  # products recycle() was told to keep: freed with the block
        # power()'s exponent -> two BIGNUMs of the block's own, freed
        # on leaving it: they never join the pool
        exponents: dict[int, list] = {}
        scratch: list = []

        def new():
            bn = lib.BN_new()
            if not bn:
                raise MemoryError("BN_new failed")
            return void_p(bn)

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
            loaded = to_bn_bare(value.to_bytes(width, "little"), width, bn)
            if not loaded or not to_mont(bn, bn, mont, bn_ctx):
                raise ArithmeticError("loading a BIGNUM failed")
            return bn

        def refuse(*operands) -> TypeError:
            stranger = next(x for x in operands if type(x) is not void_p)
            return TypeError(f"arena operands are handles, not {type(stranger).__name__}")

        def multiply(a, b):
            # take()'s common case inline: past the first pair of a
            # build, a product reuses a pooled BIGNUM
            bn = free.pop() if free else take()
            products.append(bn)
            try:
                if mul_mont(bn, a, b, mont, bn_ctx):
                    return bn
            except ctypes.ArgumentError:
                raise refuse(a, b) from None
            raise ArithmeticError("BN_mod_mul_montgomery failed")

        def exponent_of(exponent: int) -> tuple:
            # the exponent as a BIGNUM and R^(2 - e) mod m: R^-1 is the
            # reduction of 1, raised to e, then twice into Montgomery form
            scratch.append(new())
            scratch.append(new())
            exponent_bignum, correction = exponents[exponent] = scratch[-2:]
            length = (exponent.bit_length() + 7) >> 3
            if not (
                to_bn_bare(exponent.to_bytes(length, "little"), length, exponent_bignum)
                and to_bn_bare(b"\x01", 1, unloaded_bn)
                and from_mont(unloaded_bn, unloaded_bn, mont, bn_ctx)
                and exp_mont_bare(correction, unloaded_bn, exponent_bignum, mod_bn, bn_ctx, mont)
                and to_mont(correction, correction, mont, bn_ctx)
                and to_mont(correction, correction, mont, bn_ctx)
            ):
                raise ArithmeticError("loading an exponent failed")
            return exponent_bignum, correction

        def power(bn, exponent: int):
            # (aR)^e * R^(2 - e) * R^-1 = a^e R: a power and one product
            exponent_bignum, correction = exponents.get(exponent) or exponent_of(exponent)
            result = free.pop() if free else take()
            products.append(result)
            try:
                if exp_mont_bare(result, bn, exponent_bignum, mod_bn, bn_ctx, mont) and mul_mont(
                    result, result, correction, mont, bn_ctx
                ):
                    return result
            except ctypes.ArgumentError:
                raise refuse(bn) from None
            raise ArithmeticError("raising a BIGNUM to a power failed")

        def unload(bn) -> int:
            if not from_mont(unloaded_bn, bn, mont, bn_ctx):
                raise ArithmeticError("BN_from_montgomery failed")
            from_bn_bare(unloaded_bn, out, width)
            return int.from_bytes(out.raw, "little")

        def recycle(keep=()) -> None:
            if keep:
                held = set(map(id, keep))
                for bn in products:
                    (kept if id(bn) in held else free).append(bn)
            else:
                free.extend(products)
            products.clear()

        entry.pins += 1
        try:
            yield SimpleNamespace(
                load=load,
                multiply=multiply,
                power=power,
                unload=unload,
                recycle=recycle,
                handle=void_p,
            )
        finally:
            free.extend(products)
            free.extend(kept)
            free.extend(loads)
            for bn in scratch:
                lib.BN_free(bn)
            entry.pins -= 1

    return powmod, powmod_once, arena, cache


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


def _load_engine() -> tuple[str, Callable, Callable, Callable | None, dict]:
    """``(name, powmod, powmod_once, arena, cache)`` of this platform's engine.

    The first versioned libcrypto that binds and reproduces ``pow`` on
    :data:`_KNOWN_ANSWER` with both of its powers; else ``pow`` and no
    arena.  The arena is kept only if :func:`_arena_agrees`; without it
    a build keeps ``int`` products.
    """
    for soname in _LIBCRYPTO_SONAMES:
        try:
            powmod, powmod_once, arena, cache = _bind_libcrypto(ctypes.CDLL(soname))
            if all(f(*_KNOWN_ANSWER) == pow(*_KNOWN_ANSWER) for f in (powmod, powmod_once)):
                arena = arena if _arena_agrees(arena) else None
                return "openssl", powmod, powmod_once, arena, cache
        except (OSError, AttributeError, ArithmeticError):
            continue
    return "python", pow, pow, None, {}


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


def montgomery_arena(modulus: int) -> contextlib.AbstractContextManager | None:
    """A block holding integers mod ``modulus`` as Montgomery-form BIGNUMs.

    ``None`` on the ``"python"`` engine (and for a modulus Montgomery
    arithmetic has no answer for: even, or below 3); the caller then
    keeps ``int`` products.  Otherwise a context manager whose value
    has

    * ``load(x)`` — ``x mod modulus`` as a resident handle;
    * ``multiply(a, b)`` — the product of two handles, a new handle;
    * ``power(a, e)`` — ``a`` raised to a non-negative ``int`` ``e``, a
      new handle (``BN_mod_exp_mont`` on the Montgomery form, corrected
      by one product with ``R^(2-e)``; both per-exponent BIGNUMs are
      made once per block);
    * ``unload(a)`` — a handle's integer in ``[0, modulus)``;
    * ``recycle(keep=())`` — hand every product and power made since
      the last recycle back to the pool, except the handles in ``keep``:
      no other such handle is used after it, and the kept ones go back
      when the block is left;
    * ``handle`` — the type of every handle (an operand of another type
      makes ``multiply`` and ``power`` raise ``TypeError``).

    The handles' BIGNUMs come from a pool owned by the modulus's
    Montgomery-cache entry, which the block pins: no eviction frees the
    context under a live handle.  Leaving the block, however it is
    left, returns every handle's BIGNUM to that pool and frees the
    exponents'; the pool is freed with its entry.  Handles are plain
    pointers, not owners: none may outlive the block.
    """
    if _arena is None or modulus < 3 or not modulus & 1:
        return None
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
