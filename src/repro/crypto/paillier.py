"""The Paillier additively homomorphic cryptosystem (Paillier, 1999).

This is the raw integer layer: key generation, encryption/decryption of
integers in ``Z_n``, and the two homomorphic primitives used by the
vertical federated GBDT algorithm:

* **HAdd**  — ``E(u) * E(v) mod n^2 = E(u + v)``
* **SMul**  — ``E(v) ** k mod n^2 = E(k * v)``

Floating point semantics (fixed-point encoding, exponents, cipher
scaling) live one layer up in :mod:`repro.crypto.encoding` and
:mod:`repro.crypto.ciphertext`.

Implementation notes
--------------------
* We fix the generator ``g = n + 1`` so that ``g^m = 1 + m*n (mod n^2)``,
  turning the message part of encryption into a single modular
  multiplication; the obfuscation part ``r^n mod n^2`` dominates.
* Decryption uses the Chinese Remainder Theorem over ``p^2`` and ``q^2``
  which is roughly 3-4x faster than a single exponentiation mod ``n^2``.
* An *obfuscation pool* lets callers pre-compute ``r^n mod n^2`` values
  off the critical path — the trick the paper's high-performance
  library uses to cheapen the inner encryption loop.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass, field

from repro.crypto import math_utils
from repro.crypto.math_utils import CrtParams

__all__ = [
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "generate_keypair",
    "DEFAULT_KEY_BITS",
    "TEST_KEY_BITS",
]

#: Key size recommended as safe by BSI TR-02102-1 and used in the paper.
DEFAULT_KEY_BITS = 2048

#: Small key size for unit tests; insecure but algebraically identical.
TEST_KEY_BITS = 256


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public half of a Paillier keypair.

    Attributes:
        n: the modulus ``p * q`` (``S`` bits).
        n_squared: cached ``n ** 2``.
        max_int: largest positive plaintext; values in
            ``(n - max_int, n)`` are interpreted as negatives by the
            encoding layer. We use ``n // 3`` so that one homomorphic
            addition of two in-range values cannot wrap.
    """

    n: int
    n_squared: int = field(repr=False, default=0)
    max_int: int = field(repr=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_squared", self.n * self.n)
        object.__setattr__(self, "max_int", self.n // 3 - 1)

    @property
    def key_bits(self) -> int:
        """Size of the modulus in bits."""
        return self.n.bit_length()

    def raw_encrypt(self, plaintext: int, obfuscator: int | None = None) -> int:
        """Encrypt an integer plaintext in ``[0, n)``.

        Args:
            plaintext: integer message (already encoded/wrapped mod n).
            obfuscator: optional pre-computed ``r^n mod n^2``. When
                ``None`` a fresh random obfuscator is generated. Passing
                an explicit value enables obfuscation pooling.
        """
        if not 0 <= plaintext < self.n:
            raise ValueError("plaintext must be in [0, n)")
        # g = n + 1  =>  g^m mod n^2 = 1 + m*n  (binomial expansion).
        g_pow_m = (1 + plaintext * self.n) % self.n_squared
        if obfuscator is None:
            obfuscator = self.make_obfuscator()
        return (g_pow_m * obfuscator) % self.n_squared

    def make_obfuscator(
        self,
        rng: random.Random | None = None,
        crt: CrtParams | None = None,
    ) -> int:
        """Return a fresh random obfuscation factor ``r^n mod n^2``.

        Args:
            rng: optional seeded generator for the random ``r`` (tests
                pin it to compare the CRT route with the plain one).
            crt: optional CRT parameters of this key's ``n^2`` — the
                key holder passes them so the exponentiation is split;
                the result is bit-identical either way, and exactly
                one logical powmod is asked for.
        """
        r = math_utils.random_coprime(self.n, rng)
        return math_utils.powmod(r, self.n, self.n_squared, crt=crt)

    def raw_add(self, cipher_u: int, cipher_v: int) -> int:
        """HAdd: combine ciphers of ``u`` and ``v`` into a cipher of ``u+v``."""
        return (cipher_u * cipher_v) % self.n_squared

    def raw_add_plain(self, cipher: int, plaintext: int) -> int:
        """Add an *unencrypted* integer to a cipher without obfuscation.

        ``E(v) * g^u = E(v + u)``.  Cheaper than encrypting ``u`` first;
        used for the histogram shift in cipher packing where the added
        constant is public.
        """
        g_pow_u = (1 + (plaintext % self.n) * self.n) % self.n_squared
        return (cipher * g_pow_u) % self.n_squared

    def raw_multiply(self, cipher: int, scalar: int) -> int:
        """SMul: scale the encrypted value by an integer scalar.

        Negative scalars are mapped into ``Z_n`` first. For scalars with
        small inverse-complement (``n - k`` tiny) we exponentiate by the
        complement on the inverted cipher, matching the standard
        optimization in production Paillier libraries.
        """
        scalar = scalar % self.n
        if scalar > self.max_int * 2:
            # Likely an encoded negative: -k == n - scalar with k small.
            inverted = math_utils.invert(cipher, self.n_squared)
            return math_utils.powmod(inverted, self.n - scalar, self.n_squared)
        return math_utils.powmod(cipher, scalar, self.n_squared)

    def __hash__(self) -> int:
        return hash(self.n)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Private half of a Paillier keypair (CRT form).

    Attributes:
        public_key: the matching public key.
        p, q: the prime factors of ``n``.
    """

    public_key: PaillierPublicKey
    p: int = field(repr=False)
    q: int = field(repr=False)
    # CRT precomputations, filled in __post_init__.
    _p_squared: int = field(repr=False, default=0)
    _q_squared: int = field(repr=False, default=0)
    _hp: int = field(repr=False, default=0)
    _hq: int = field(repr=False, default=0)
    _q_inv_p: int = field(repr=False, default=0)
    # Lazily built CRT constants for n^2 (crt_params()), not part of
    # the key's identity.
    _crt: CrtParams | None = field(repr=False, default=None, compare=False)

    def __post_init__(self) -> None:
        n = self.public_key.n
        if self.p * self.q != n:
            raise ValueError("private key does not match public key")
        p2, q2 = self.p * self.p, self.q * self.q
        object.__setattr__(self, "_p_squared", p2)
        object.__setattr__(self, "_q_squared", q2)
        # h_p = L_p(g^{p-1} mod p^2)^{-1} mod p, with g = n + 1.
        object.__setattr__(
            self, "_hp", self._h_function(self.p, p2)
        )
        object.__setattr__(
            self, "_hq", self._h_function(self.q, q2)
        )
        object.__setattr__(self, "_q_inv_p", math_utils.invert(self.q, self.p))

    def _h_function(self, prime: int, prime_squared: int) -> int:
        n = self.public_key.n
        g_pow = math_utils.powmod(n + 1, prime - 1, prime_squared)
        return math_utils.invert(self._l_function(g_pow, prime), prime)

    @staticmethod
    def _l_function(x: int, prime: int) -> int:
        """Paillier's ``L(x) = (x - 1) / p`` over integers."""
        return (x - 1) // prime

    def crt_params(self) -> CrtParams:
        """CRT constants for exponentiations modulo ``n^2``.

        Built once per key (the ``q^2`` inverse is one
        :func:`~repro.crypto.math_utils.invert`) and handed to :meth:`PaillierPublicKey.make_obfuscator`
        so the obfuscator ``r^n mod n^2`` is computed from half-width
        steps over ``p`` / ``p^2`` and ``q`` / ``q^2``
        (:func:`~repro.crypto.math_utils.powmod_crt`, which records the
        measured gain).  Only the key holder can construct these —
        public contexts stay on the plain path.
        """
        if self._crt is None:
            object.__setattr__(
                self,
                "_crt",
                CrtParams(
                    p=self.p,
                    q=self.q,
                    q_sq_inv=math_utils.invert(self._q_squared, self._p_squared),
                ),
            )
        return self._crt

    def raw_decrypt(self, ciphertext: int) -> int:
        """Decrypt a raw cipher back to its integer plaintext in ``[0, n)``."""
        if not 0 <= ciphertext < self.public_key.n_squared:
            raise ValueError("ciphertext out of range")
        mp = (
            self._l_function(
                math_utils.powmod(ciphertext, self.p - 1, self._p_squared), self.p
            )
            * self._hp
            % self.p
        )
        mq = (
            self._l_function(
                math_utils.powmod(ciphertext, self.q - 1, self._q_squared), self.q
            )
            * self._hq
            % self.q
        )
        return math_utils.crt_combine(mp, mq, self.p, self.q, self._q_inv_p) % (
            self.public_key.n
        )

    def __hash__(self) -> int:
        return hash((self.p, self.q))


def generate_keypair(
    key_bits: int = DEFAULT_KEY_BITS, seed: int | None = None
) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Generate a Paillier keypair.

    Args:
        key_bits: modulus size ``S`` in bits (paper: 2048).
        seed: optional seed for *reproducible* (insecure) key generation
            in tests and benchmarks. When ``None``, system entropy is used.

    Returns:
        ``(public_key, private_key)``.
    """
    if key_bits < 16:
        raise ValueError("key_bits must be at least 16")
    if seed is None:
        p, q = math_utils.generate_prime_pair(key_bits)
    else:
        p, q = _seeded_prime_pair(key_bits, seed)
    public = PaillierPublicKey(n=p * q)
    private = PaillierPrivateKey(public_key=public, p=p, q=q)
    return public, private


def _seeded_prime_pair(key_bits: int, seed: int) -> tuple[int, int]:
    """Deterministic prime pair from a seed (tests/benchmarks only)."""
    import random

    rng = random.Random(seed)
    half = key_bits // 2

    def draw(bits: int) -> int:
        while True:
            candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            if math_utils.is_probable_prime(candidate):
                return candidate

    while True:
        p = draw(half)
        q = draw(key_bits - half)
        if p != q and (p * q).bit_length() == key_bits:
            return p, q


class ObfuscatorPool:
    """Pre-computed pool of obfuscation factors ``r^n mod n^2``.

    Generating the obfuscator is the expensive part of encryption
    (one big-int exponentiation). The pool moves that work off the
    critical path: refill during idle periods, then encryption inside
    the blaster loop is a couple of modular multiplications.

    Draw order is deterministic given the draws themselves: the pool is
    a LIFO stack, ``refill`` appends in generation order and ``take``
    pops from the top, so interleaved refill/take sequences replay
    identically whenever the injected ``rng`` is the same.

    Args:
        public_key: key the obfuscators belong to.
        size: obfuscators to precompute immediately.
        rng: optional seeded generator for the random ``r`` draws.
        crt: optional CRT constants of this key (key holder only) —
            forwarded to :meth:`PaillierPublicKey.make_obfuscator` so
            each obfuscator costs four half-width exponentiations
            instead of one full-width one, bit-identically.

    Raises:
        ValueError: ``crt`` belongs to a different key — the dispatch
            would ignore it and every obfuscator would silently run
            full-width.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        size: int = 0,
        rng: random.Random | None = None,
        crt: CrtParams | None = None,
    ) -> None:
        if crt is not None and crt.modulus != public_key.n_squared:
            raise ValueError("CRT constants do not belong to this public key")
        self._public_key = public_key
        self._rng = rng
        self._crt = crt
        self._pool: list[int] = []
        if size:
            self.refill(size)

    def __len__(self) -> int:
        return len(self._pool)

    def refill(self, count: int) -> None:
        """Generate ``count`` additional obfuscators."""
        self._pool.extend(
            self._public_key.make_obfuscator(self._rng, self._crt)
            for _ in range(count)
        )

    def take(self) -> int:
        """Pop one obfuscator, generating on demand if the pool is dry."""
        if self._pool:
            return self._pool.pop()
        return self._public_key.make_obfuscator(self._rng, self._crt)


def derive_insecure_keypair_from_primes(
    p: int, q: int
) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Build a keypair from explicit primes (for deterministic tests)."""
    if not (math_utils.is_probable_prime(p) and math_utils.is_probable_prime(q)):
        raise ValueError("p and q must be prime")
    if p == q:
        raise ValueError("p and q must differ")
    public = PaillierPublicKey(n=p * q)
    return public, PaillierPrivateKey(public_key=public, p=p, q=q)


def _secure_random_bits(bits: int) -> int:  # pragma: no cover - trivial
    return secrets.randbits(bits)
