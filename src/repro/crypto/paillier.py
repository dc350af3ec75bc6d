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
* The key holder does not raise a fresh ``r``: it draws the same uniform
  n-th residue as a power of a fixed, verified generator, out of a
  window table (:meth:`PaillierPrivateKey.make_obfuscator`, DESIGN §4.14).
* Decryption has two routes (:meth:`PaillierPrivateKey.raw_decrypt`).
  By default it raises the cipher to ``p - 1`` modulo ``p^2`` and to
  ``q - 1`` modulo ``q^2`` and joins the halves by CRT; a caller that
  bounds the plaintext below ``p / 2`` gets it from the ``p`` half
  alone.  Measured per Dec (median of 200 ciphers, one core of an
  Intel Xeon, CPython 3.11): 512-bit keys 1.82 ms full width
  (``L(c^lambda mod n^2) * mu mod n``), 0.68 ms CRT, 0.33 ms one prime;
  2048-bit keys 92.2 / 24.9 / 12.2 ms.  CRT is 2.7x / 3.7x faster than
  full width, one prime 2.0x faster than CRT at both sizes.
* An *obfuscation pool* lets callers pre-compute ``r^n mod n^2`` values
  off the critical path — the trick the paper's high-performance
  library uses to cheapen the inner encryption loop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.crypto import math_utils

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

    def make_obfuscator(self, rng: random.Random | None = None) -> int:
        """Return a fresh random obfuscation factor ``r^n mod n^2``.

        One full-width powmod: what a party without the factorisation
        pays (the key holder: :meth:`PaillierPrivateKey.make_obfuscator`).

        Args:
            rng: optional seeded generator for the random ``r``.
        """
        r = math_utils.random_coprime(self.n, rng)
        return math_utils.powmod(r, self.n, self.n_squared)

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
        p_factors, q_factors: the prime factors of ``p - 1`` and
            ``q - 1`` with multiplicity, as key generation supplies
            them; a side that has its list draws obfuscators from a
            table, a side without (keys built from bare primes) lifts
            a random unit (:meth:`make_obfuscator`).

    Raises:
        ValueError: ``p * q`` is not the public modulus,
            ``gcd(n, (p-1)(q-1)) != 1`` (e.g. ``p | q - 1``), or a
            factor list is not the prime factorisation of its ``p - 1``.
    """

    public_key: PaillierPublicKey
    p: int = field(repr=False)
    q: int = field(repr=False)
    p_factors: tuple[int, ...] = field(repr=False, default=(), compare=False)
    q_factors: tuple[int, ...] = field(repr=False, default=(), compare=False)
    # CRT precomputations, filled in __post_init__.
    _p_squared: int = field(repr=False, default=0)
    _q_squared: int = field(repr=False, default=0)
    _hp: int = field(repr=False, default=0)
    _hq: int = field(repr=False, default=0)
    _q_inv_p: int = field(repr=False, default=0)
    # Per side, the generator of the n-th residues modulo p^2 / q^2
    # (None without a factor list), and the state make_obfuscator()
    # builds from them on the first draw; not part of the key's identity.
    _generators: tuple = field(repr=False, default=(), compare=False)
    _draw_state: tuple | None = field(repr=False, default=None, compare=False)

    def __post_init__(self) -> None:
        n = self.public_key.n
        if self.p * self.q != n:
            raise ValueError("private key does not match public key")
        if math.gcd(n, (self.p - 1) * (self.q - 1)) != 1:
            raise ValueError(
                "gcd(n, (p-1)(q-1)) must be 1: one prime divides the other's "
                "p - 1, so r -> r^n is no bijection onto the n-th residues"
            )
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
        generators = (
            self._residue_generator(self.p, p2, self.p_factors),
            self._residue_generator(self.q, q2, self.q_factors),
        )
        object.__setattr__(self, "_generators", generators)

    @staticmethod
    def _residue_generator(
        prime: int, prime_squared: int, factors: tuple[int, ...]
    ) -> int | None:
        """``g^prime mod prime^2`` for the smallest primitive root ``g``.

        It generates ``{x^prime mod prime^2}``, the n-th residues on
        this side.  Only a verified factorisation of ``prime - 1``
        yields one; no list, no generator (``None``: the lift route).
        """
        if not factors:
            return None
        if math.prod(factors) != prime - 1 or not all(
            math_utils.is_probable_prime(factor) for factor in factors
        ):
            raise ValueError(
                "factor list is not the prime factorisation of p - 1 for this prime"
            )
        root = math_utils.primitive_root(prime, factors)
        return math_utils.powmod(root, prime, prime_squared)

    def _h_function(self, prime: int, prime_squared: int) -> int:
        n = self.public_key.n
        g_pow = math_utils.powmod(n + 1, prime - 1, prime_squared)
        return math_utils.invert(self._l_function(g_pow, prime), prime)

    @staticmethod
    def _l_function(x: int, prime: int) -> int:
        """Paillier's ``L(x) = (x - 1) / p`` over integers."""
        return (x - 1) // prime

    def make_obfuscator(self, rng: random.Random | None = None) -> int:
        """Return a fresh obfuscation factor, drawn with the factorisation.

        Same law as :meth:`PaillierPublicKey.make_obfuscator` — a
        uniform n-th residue modulo ``n^2`` — from a different sampler
        (DESIGN §4.14).  Modulo ``p^2`` the n-th residues are the
        cyclic group ``{x^p}`` of order ``p - 1``, onto which
        ``r -> r^n`` maps ``Z_p^*`` bijectively (``gcd(q, p - 1) = 1``,
        checked at construction).  So one side is ``G_p^a`` for a
        uniform ``a`` and the verified generator ``G_p``, read out of a
        fixed-base table with no ``pow``; a side without a factor list
        lifts a uniform unit as ``y^p mod p^2``.  Garner glues the
        sides.  Tables and the ``q^2`` inverse are built on first use.

        Args:
            rng: optional seeded generator for the two random draws.
        """
        if self._draw_state is None:
            tables = [
                generator
                and math_utils.fixed_base_table(generator, prime.bit_length(), prime * prime)
                for prime, generator in zip((self.p, self.q), self._generators)
            ]
            q_sq_inv = math_utils.invert(self._q_squared, self._p_squared)
            object.__setattr__(self, "_draw_state", (*tables, q_sq_inv))
        table_p, table_q, q_sq_inv = self._draw_state
        return math_utils.crt_combine(
            self._draw_residue(self.p, self._p_squared, table_p, rng),
            self._draw_residue(self.q, self._q_squared, table_q, rng),
            self._p_squared,
            self._q_squared,
            q_sq_inv,
        )

    @staticmethod
    def _draw_residue(
        prime: int, prime_squared: int, table: list | None, rng: random.Random | None
    ) -> int:
        # uniform on [1, prime): a unit to lift, or an exponent that
        # covers every residue class modulo prime - 1 exactly once
        draw = math_utils.random_coprime(prime, rng)
        if table is None:
            return math_utils.powmod(draw, prime, prime_squared)
        return math_utils.fixed_base_powmod(table, draw, prime_squared)

    def raw_decrypt(self, ciphertext: int, bound: int | None = None) -> int:
        """Decrypt a raw cipher back to its integer plaintext in ``[0, n)``.

        Args:
            bound: the caller's promise that the plaintext, read as a
                signed integer, lies in ``[-bound, bound]``.  When
                ``2 * bound < p`` the ``p`` half alone decrypts it:
                ``n ≡ 0 (mod p)``, so the half is ``x mod p``, whose
                signed lift is ``x`` — one half-size powmod instead of
                the CRT route's two (DESIGN §4.14).

        Raises:
            ValueError: the cipher is outside ``[0, n^2)``, or its
                plaintext outside ``±bound`` (a cipher under another key
                or a corrupted one passes with probability about
                ``2 * bound / p``).
        """
        n = self.public_key.n
        if not 0 <= ciphertext < self.public_key.n_squared:
            raise ValueError("ciphertext out of range")
        if bound is not None and 2 * bound < self.p:
            residue = self._decrypt_half(ciphertext, self.p, self._p_squared, self._hp)
            signed = residue - self.p if residue > self.p // 2 else residue
        else:
            plaintext = math_utils.crt_combine(
                self._decrypt_half(ciphertext, self.p, self._p_squared, self._hp),
                self._decrypt_half(ciphertext, self.q, self._q_squared, self._hq),
                self.p,
                self.q,
                self._q_inv_p,
            ) % n
            if bound is None:
                return plaintext
            signed = plaintext - n if plaintext > n // 2 else plaintext
        if abs(signed) > bound:
            raise ValueError(f"plaintext outside the promised bound ±{bound}")
        return signed % n

    def _decrypt_half(self, ciphertext: int, prime: int, prime_squared: int, h: int) -> int:
        """The plaintext modulo ``prime``: ``L(c^(prime-1) mod prime^2) * h``."""
        power = math_utils.powmod(ciphertext, prime - 1, prime_squared)
        return self._l_function(power, prime) * h % prime

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
    rng = random.Random(seed) if seed is not None else None
    (p, p_factors), (q, q_factors) = math_utils.generate_prime_pair(key_bits, rng)
    public = PaillierPublicKey(n=p * q)
    private = PaillierPrivateKey(
        public_key=public, p=p, q=q, p_factors=p_factors, q_factors=q_factors
    )
    return public, private


class ObfuscatorPool:
    """Pre-computed pool of obfuscation factors ``r^n mod n^2``.

    Generating the obfuscator is the expensive part of encryption. The
    pool moves that work off the critical path: refill during idle
    periods, then encryption inside the blaster loop is a couple of
    modular multiplications.

    Draw order is deterministic given the draws themselves: the pool is
    a LIFO stack, ``refill`` appends in generation order and ``take``
    pops from the top, so interleaved refill/take sequences replay
    identically whenever the injected ``rng`` is the same.

    Args:
        public_key: key the obfuscators belong to.
        size: obfuscators to precompute immediately.
        rng: optional seeded generator for the random draws.
        private_key: the key holder's private half — obfuscators are
            then drawn by :meth:`PaillierPrivateKey.make_obfuscator`
            (tabled generator powers) instead of one full-width
            exponentiation each; same distribution.

    Raises:
        ValueError: ``private_key`` belongs to a different public key —
            its obfuscators would be n-th residues of another modulus.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        size: int = 0,
        rng: random.Random | None = None,
        private_key: PaillierPrivateKey | None = None,
    ) -> None:
        if private_key is not None and private_key.public_key != public_key:
            raise ValueError("private key does not belong to this public key")
        self._make_obfuscator = (private_key or public_key).make_obfuscator
        self._rng = rng
        self._pool: list[int] = []
        if size:
            self.refill(size)

    def __len__(self) -> int:
        return len(self._pool)

    def refill(self, count: int) -> None:
        """Generate ``count`` additional obfuscators."""
        self._pool.extend(self._make_obfuscator(self._rng) for _ in range(count))

    def take(self) -> int:
        """Pop one obfuscator, generating on demand if the pool is dry."""
        if self._pool:
            return self._pool.pop()
        return self._make_obfuscator(self._rng)


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
