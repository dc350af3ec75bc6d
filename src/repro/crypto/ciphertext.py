"""Encrypted floating-point numbers with exponent bookkeeping.

This layer combines the raw Paillier integer operations with the
fixed-point encoding to provide the cipher arithmetic the federated
GBDT algorithm actually uses:

* ``[[u]] (+) [[v]]`` — homomorphic addition, *scaling* the cipher with
  the smaller exponent first when exponents differ (§2.2 / Figure 8);
* ``k (x) [[v]]`` — scalar multiplication;
* cheap plaintext addition (used by histogram packing's shift).

Every operation is counted once, in the context-local :class:`OpStats`
— the one op ledger of a run.  The cost model prices it, the ``CR003``
lint audits it, and ``TrainResult.crypto_stats``, the trainer's
per-phase ``profile``, ``RunReport.parties``, the golden fingerprints
and the end-to-end benchmark's oracle are all views of it.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from repro.crypto.encoding import DEFAULT_BASE, DEFAULT_EXPONENT, EncodedNumber, Encoder
from repro.crypto.paillier import (
    ObfuscatorPool,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)

__all__ = ["OpStats", "EncryptedNumber", "PaillierContext"]


@dataclass
class OpStats:
    """Counters for every cryptography operation performed.

    Attributes map one-to-one to the unit costs of the paper's cost
    model (§5): ``T_ENC``, ``T_DEC``, ``T_HADD``, ``T_SMUL`` plus the
    cipher *scaling* operations that re-ordered accumulation eliminates.
    """

    encryptions: int = 0
    decryptions: int = 0
    additions: int = 0
    scalings: int = 0
    scalar_multiplications: int = 0
    plain_additions: int = 0

    def snapshot(self) -> "OpStats":
        """Return a copy of the current counters."""
        return OpStats(
            self.encryptions,
            self.decryptions,
            self.additions,
            self.scalings,
            self.scalar_multiplications,
            self.plain_additions,
        )

    def diff(self, earlier: "OpStats") -> "OpStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return OpStats(
            self.encryptions - earlier.encryptions,
            self.decryptions - earlier.decryptions,
            self.additions - earlier.additions,
            self.scalings - earlier.scalings,
            self.scalar_multiplications - earlier.scalar_multiplications,
            self.plain_additions - earlier.plain_additions,
        )

    def reset(self) -> None:
        """Zero all counters."""
        self.encryptions = 0
        self.decryptions = 0
        self.additions = 0
        self.scalings = 0
        self.scalar_multiplications = 0
        self.plain_additions = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-ready counter mapping (RunReport / golden guard)."""
        return asdict(self)


@dataclass(frozen=True)
class EncryptedNumber:
    """A Paillier cipher of an encoded float: ``<e, [[V]]>``.

    Instances are immutable; arithmetic returns new objects. The
    ``context`` back-reference lets ``a + b`` and ``k * a`` route
    through the counting context.
    """

    context: "PaillierContext" = field(repr=False)
    ciphertext: int = field(repr=False)
    exponent: int = 0

    def __add__(self, other):
        if isinstance(other, EncryptedNumber):
            return self.context.add(self, other)
        if isinstance(other, (int, float)):
            return self.context.add_plain(self, float(other))
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return self.context.multiply(self, scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __sub__(self, other):
        if isinstance(other, EncryptedNumber):
            return self.context.add(self, self.context.multiply(other, -1))
        if isinstance(other, (int, float)):
            return self.context.add_plain(self, -float(other))
        return NotImplemented

    def size_bits(self) -> int:
        """Wire size of this cipher: ``2 * S`` bits (element of Z_{n^2})."""
        return 2 * self.context.public_key.key_bits


class PaillierContext:
    """Factory and arithmetic engine for :class:`EncryptedNumber`.

    One context per keypair. Party B holds a context with the private
    key; Party A receives a *public* context (:meth:`public_context`)
    that can add/scale ciphers but cannot decrypt.

    Args:
        public_key: Paillier public key.
        private_key: optional matching private key (decryption side only).
        base: fixed-point encoding base.
        exponent: base precision exponent.
        jitter: exponent jitter window width (``E`` distinct exponents).
        rng: RNG for exponent jitter.
        obfuscator_pool_size: number of pre-computed obfuscators.
        obfuscator_rng: optional seeded generator for obfuscator draws
            (tests pin it to replay ciphertexts; production leaves it
            ``None`` for entropy).
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        private_key: PaillierPrivateKey | None = None,
        base: int = DEFAULT_BASE,
        exponent: int = DEFAULT_EXPONENT,
        jitter: int = 1,
        rng: random.Random | None = None,
        obfuscator_pool_size: int = 0,
        obfuscator_rng: random.Random | None = None,
    ) -> None:
        self.public_key = public_key
        self._private_key = private_key
        self.encoder = Encoder(public_key, base, exponent, jitter, rng)
        # The key holder's pool draws obfuscators with the private key
        # (tabled generator powers); public contexts pay the full-width
        # powmod.
        self.pool = ObfuscatorPool(
            public_key,
            obfuscator_pool_size,
            rng=obfuscator_rng,
            private_key=private_key,
        )
        self.stats = OpStats()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        key_bits: int,
        seed: int | None = None,
        base: int = DEFAULT_BASE,
        exponent: int = DEFAULT_EXPONENT,
        jitter: int = 1,
        obfuscator_rng: random.Random | None = None,
    ) -> "PaillierContext":
        """Generate a fresh keypair and wrap it in a context."""
        public, private = generate_keypair(key_bits, seed=seed)
        rng = random.Random(seed) if seed is not None else None
        return cls(
            public,
            private,
            base=base,
            exponent=exponent,
            jitter=jitter,
            rng=rng,
            obfuscator_rng=obfuscator_rng,
        )

    def public_context(self) -> "PaillierContext":
        """A decryption-less view of this context (what Party A gets)."""
        return PaillierContext(
            self.public_key,
            private_key=None,
            base=self.encoder.base,
            exponent=self.encoder.exponent,
            jitter=self.encoder.jitter,
        )

    @property
    def can_decrypt(self) -> bool:
        """Whether this context holds the private key."""
        return self._private_key is not None

    # ------------------------------------------------------------------
    # Encrypt / decrypt
    # ------------------------------------------------------------------
    def encrypt(
        self, value: float, exponent: int | None = None
    ) -> EncryptedNumber:
        """Encode and encrypt a float, counting one encryption."""
        encoded = self.encoder.encode(value, exponent)
        self.stats.encryptions += 1
        raw = self.public_key.raw_encrypt(encoded.value, self.pool.take())
        return EncryptedNumber(self, raw, encoded.exponent)

    def encrypt_encoded(self, encoded: EncodedNumber) -> EncryptedNumber:
        """Encrypt an already-encoded number."""
        self.stats.encryptions += 1
        raw = self.public_key.raw_encrypt(encoded.value, self.pool.take())
        return EncryptedNumber(self, raw, encoded.exponent)

    def decrypt(self, number: EncryptedNumber, bound: float | None = None) -> float:
        """Decrypt to a float. Requires the private key.

        ``bound``: as in :meth:`decrypt_encoded`.
        """
        return self.decrypt_encoded(number, bound).decode(self.encoder.base)

    def decrypt_encoded(
        self, number: EncryptedNumber, bound: float | None = None
    ) -> EncodedNumber:
        """Decrypt to the intermediate encoded form (used by unpacking).

        Args:
            bound: optional bound on the decrypted value's magnitude, in
                value units.  The plaintext must then lie within
                ``±ceil(bound * B**e)`` at the cipher's exponent ``e``
                (exact arithmetic), and a small enough bound lets the key
                decrypt at one prime (:meth:`PaillierPrivateKey.raw_decrypt`).

        Raises:
            ValueError: the plaintext lies outside that bound, or the
                cipher outside the key's range.
        """
        if self._private_key is None:
            raise PermissionError("this context has no private key")
        self.stats.decryptions += 1
        raw_bound = None
        if bound is not None:
            raw_bound = math.ceil(Fraction(bound) * Fraction(self.encoder.base) ** number.exponent)
        value = self._private_key.raw_decrypt(number.ciphertext, raw_bound)
        return EncodedNumber(
            self.public_key, value, number.exponent, self.encoder.base
        )

    def decrypt_raw(self, number: EncryptedNumber) -> int:
        """Decrypt to the raw integer in ``[0, n)`` (packing unpack path)."""
        if self._private_key is None:
            raise PermissionError("this context has no private key")
        self.stats.decryptions += 1
        return self._private_key.raw_decrypt(number.ciphertext)

    # ------------------------------------------------------------------
    # Homomorphic arithmetic
    # ------------------------------------------------------------------
    def add(self, a: EncryptedNumber, b: EncryptedNumber) -> EncryptedNumber:
        """HAdd with exponent alignment.

        When the exponents differ, the cipher with the *smaller*
        exponent is scaled up by ``B**diff`` first — one SMul-grade
        exponentiation, counted separately as a *scaling* so the
        re-ordered accumulation benefit is measurable.
        """
        a, b = self._align(a, b)
        self.stats.additions += 1
        raw = self.public_key.raw_add(a.ciphertext, b.ciphertext)
        return EncryptedNumber(self, raw, a.exponent)

    def _align(
        self, a: EncryptedNumber, b: EncryptedNumber
    ) -> tuple[EncryptedNumber, EncryptedNumber]:
        if a.exponent == b.exponent:
            return a, b
        if a.exponent < b.exponent:
            a = self.scale_to(a, b.exponent)
        else:
            b = self.scale_to(b, a.exponent)
        return a, b

    def scale_to(self, number: EncryptedNumber, exponent: int) -> EncryptedNumber:
        """Scale a cipher to a higher-precision exponent (counted)."""
        if exponent == number.exponent:
            return number
        if exponent < number.exponent:
            raise ValueError("cannot scale a cipher to lower precision")
        factor = self.encoder.base ** (exponent - number.exponent)
        self.stats.scalings += 1
        raw = self.public_key.raw_multiply(number.ciphertext, factor)
        return EncryptedNumber(self, raw, exponent)

    def add_plain(self, a: EncryptedNumber, value: float) -> EncryptedNumber:
        """Add a public plaintext float to a cipher without encryption."""
        encoded = self.encoder.encode(value, exponent=None)
        if encoded.exponent < a.exponent:
            encoded = encoded.decrease_exponent_to(a.exponent, self.encoder.base)
        elif encoded.exponent > a.exponent:
            a = self.scale_to(a, encoded.exponent)
        self.stats.plain_additions += 1
        raw = self.public_key.raw_add_plain(a.ciphertext, encoded.value)
        return EncryptedNumber(self, raw, a.exponent)

    def add_plain_raw(self, a: EncryptedNumber, raw_value: int) -> EncryptedNumber:
        """Add a raw integer (same exponent assumed) to a cipher."""
        self.stats.plain_additions += 1
        raw = self.public_key.raw_add_plain(a.ciphertext, raw_value)
        return EncryptedNumber(self, raw, a.exponent)

    def multiply(self, a: EncryptedNumber, scalar: float) -> EncryptedNumber:
        """SMul by a float or int scalar.

        Integer scalars keep the exponent unchanged; float scalars are
        encoded first and their exponent adds to the cipher's.
        """
        if isinstance(scalar, int) or float(scalar).is_integer():
            factor, exponent = int(scalar), a.exponent
        else:
            encoded = self.encoder.encode(scalar, exponent=None)
            factor, exponent = encoded.value, a.exponent + encoded.exponent
        self.stats.scalar_multiplications += 1
        raw = self.public_key.raw_multiply(a.ciphertext, factor)
        return EncryptedNumber(self, raw, exponent)

    def multiply_raw(self, a: EncryptedNumber, scalar: int) -> EncryptedNumber:
        """SMul by a raw integer scalar without exponent bookkeeping.

        Used by cipher packing where the scalar ``2**M`` is a bit-shift
        in the packed integer domain, not a fixed-point quantity.
        """
        self.stats.scalar_multiplications += 1
        raw = self.public_key.raw_multiply(a.ciphertext, scalar)
        return EncryptedNumber(self, raw, a.exponent)

    def encrypt_zero(self, exponent: int) -> EncryptedNumber:
        """An (unobfuscated) encryption of zero at a given exponent.

        Used to initialize histogram bins; not secure on the wire by
        itself, but histogram bins always accumulate obfuscated ciphers
        before leaving the party.
        """
        return EncryptedNumber(self, 1, exponent)

    def sum_ciphers(self, numbers) -> EncryptedNumber:
        """Naive left-to-right HAdd reduction (baseline accumulation)."""
        iterator = iter(numbers)
        try:
            total = next(iterator)
        except StopIteration:
            raise ValueError("cannot sum an empty sequence of ciphers") from None
        for number in iterator:
            total = self.add(total, number)
        return total
