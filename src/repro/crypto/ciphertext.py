"""Encrypted floating-point numbers with exponent bookkeeping.

This layer combines the raw Paillier integer operations with the
fixed-point encoding to provide the cipher arithmetic the federated
GBDT algorithm actually uses:

* ``[[u]] (+) [[v]]`` — homomorphic addition, *scaling* the cipher with
  the smaller exponent first when exponents differ (§2.2 / Figure 8);
* ``k (x) [[v]]`` — scalar multiplication;
* cheap plaintext addition (used by histogram packing's shift).

Arithmetic runs in a :meth:`PaillierContext.resident` block, on
*operands*: ciphers loaded into an arena mod ``n**2``
(:func:`~repro.crypto.math_utils.arena`), each tagged with its exponent.
An HAdd or a plaintext addition is one arena product, a scaling or an
integer SMul one arena power — on libcrypto a Montgomery-form BIGNUM
product or power, on the ``int`` engine the same integers.  An
:class:`EncryptedNumber` is a cipher outside a block: what crosses the
wire, is decrypted, or is loaded into one.

Every operation is counted once, in the context-local :class:`OpStats`
— the one op ledger of a run.  The cost model prices it, the ``CR003``
lint audits it, and ``TrainResult.crypto_stats``, the trainer's
per-phase ``profile``, ``RunReport.parties``, the golden fingerprints
and the end-to-end benchmark's oracle are all views of it.
"""

from __future__ import annotations

import contextlib
import random
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from types import SimpleNamespace

from repro.crypto import math_utils
from repro.crypto.encoding import DEFAULT_BASE, DEFAULT_EXPONENT, EncodedNumber, Encoder
from repro.crypto.paillier import (
    ObfuscatorPool,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)

__all__ = [
    "Block",
    "OpStats",
    "EncryptedNumber",
    "PaillierContext",
]


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
        return replace(self)

    def diff(self, earlier: "OpStats") -> "OpStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return OpStats(*(getattr(self, f.name) - getattr(earlier, f.name) for f in fields(self)))

    def reset(self) -> None:
        """Zero all counters."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def to_dict(self) -> dict[str, int]:
        """JSON-ready counter mapping (RunReport / golden party sweep)."""
        return asdict(self)


@dataclass(frozen=True)
class EncryptedNumber:
    """A Paillier cipher of an encoded float: ``<e, [[V]]>``.

    The form a cipher has outside a :meth:`PaillierContext.resident`
    block: on the wire, at the key holder, or about to be loaded.
    Instances are immutable and have no arithmetic operators: every
    operation is an explicit, counted :class:`PaillierContext` call on
    the cipher's operand in a block (``add``, ``multiply``,
    ``add_plain``), so each line names the op it pays for.  ``a * b``
    (Paillier multiplies no two ciphers) and ``a + 1.0`` (a plaintext
    add hidden behind ``+``) raise ``TypeError``.
    """

    context: "PaillierContext" = field(repr=False)
    ciphertext: int = field(repr=False)
    exponent: int = 0

    def size_bits(self) -> int:
        """Wire size of this cipher: ``2 * S`` bits (element of Z_{n^2})."""
        return 2 * self.context.public_key.key_bits


def _not_operands(handle, *operands) -> TypeError:
    """The error for an op given something other than an operand of the open
    block, whose handles are ``handle`` s (``None``: no block is open)."""
    if handle is None:
        return TypeError("no resident block is open: PaillierContext ops take its operands")
    stranger = next((x for x in operands if type(x) is not handle), operands[0])
    return TypeError(
        f"PaillierContext ops take operands of the open resident block, not {type(stranger).__name__}"
    )


def _closed(*_operands, **_options):
    raise _not_operands(None)


#: the arena of a context with no open block: it refuses every op
_CLOSED = SimpleNamespace(load=_closed, multiply=_closed, power=_closed, unload=_closed, handle=None)


def _scaled_bound(bound: float, base: int, exponent: int) -> int:
    """``ceil(bound * base**exponent)``, exactly, for a finite ``bound``.

    A float (the bound every caller passes) is read as its exact ratio;
    any other rational goes through :class:`~fractions.Fraction`.
    """
    if not isinstance(bound, float):
        bound = Fraction(bound)
    numerator, denominator = bound.as_integer_ratio()
    if exponent >= 0:
        numerator *= base**exponent
    else:
        denominator *= base**-exponent
    return -(-numerator // denominator)


class PaillierContext:
    """Factory of :class:`EncryptedNumber` s and arithmetic engine for their operands.

    One context per keypair. Party B holds a context with the private
    key; Party A receives a *public* context (:meth:`public_context`)
    that can add/scale ciphers in a :meth:`resident` block but cannot
    decrypt.

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
        # (two half-width lifts); public contexts pay the full-width
        # powmod.
        self.pool = ObfuscatorPool(
            public_key,
            obfuscator_pool_size,
            rng=obfuscator_rng,
            private_key=private_key,
        )
        self.stats = OpStats()
        #: the open :meth:`resident` block, ``None`` outside one
        self.block: Block | None = None
        # the open block's arena, and the g**raw it loaded
        self._arena = _CLOSED
        self._plains: dict[int, object] = {}

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
            raw_bound = _scaled_bound(bound, self.encoder.base, number.exponent)
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
    # Homomorphic arithmetic: one body each, over the open block's operands
    # ------------------------------------------------------------------
    def add(self, a, b):
        """HAdd of two operands, with exponent alignment: one arena product.

        When the exponents differ, the operand with the *smaller*
        exponent is scaled up by ``B**diff`` first — one SMul-grade
        power, counted separately as a *scaling* so the re-ordered
        accumulation benefit is measurable.  Anything but an operand of
        the open block (a cipher, a
        :class:`~repro.crypto.packing.PackedCipher`, ``None``, an
        ``int``, bytes) raises ``TypeError`` and counts no HAdd.
        """
        try:
            exponent = a.exponent
            aligned = exponent == b.exponent
        except AttributeError:
            raise _not_operands(self._arena.handle, a, b) from None
        if not aligned:
            a, b = self._align(a, b)
            exponent = a.exponent
        product = self._arena.multiply(a, b)
        product.exponent = exponent
        self.stats.additions += 1
        return product

    def _align(self, a, b) -> tuple:
        handle = self._arena.handle
        if type(a) is not handle or type(b) is not handle:
            raise _not_operands(handle, a, b)  # before a scaling is counted
        if a.exponent < b.exponent:
            return self.scale_to(a, b.exponent), b
        return a, self.scale_to(b, a.exponent)

    def scale_to(self, number, exponent: int):
        """Scale an operand to a higher-precision exponent: one counted arena power.

        A non-operand raises ``TypeError`` and counts no scaling.
        """
        try:
            current = number.exponent
        except AttributeError:
            raise _not_operands(self._arena.handle, number) from None
        if exponent == current:
            return number
        if exponent < current:
            raise ValueError("cannot scale a cipher to lower precision")
        scaled = self._arena.power(number, self.encoder.base ** (exponent - current))
        scaled.exponent = exponent
        self.stats.scalings += 1
        return scaled

    def add_plain(self, a, value: float):
        """Add a public plaintext float to an operand without encryption.

        A non-operand ``a`` raises ``TypeError`` and counts nothing.
        """
        try:
            exponent = a.exponent
        except AttributeError:
            raise _not_operands(self._arena.handle, a) from None
        encoded = self.encoder.encode(value, exponent=None)
        if encoded.exponent < exponent:
            encoded = encoded.decrease_exponent_to(exponent, self.encoder.base)
        elif encoded.exponent > exponent:
            a = self.scale_to(a, encoded.exponent)
        return self._plain_sum(a, encoded.value)

    def add_plain_raw(self, a, raw_value: int):
        """Add a raw integer (same exponent assumed) to an operand.

        A non-operand raises ``TypeError`` and counts nothing.
        """
        return self._plain_sum(a, raw_value)

    def _plain_sum(self, a, raw_value: int):
        """One counted plaintext addition: an arena product by
        ``g**raw_value``, loaded once per block and value."""
        plain = self._plains.get(raw_value)
        if plain is None:
            g_power = self.public_key.plain_cipher(raw_value)
            plain = self._plains[raw_value] = self._arena.load(g_power)
        total = self._arena.multiply(a, plain)
        total.exponent = a.exponent
        self.stats.plain_additions += 1
        return total

    def multiply(self, a, scalar: float):
        """SMul of an operand by a float or int scalar.

        Integer scalars keep the exponent unchanged; float scalars are
        encoded first and their exponent adds to the operand's.  A
        non-operand ``a`` raises ``TypeError`` and counts nothing.
        """
        if isinstance(scalar, int) or float(scalar).is_integer():
            return self._smul(a, int(scalar), 0)
        encoded = self.encoder.encode(scalar, exponent=None)
        return self._smul(a, encoded.value, encoded.exponent)

    def multiply_raw(self, a, scalar: int):
        """SMul of an operand by a raw integer scalar, its exponent kept.

        Used by cipher packing where the scalar ``2**M`` is a bit-shift
        in the packed integer domain, not a fixed-point quantity.  A
        non-operand raises ``TypeError`` and counts nothing.
        """
        return self._smul(a, scalar, 0)

    def _smul(self, a, scalar: int, shift: int):
        """One counted SMul: ``a`` raised to ``scalar mod n``, the integer
        :meth:`~repro.crypto.paillier.PaillierPublicKey.raw_multiply`
        gives, its exponent raised by ``shift``."""
        key, arena = self.public_key, self._arena
        scalar %= key.n
        if scalar > key.max_int * 2:
            # an encoded negative: raw_multiply raises the inverse to n - scalar
            product = arena.load(key.raw_multiply(arena.unload(a), scalar))
        else:
            product = arena.power(a, scalar)
        product.exponent = a.exponent + shift
        self.stats.scalar_multiplications += 1
        return product

    def encrypt_zero(self, exponent: int):
        """An (unobfuscated) encryption of zero at a given exponent, as an operand.

        Used to initialize histogram bins; not secure on the wire by
        itself, but histogram bins always accumulate obfuscated ciphers
        before leaving the party.
        """
        zero = self._arena.load(1)
        zero.exponent = exponent
        return zero

    def sum_ciphers(self, numbers):
        """Naive left-to-right HAdd reduction of operands (baseline accumulation)."""
        iterator = iter(numbers)
        try:
            total = next(iterator)
        except StopIteration:
            raise ValueError("cannot sum an empty sequence of ciphers") from None
        for number in iterator:
            total = self.add(total, number)
        return total

    @contextlib.contextmanager
    def resident(self) -> Iterator["Block"]:
        """A block in which ciphers are operands of an arena mod ``n**2``.

        :meth:`Block.load` turns a cipher into an operand, tagged with
        its exponent; every op of this context takes and returns such
        operands, counted as always; :meth:`Block.unload` turns one back
        into a cipher — the same integers on every engine.  The arena is
        libcrypto's where the engine has it, else the ``int`` one
        (:func:`~repro.crypto.math_utils.arena`).  Leaving the block,
        however it is left, returns every BIGNUM to the pool: no operand
        may escape it.

        Raises:
            RuntimeError: a block is already open on this context.
        """
        if self.block is not None:
            raise RuntimeError("a resident block is already open on this context")
        with math_utils.arena(self.public_key.n_squared) as arena:
            self.block, self._arena = Block(self, arena), arena
            try:
                yield self.block
            finally:
                self.block, self._arena, self._plains = None, _CLOSED, {}


class Block:
    """A context's open :meth:`PaillierContext.resident` block.

    Attributes:
        mark / recycle: the arena's (:func:`~repro.crypto.math_utils.arena`):
            ``recycle(mark, keep)`` hands every operand the context's ops
            made since ``mark()`` back to the pool but those in ``keep``.
    """

    def __init__(self, context: PaillierContext, arena) -> None:
        self._context = context
        self._arena = arena
        self.mark, self.recycle = arena.mark, arena.recycle

    def load(self, cipher: EncryptedNumber):
        """The operand of ``cipher``: its integer as a handle, tagged with its exponent."""
        operand = self._arena.load(cipher.ciphertext)
        operand.exponent = cipher.exponent
        return operand

    def unload(self, operand) -> EncryptedNumber:
        """The cipher an operand stands for.

        Raises:
            TypeError: ``operand`` is not an operand of this block.
        """
        return EncryptedNumber(self._context, self._arena.unload(operand), operand.exponent)
