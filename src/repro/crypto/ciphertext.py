"""Encrypted floating-point numbers with exponent bookkeeping.

This layer combines the raw Paillier integer operations with the
fixed-point encoding to provide the cipher arithmetic the federated
GBDT algorithm actually uses:

* ``[[u]] (+) [[v]]`` — homomorphic addition, *scaling* the cipher with
  the smaller exponent first when exponents differ (§2.2 / Figure 8);
* ``k (x) [[v]]`` — scalar multiplication;
* cheap plaintext addition (used by histogram packing's shift);
* :meth:`PaillierContext.resident` — a block in which ciphers are
  Montgomery-form BIGNUM handles, an HAdd or a plaintext addition is
  one libcrypto product and a scaling or an integer SMul one libcrypto
  power (Party A's histogram builds and packs).

Every operation is counted once, in the context-local :class:`OpStats`
— the one op ledger of a run.  The cost model prices it, the ``CR003``
lint audits it, and ``TrainResult.crypto_stats``, the trainer's
per-phase ``profile``, ``RunReport.parties``, the golden fingerprints
and the end-to-end benchmark's oracle are all views of it.
"""

from __future__ import annotations

import contextlib
import random
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from repro.crypto import math_utils
from repro.crypto.encoding import DEFAULT_BASE, DEFAULT_EXPONENT, EncodedNumber, Encoder
from repro.crypto.paillier import (
    ObfuscatorPool,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)

__all__ = [
    "OpStats",
    "EncryptedNumber",
    "PaillierContext",
    "ResidentCiphers",
    "ResidentNumber",
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
        """JSON-ready counter mapping (RunReport / golden party sweep)."""
        return asdict(self)


@dataclass(frozen=True)
class EncryptedNumber:
    """A Paillier cipher of an encoded float: ``<e, [[V]]>``.

    Instances are immutable and have no arithmetic operators: every
    operation is an explicit, counted :class:`PaillierContext` call
    (``add``, ``multiply``, ``add_plain``), so each line names the op it
    pays for.  ``a * b`` (Paillier multiplies no two ciphers) and
    ``a + 1.0`` (a plaintext add hidden behind ``+``) raise
    ``TypeError``.
    """

    context: "PaillierContext" = field(repr=False)
    ciphertext: int = field(repr=False)
    exponent: int = 0

    def size_bits(self) -> int:
        """Wire size of this cipher: ``2 * S`` bits (element of Z_{n^2})."""
        return 2 * self.context.public_key.key_bits


class ResidentNumber:
    """A resident handle at its exponent: an operand of a block of mixed exponents.

    Made only inside :meth:`PaillierContext.resident`, and never valid
    outside it.
    """

    __slots__ = ("handle", "exponent")

    def __init__(self, handle, exponent: int) -> None:
        self.handle = handle
        self.exponent = exponent


def _not_a_cipher(a, b=None):
    """Refuse the operand ``a``: also :meth:`PaillierContext.add`'s product and
    ``scale_to``'s power outside a block."""
    raise TypeError(f"PaillierContext takes EncryptedNumber operands, not {type(a).__name__}")


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
        # (two half-width lifts); public contexts pay the full-width
        # powmod.
        self.pool = ObfuscatorPool(
            public_key,
            obfuscator_pool_size,
            rng=obfuscator_rng,
            private_key=private_key,
        )
        self.stats = OpStats()
        # the open resident block, its product and its power (see resident())
        self._block: _Block | None = None
        self._resident_product = self._resident_power = _not_a_cipher

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
    # Homomorphic arithmetic
    # ------------------------------------------------------------------
    def add(self, a: EncryptedNumber, b: EncryptedNumber) -> EncryptedNumber:
        """HAdd with exponent alignment.

        When the exponents differ, the cipher with the *smaller*
        exponent is scaled up by ``B**diff`` first — one SMul-grade
        exponentiation, counted separately as a *scaling* so the
        re-ordered accumulation benefit is measurable.

        Inside :meth:`resident`, ``a`` and ``b`` may be the block's
        operands instead: the HAdd is then one Montgomery product and
        returns an operand — a bare handle when the block holds one
        exponent, else a :class:`ResidentNumber` aligned as above.
        An operand that is neither (a :class:`~repro.crypto.packing.PackedCipher`,
        a handle outside its block) raises ``TypeError`` and counts no
        HAdd.
        """
        if type(a) is not EncryptedNumber:
            product = self._resident_product(a, b)
            self.stats.additions += 1
            return product
        if type(b) is not EncryptedNumber:
            _not_a_cipher(b)
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
        """Scale a cipher to a higher-precision exponent (counted).

        A :class:`ResidentNumber` is scaled inside its block: one power
        of its Montgomery form, a new :class:`ResidentNumber`.  Outside
        a block it, and any other non-cipher, raises ``TypeError`` and
        counts no scaling.
        """
        if exponent == number.exponent:
            return number
        if exponent < number.exponent:
            raise ValueError("cannot scale a cipher to lower precision")
        factor = self.encoder.base ** (exponent - number.exponent)
        if type(number) is ResidentNumber:
            scaled = ResidentNumber(self._resident_power(number.handle, factor), exponent)
        elif type(number) is EncryptedNumber:
            raw = self.public_key.raw_multiply(number.ciphertext, factor)
            scaled = EncryptedNumber(self, raw, exponent)
        else:
            _not_a_cipher(number)
        self.stats.scalings += 1
        return scaled

    def add_plain(self, a: EncryptedNumber, value: float) -> EncryptedNumber:
        """Add a public plaintext float to a cipher without encryption.

        A non-cipher ``a`` raises ``TypeError`` and counts nothing.
        """
        if type(a) is not EncryptedNumber:
            _not_a_cipher(a)
        encoded = self.encoder.encode(value, exponent=None)
        if encoded.exponent < a.exponent:
            encoded = encoded.decrease_exponent_to(a.exponent, self.encoder.base)
        elif encoded.exponent > a.exponent:
            a = self.scale_to(a, encoded.exponent)
        self.stats.plain_additions += 1
        raw = self.public_key.raw_add_plain(a.ciphertext, encoded.value)
        return EncryptedNumber(self, raw, a.exponent)

    def add_plain_raw(self, a: EncryptedNumber, raw_value: int) -> EncryptedNumber:
        """Add a raw integer (same exponent assumed) to a cipher.

        Inside :meth:`resident`, ``a`` may be an operand of the block:
        the sum is then one Montgomery product by ``g**raw_value``,
        loaded once per block and value, and an operand too.  Any other
        non-cipher raises ``TypeError`` and counts nothing.
        """
        if type(a) is not EncryptedNumber:
            block, handle, exponent = self._operand(a)
            total = block.bignums.multiply(handle, block.plain(raw_value))
            self.stats.plain_additions += 1
            return block.operand_of(total, exponent)
        self.stats.plain_additions += 1
        raw = self.public_key.raw_add_plain(a.ciphertext, raw_value)
        return EncryptedNumber(self, raw, a.exponent)

    def multiply(self, a: EncryptedNumber, scalar: float) -> EncryptedNumber:
        """SMul by a float or int scalar.

        Integer scalars keep the exponent unchanged; float scalars are
        encoded first and their exponent adds to the cipher's.  A
        non-cipher ``a`` raises ``TypeError`` and counts nothing.
        """
        if type(a) is not EncryptedNumber:
            _not_a_cipher(a)
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

        Inside :meth:`resident`, ``a`` may be an operand of the block:
        the product is then one arena power, not a
        :func:`~repro.crypto.math_utils.powmod`, and an operand too.
        Any other non-cipher raises ``TypeError`` and counts nothing.
        """
        if type(a) is not EncryptedNumber:
            block, handle, exponent = self._operand(a)
            key, bignums = self.public_key, block.bignums
            scalar %= key.n
            if scalar > key.max_int * 2:
                # raw_multiply inverts the cipher for such a scalar: its integer
                raised = bignums.load(key.raw_multiply(bignums.unload(handle), scalar))
            else:
                raised = bignums.power(handle, scalar)
            self.stats.scalar_multiplications += 1
            return block.operand_of(raised, exponent)
        self.stats.scalar_multiplications += 1
        raw = self.public_key.raw_multiply(a.ciphertext, scalar)
        return EncryptedNumber(self, raw, a.exponent)

    def encrypt_zero(self, exponent: int) -> EncryptedNumber:
        """An (unobfuscated) encryption of zero at a given exponent.

        Used to initialize histogram bins; not secure on the wire by
        itself, but histogram bins always accumulate obfuscated ciphers
        before leaving the party.  Inside a :meth:`resident` block that
        holds ciphers it is the block's operand for that cipher.
        """
        block = self._block
        if block is not None and block.bignums is not None:
            return block.zero(exponent)
        return EncryptedNumber(self, 1, exponent)

    def exponent_of(self, number) -> int:
        """The exponent of a cipher or of an operand of the open :meth:`resident` block.

        Raises:
            TypeError: for anything else.
        """
        if type(number) is EncryptedNumber:
            return number.exponent
        return self._operand(number)[2]

    def cipher_of(self, number) -> EncryptedNumber:
        """A cipher itself, or an operand of the open block unloaded to one.

        Raises:
            TypeError: for anything else.
        """
        if type(number) is EncryptedNumber:
            return number
        block, handle, exponent = self._operand(number)
        return EncryptedNumber(self, block.bignums.unload(handle), exponent)

    def _operand(self, number) -> tuple["_Block", object, int]:
        """``(block, handle, exponent)`` of an operand of the open block."""
        block = self._block
        if block is None:
            _not_a_cipher(number)
        return block, *block.handle_of(number)

    @contextlib.contextmanager
    def resident(self, ciphers: Sequence[EncryptedNumber] = ()) -> Iterator["ResidentCiphers"]:
        """A block in which ciphers are Montgomery-form BIGNUMs.

        The value's ``ciphers`` stand for the given ones, in order, when
        the engine has an arena
        (:func:`~repro.crypto.math_utils.montgomery_arena`): bare
        resident handles if every cipher of the block's first load has
        one exponent, :class:`ResidentNumber` s carrying their exponents
        otherwise.  Without an arena, or without ciphers, they are the
        ciphers themselves.  Either way :meth:`add`, :meth:`scale_to`,
        :meth:`add_plain_raw` and :meth:`multiply_raw` take them,
        counted as always, and :meth:`ResidentCiphers.settle` (or
        :meth:`cipher_of`, one at a time) turns finished operands back
        into :class:`EncryptedNumber` s — the same integers ``int``
        arithmetic gives.

        A call inside an open block joins it: its ciphers load into the
        same arena (``enclosed`` is set on the value) and its operands
        live until the enclosing block is left.  Leaving the outermost
        block returns every BIGNUM to the pool; no operand may escape it.

        Raises:
            ValueError: a load into a block of bare handles whose ciphers
                do not all have the block's exponent.
        """
        if self._block is not None:
            yield ResidentCiphers(ciphers, self._block, enclosed=True)
            return
        with contextlib.ExitStack() as stack:
            self._block = block = _Block(self, stack)
            try:
                yield ResidentCiphers(ciphers, block, enclosed=False)
            finally:
                self._block = None
                self._resident_product = self._resident_power = _not_a_cipher

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


class _Block:
    """A context's open :meth:`PaillierContext.resident` block.

    Its arena opens with the first ciphers the block loads; that load
    fixes whether the block's operands are bare handles at its one
    ``exponent`` or :class:`ResidentNumber` s (``exponent`` ``None``).
    """

    def __init__(self, context: PaillierContext, stack: contextlib.ExitStack) -> None:
        self.context = context
        self.bignums = None  # the arena's value, once open
        self.exponent: int | None = None
        self._stack = stack
        self._plains: dict[int, object] = {}  # raw plaintext -> g**raw, loaded
        self._one = None  # the unobfuscated zero cipher, loaded

    def admit(self, ciphers: Sequence[EncryptedNumber]) -> bool:
        """Whether ``ciphers`` load into the arena, opened for the first of them."""
        exponents = {cipher.exponent for cipher in ciphers}
        exponent = exponents.pop() if len(exponents) == 1 else None
        if self.bignums is not None:
            if self.exponent is not None and exponent != self.exponent:
                raise ValueError(
                    f"a resident block at exponent {self.exponent} loads no other exponent"
                )
            return True
        arena = math_utils.montgomery_arena(self.context.public_key.n_squared)
        if arena is None:
            return False
        self.bignums = bignums = self._stack.enter_context(arena)
        self.exponent = exponent
        context, multiply = self.context, bignums.multiply

        def aligned_product(a: ResidentNumber, b: ResidentNumber) -> ResidentNumber:
            a, b = context._align(a, b)
            return ResidentNumber(multiply(a.handle, b.handle), a.exponent)

        context._resident_product = multiply if exponent is not None else aligned_product
        context._resident_power = bignums.power
        return True

    def handle_of(self, number) -> tuple[object, int]:
        """``(handle, exponent)`` of one of the block's operands.

        Raises:
            TypeError: ``number`` is not one.
        """
        if self.bignums is not None:
            if self.exponent is None:
                if type(number) is ResidentNumber:
                    return number.handle, number.exponent
            elif type(number) is self.bignums.handle:
                return number, self.exponent
        _not_a_cipher(number)

    def operand_of(self, handle, exponent: int):
        """A handle at ``exponent`` as the block's operands are: bare or a :class:`ResidentNumber`."""
        return handle if self.exponent is not None else ResidentNumber(handle, exponent)

    def plain(self, raw_value: int):
        """``g**raw_value`` as a handle, loaded once per block."""
        loaded = self._plains.get(raw_value)
        if loaded is None:
            g_power = self.context.public_key.plain_cipher(raw_value)
            loaded = self._plains[raw_value] = self.bignums.load(g_power)
        return loaded

    def zero(self, exponent: int):
        """The operand for :meth:`PaillierContext.encrypt_zero`'s cipher at ``exponent``."""
        if self.exponent is not None and exponent != self.exponent:
            raise ValueError(
                f"a resident block at exponent {self.exponent} holds no cipher at {exponent}"
            )
        if self._one is None:
            self._one = self.bignums.load(1)
        return self.operand_of(self._one, exponent)


class ResidentCiphers:
    """The operands one :meth:`PaillierContext.resident` call loaded.

    Attributes:
        ciphers: one operand per cipher the call was given — a resident
            handle, a :class:`ResidentNumber` when the block's ciphers'
            exponents differ, or the cipher itself when the block holds
            ``int`` s.
        enclosed: whether the call joined a block already open on its
            context, whose owner goes on using what this one leaves.
    """

    def __init__(
        self, ciphers: Sequence[EncryptedNumber], block: _Block, enclosed: bool
    ) -> None:
        self.enclosed = enclosed
        self._block = block
        self._bignums = None
        if not ciphers or not block.admit(ciphers):
            self.ciphers = ciphers
            return
        self._bignums = bignums = block.bignums
        load = bignums.load
        if block.exponent is None:
            self.ciphers = [ResidentNumber(load(c.ciphertext), c.exponent) for c in ciphers]
        else:
            self.ciphers = [load(cipher.ciphertext) for cipher in ciphers]
        # an operand never added to leaves as the cipher it stood for
        self._originals = {id(h): c for h, c in zip(self.ciphers, ciphers)}

    def keep(self, *tables: dict) -> None:
        """Hand every operand made since the last keep or settle back to the pool.

        The values of ``tables`` are kept: they stay operands of the
        block, until it is left.
        """
        if self._bignums is None:
            return
        handle_of = self._block.handle_of
        self._bignums.recycle(
            [handle_of(value)[0] for table in tables for value in table.values()]
        )

    def settle(self, *tables: dict) -> None:
        """Turn every value of ``tables`` back into a cipher, in place.

        Each table is finished: no operand made since the last keep or
        settle is used again, so their BIGNUMs all go back to the pool.
        """
        if self._bignums is None:
            return
        originals, unload = self._originals, self._bignums.unload
        context, exponent = self._block.context, self._block.exponent
        unloaded: dict[int, EncryptedNumber] = {}  # an operand two tables share
        for table in tables:
            for key, value in table.items():
                cipher = originals.get(id(value)) or unloaded.get(id(value))
                if cipher is None:
                    if exponent is None:
                        cipher = EncryptedNumber(context, unload(value.handle), value.exponent)
                    else:
                        cipher = EncryptedNumber(context, unload(value), exponent)
                    unloaded[id(value)] = cipher
                table[key] = cipher
        self._bignums.recycle()
