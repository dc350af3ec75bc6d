"""Polynomial-based cipher packing (§5.2 of the paper).

Packs ``t`` ciphers of *non-negative* ``M``-bit integers into a single
cipher via a Horner-style polynomial in ``2**M``:

    ``[[Vbar]] = [[V1]] (+) 2^M (x) ([[V2]] (+) 2^M (x) ([[V3]] (+) ...))``

so that a single decryption recovers

    ``Vbar = V1 + 2^M * (V2 + 2^M * (V3 + ...))``

and slicing ``Vbar`` into ``M``-bit limbs recovers all ``t`` values.
Both the wire size and decryption count shrink by ``t`` at a packing
cost of ``(t-1)`` HAdd + ``(t-1)`` SMul on the non-private party.

Packing requires every packed value to be a non-negative integer below
``2**M``; the histogram integration (``repro.core.enc_histogram``)
achieves this by a shift of ``N * Bound`` applied to the first bin
before prefix-summing.

:class:`GradHessLayout` is the one limb layout of the packed protocol
path: it fixes how an instance's ``(g, h)`` shares one plaintext, how
wide a packed histogram bin is and how many of them one cipher holds.
The gradient encoder, ``pack_histogram`` / ``unpack_histogram``,
counted mode and the protocol scheduler all read it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import ClassVar

from repro.crypto.ciphertext import EncryptedNumber, PaillierContext
from repro.crypto.encoding import DEFAULT_BASE, EncodedNumber
from repro.crypto.paillier import PaillierPublicKey
from repro.gbdt.loss import GRID_BITS

__all__ = [
    "PackedCipher",
    "GradHessLayout",
    "GradientRangeError",
    "pack_capacity",
    "pack_ciphers",
    "unpack_values",
    "DEFAULT_LIMB_BITS",
]

#: Paper default limb width: M = 64 bits, giving t = 32 at S = 2048.
DEFAULT_LIMB_BITS = 64


@dataclass(frozen=True)
class PackedCipher:
    """A cipher holding ``count`` packed ``limb_bits``-bit integers.

    The first packed value occupies the lowest limb. ``exponent`` is
    the shared fixed-point exponent of the packed values so the
    receiver can decode the unpacked integers back to floats.

    A pack has no arithmetic: it travels pack -> message ->
    :func:`unpack_values` and is never added to, scaled or re-packed,
    which is why :func:`pack_capacity` may fill the plaintext to the
    last usable bit.
    """

    ciphertext: int
    count: int
    limb_bits: int
    exponent: int

    def size_bits(self, public_key: PaillierPublicKey) -> int:
        """Wire size — one cipher regardless of ``count``."""
        return 2 * public_key.key_bits


def pack_capacity(
    public_key: PaillierPublicKey, limb_bits: int = DEFAULT_LIMB_BITS
) -> int:
    """Max number of limbs that fit one plaintext without overflow.

    A ``t``-limb pack is below ``2**(t * limb_bits)``, so the largest
    ``t`` with ``t * limb_bits <= bit_length(max_int) - 1`` keeps every
    pack inside the positive encoding range, ``<= max_int``.  Nothing
    is held back on top: a :class:`PackedCipher` is only ever
    decrypted, never summed with another.

    Args:
        public_key: key whose plaintext space bounds the pack.
        limb_bits: ``M``, the limb stride.

    Raises:
        ValueError: when not even one limb fits the key's plaintext
            space — packing with such a key would silently overflow into
            the negative encoding range.
    """
    return _capacity(public_key.max_int.bit_length() - 1, limb_bits)


def _capacity(usable: int, limb_bits: int) -> int:
    """The rule of :func:`pack_capacity` on ``usable`` plaintext bits."""
    if usable < limb_bits:
        raise ValueError(
            f"key too small to pack any limb: {usable} usable plaintext "
            f"bits are fewer than one {limb_bits}-bit limb; use a larger "
            "key or a narrower limb_bits"
        )
    return usable // limb_bits


class GradientRangeError(ValueError):
    """A gradient or hessian outside its loss's bounds or off the grid.

    Out of bounds it would spill into the neighbouring limb of the
    packed plaintext and corrupt every sum it is added to; off the grid
    it has no exact fixed-point integer.
    """


@dataclass(frozen=True)
class GradHessLayout:
    """Two-limb plaintext layout of one instance's ``(g, h)``.

    One instance is the integer ``h * B**e * 2**L_g + g * B**e``, exact
    at the one fixed exponent ``e`` with ``B**e = 2**GRID_BITS`` because
    ``(g, h)`` lie on the grid of :func:`~repro.gbdt.loss.grid_gradients`:
    the hessian in the high limb, the *signed* gradient in the low one.
    With ``G = ceil(grad_bound * B**e)`` and ``H = ceil(hess_bound *
    B**e)``, a sum of ``count <= N`` such integers plus ``shift(count)``
    has ``0 <= sum g + count * G <= 2 * N * G < 2**L_g`` and ``0 <= sum h
    <= N * H < 2**L_h`` (DESIGN.md §4.15 has the no-carry proof), so a
    histogram bin is one cipher, accumulated by plain HAdds with nothing
    to align, and a shifted prefix-sum bin is a non-negative
    ``stride``-bit slot that :func:`pack_ciphers` packs ``capacity`` to a
    cipher.

    Attributes:
        key_bits: Paillier modulus size ``S``; a modulus of exactly
            ``S`` bits always offers ``S - 3`` usable plaintext bits, so
            capacity is the same for every key of that size.
        max_count: most instances ever summed into one cipher (``N``).
        grad_bound / hess_bound: ``|g| <= grad_bound`` and
            ``0 <= h <= hess_bound`` (the loss's declared bounds).
        limb_bits: ``L_g = bit_length(2 * N * G)``, the gradient limb and
            the bit the hessian starts at.
        stride: ``L_g + L_h`` with ``L_h = bit_length(N * H)``: the bits
            of the largest slot value, and from one packed slot to the
            next.
        capacity: slots per cipher, ``(S - 3) // stride``: a pack is
            below ``2**(capacity * stride) <= 2**(S - 3) <= max_int``.

    Raises:
        ValueError: when not even one slot fits the plaintext space.
    """

    key_bits: int
    max_count: int
    grad_bound: float
    hess_bound: float
    limb_bits: int = field(init=False)
    stride: int = field(init=False)
    capacity: int = field(init=False)

    base: ClassVar[int] = DEFAULT_BASE
    #: ``B**e = 2**GRID_BITS`` at ``B = 16 = 2**4``
    exponent: ClassVar[int] = GRID_BITS // 4
    #: ``B**e``, the fixed-point scale of both limbs: one unit is one grid step
    scale: ClassVar[int] = 1 << GRID_BITS

    def __post_init__(self) -> None:
        limb_bits = (2 * self.shift(self.max_count)).bit_length()
        hess_limit = self.max_count * math.ceil(self.hess_bound * self.scale)
        stride = limb_bits + hess_limit.bit_length()
        object.__setattr__(self, "limb_bits", limb_bits)
        object.__setattr__(self, "stride", stride)
        object.__setattr__(self, "capacity", _capacity(self.key_bits - 3, stride))

    def packs_per_node(self, n_features: int, n_bins: int) -> int:
        """Packed ciphers one node's histogram travels in.

        A feature ships its first ``n_bins - 1`` prefix sums (the last
        is the node total, which the key holder owns) and the node's
        slots fill ciphers across features.
        """
        return -(-n_features * (n_bins - 1) // self.capacity)

    def shift(self, count: int) -> int:
        """Raw offset that lifts any gradient sum of ``count`` instances to >= 0."""
        return count * math.ceil(self.grad_bound * self.scale)

    def encode(self, gradients: Iterable[float], hessians: Iterable[float]) -> list[int]:
        """One signed raw plaintext per instance of grid values.

        Raises:
            GradientRangeError: for ``|g| > grad_bound``, ``h`` outside
                ``[0, hess_bound]`` (NaN included), or a value off the
                ``2**-GRID_BITS`` grid: rounding it here would make the
                federated model differ from the co-located one.
        """
        scale = self.scale
        encoded = []
        for grad, hess in zip(gradients, hessians):
            grad_units, hess_units = float(grad) * scale, float(hess) * scale
            if not (
                abs(grad) <= self.grad_bound
                and 0.0 <= hess <= self.hess_bound
                and grad_units.is_integer()
                and hess_units.is_integer()
            ):
                raise GradientRangeError(
                    f"(g, h) = ({grad!r}, {hess!r}) outside |g| <= "
                    f"{self.grad_bound}, 0 <= h <= {self.hess_bound} or off "
                    f"the 2**-{GRID_BITS} grid"
                )
            encoded.append((int(hess_units) << self.limb_bits) + int(grad_units))
        return encoded

    def encrypt(
        self, context: PaillierContext, encoded: Iterable[int]
    ) -> list[EncryptedNumber]:
        """One pair cipher per integer of :meth:`encode`, each a counted Enc."""
        key = context.public_key
        return [
            context.encrypt_encoded(
                EncodedNumber(key, raw % key.n, self.exponent, self.base)
            )
            for raw in encoded
        ]

    def split(self, slot: int) -> tuple[int, int]:
        """``(gradient limb, hessian limb)`` of a non-negative slot."""
        return slot & ((1 << self.limb_bits) - 1), slot >> self.limb_bits


def pack_ciphers(
    context: PaillierContext,
    numbers: Sequence[EncryptedNumber],
    limb_bits: int = DEFAULT_LIMB_BITS,
) -> PackedCipher:
    """Pack ciphers of non-negative integers into one cipher.

    Args:
        context: a (public) Paillier context — packing needs no private key.
        numbers: ciphers to pack; all must share one exponent. Their
            plaintexts must be non-negative and below ``2**limb_bits``
            (the caller guarantees this via shifting; ``unpack_histogram``
            rejects the corrupted limbs a violation leaves behind).
        limb_bits: ``M`` in the paper.

    Returns:
        A :class:`PackedCipher` with the first input in the lowest limb.

    Raises:
        ValueError: on empty input, mixed exponents, or capacity overflow.
    """
    if not numbers:
        raise ValueError("cannot pack an empty sequence")
    capacity = pack_capacity(context.public_key, limb_bits)
    if len(numbers) > capacity:
        raise ValueError(
            f"cannot pack {len(numbers)} limbs: capacity is {capacity} "
            f"at M={limb_bits}, S={context.public_key.key_bits}"
        )
    exponent = numbers[0].exponent
    for number in numbers:
        if number.exponent != exponent:
            raise ValueError("all packed ciphers must share one exponent")
    radix = 1 << limb_bits
    accumulator = numbers[-1]
    for number in reversed(numbers[:-1]):
        shifted = context.multiply_raw(accumulator, radix)
        accumulator = context.add(number, shifted)
    return PackedCipher(
        ciphertext=accumulator.ciphertext,
        count=len(numbers),
        limb_bits=limb_bits,
        exponent=exponent,
    )


def unpack_values(context: PaillierContext, packed: PackedCipher) -> list[int]:
    """Decrypt once and slice the packed plaintext into its limbs.

    Args:
        context: a context holding the private key (Party B side).
        packed: the packed cipher.

    Returns:
        The ``count`` non-negative integers, first-packed first.

    Raises:
        ValueError: when the plaintext has bits above its ``count``
            limbs: not a pack of ``count`` values under this key.
    """
    number = EncryptedNumber(context, packed.ciphertext, packed.exponent)
    plaintext = context.decrypt_raw(number)
    mask = (1 << packed.limb_bits) - 1
    values = []
    for _ in range(packed.count):
        values.append(plaintext & mask)
        plaintext >>= packed.limb_bits
    if plaintext:
        raise ValueError(
            f"plaintext overflows its {packed.count} limbs of {packed.limb_bits} bits"
        )
    return values
