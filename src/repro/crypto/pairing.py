"""Gradient-pair packing: one cipher per instance instead of two.

The paper's §5.2 discussion points at BatchCrypt [88] and suggests its
packing idea generalizes beyond histograms. This module implements the
natural training-side counterpart: each instance's ``(g, h)`` pair —
plus an implicit count of one — is packed into a *single* plaintext of
three fixed-width limbs before encryption:

    ``V = (g + Bound) * B^e  |  h * B^e  |  1``   (low to high limb)

Summing pair ciphers sums all three limbs independently (no carries,
by limb-width construction), so one homomorphic addition accumulates
gradient, hessian *and* instance count at once. Compared to the §2.3
baseline this halves encryption count, halves the gradient stream,
halves BuildHistA additions, and halves the histogram transfer — and
because the exponent must be fixed for limb alignment, the cipher
scaling tax disappears entirely (re-ordered accumulation becomes a
no-op).

The price: a per-bin *count* limb travels to Party B. Counts reveal
Party A's per-bin instance distribution — the same granularity the
decrypted histograms already expose — and nothing about labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.ciphertext import EncryptedNumber, PaillierContext
from repro.crypto.encoding import EncodedNumber

__all__ = ["GradHessCodec", "PairSums"]


@dataclass(frozen=True)
class PairSums:
    """Decoded accumulation of packed pairs: sums plus the exact count."""

    grad_sum: float
    hess_sum: float
    count: int


class GradHessCodec:
    """Encodes, encrypts and decodes packed ``(g, h, 1)`` triples.

    Args:
        context: Paillier context (public side may encode/encrypt a
            shifted pair; decoding sums requires the private key).
        grad_bound: ``Bound`` with ``|g| <= Bound`` (loss-dependent).
        max_count: largest number of pairs ever accumulated into one
            cipher (the instance count ``N``); sizes the limbs.
        exponent: fixed-point exponent ``e`` (fixed — no jitter).

    Raises:
        ValueError: when three limbs do not fit the plaintext space.
    """

    def __init__(
        self,
        context: PaillierContext,
        grad_bound: float,
        max_count: int,
        exponent: int | None = None,
    ) -> None:
        self.context = context
        self.grad_bound = float(grad_bound)
        self.max_count = int(max_count)
        self.exponent = (
            context.encoder.exponent if exponent is None else exponent
        )
        base = context.encoder.base
        # Largest limb value: sum of max_count shifted gradients.
        largest = max(
            2.0 * self.grad_bound * max_count * base**self.exponent,
            float(max_count),
        )
        self.limb_bits = max(8, math.ceil(math.log2(largest)) + 2)
        if 3 * self.limb_bits >= context.public_key.max_int.bit_length():
            raise ValueError(
                f"3 limbs of {self.limb_bits} bits exceed the plaintext "
                f"space of a {context.public_key.key_bits}-bit key"
            )

    # ------------------------------------------------------------------
    def encode_pair(self, grad: float, hess: float) -> int:
        """Pack one instance's ``(g, h, 1)`` into a raw integer.

        Raises:
            ValueError: when ``|g|`` exceeds the declared bound or the
                hessian is negative (convex losses guarantee both).
        """
        if abs(grad) > self.grad_bound:
            raise ValueError(f"|g|={abs(grad)} exceeds bound {self.grad_bound}")
        if hess < 0:
            raise ValueError("hessians must be non-negative")
        scale = self.context.encoder.base**self.exponent
        limb0 = round((grad + self.grad_bound) * scale)
        limb1 = round(hess * scale)
        return limb0 | (limb1 << self.limb_bits) | (1 << (2 * self.limb_bits))

    def encrypt_pair(self, grad: float, hess: float) -> EncryptedNumber:
        """Encrypt one packed pair (counts as a single encryption)."""
        context = self.context
        raw = self.encode_pair(grad, hess)
        return context.encrypt_encoded(
            EncodedNumber(context.public_key, raw, self.exponent, context.encoder.base)
        )

    def add(self, a: EncryptedNumber, b: EncryptedNumber) -> EncryptedNumber:
        """Accumulate two pair ciphers (no scaling is ever needed)."""
        return self.context.add(a, b)

    def zero(self) -> EncryptedNumber:
        """A pair cipher representing zero pairs."""
        return self.context.encrypt_zero(self.exponent)

    def decode_sums(self, cipher: EncryptedNumber) -> PairSums:
        """Decrypt an accumulated pair cipher into ``(G, H, count)``.

        One decryption recovers all three statistics; the gradient
        shift is removed exactly using the recovered count.
        """
        raw = self.context.decrypt_raw(cipher)
        mask = (1 << self.limb_bits) - 1
        limb0 = raw & mask
        limb1 = (raw >> self.limb_bits) & mask
        count = raw >> (2 * self.limb_bits)
        scale = self.context.encoder.base**self.exponent
        return PairSums(
            grad_sum=limb0 / scale - count * self.grad_bound,
            hess_sum=limb1 / scale,
            count=int(count),
        )
