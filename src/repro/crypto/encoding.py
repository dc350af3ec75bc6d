"""Fixed-point encoding of floats for the Paillier cryptosystem.

A floating point value ``v`` is encoded into a pair ``<e, V>`` with

    ``V = round(v * B**e) + 1(v < 0) * n``

(§2.2 of the paper), where ``B`` is the encoding base (paper default 16)
and ``e`` the *exponent term*. Positive and negative values occupy
disjoint ranges of ``Z_n``: positives in ``[0, max_int]``, negatives in
``[n - max_int, n)``.

The exponent may be *jittered* — drawn from a small window instead of a
fixed value — to obfuscate the magnitude range of the plaintext (paper
§2.2, footnote 2).  The number of distinct exponents in flight, ``E``,
is what the re-ordered histogram accumulation of §5.1 exploits: the
paper reports ``E`` between 4 and 8 in practice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.paillier import PaillierPublicKey

__all__ = ["EncodedNumber", "Encoder", "DEFAULT_BASE", "DEFAULT_EXPONENT"]

#: Paper default encoding base.
DEFAULT_BASE = 16

#: Default precision exponent: B**8 = 2**32 fractional resolution at B=16.
DEFAULT_EXPONENT = 8


@dataclass(frozen=True)
class EncodedNumber:
    """An integer-encoded float ``<e, V>`` tied to a public key.

    Attributes:
        public_key: key whose modulus defines the encoding space.
        value: the big-integer representation ``V`` in ``[0, n)``.
        exponent: the exponent term ``e`` (precision ``B**-e``).
        base: the encoding base ``B`` the value was scaled by.  Carried
            so a decode under a different base is *rejected* instead of
            silently returning a wrong float (``V / B'**e``).
    """

    public_key: PaillierPublicKey
    value: int
    exponent: int
    base: int = DEFAULT_BASE

    def _require_base(self, base: int | None) -> int:
        if base is not None and base != self.base:
            raise ValueError(
                f"encoding base mismatch: value was encoded in base "
                f"{self.base}, not base {base}"
            )
        return self.base

    def decode(self, base: int | None = None) -> float:
        """Decode back to a float.

        Args:
            base: optional cross-check; when given it must equal the
                base the value was encoded under.

        Raises:
            ValueError: on an encoding-base mismatch.
            OverflowError: if the value falls in the dead zone between
                the positive and negative ranges — the signature of an
                arithmetic overflow.
        """
        base = self._require_base(base)
        n = self.public_key.n
        max_int = self.public_key.max_int
        if self.value <= max_int:
            magnitude = self.value
        elif self.value >= n - max_int:
            magnitude = self.value - n
        else:
            raise OverflowError("encoded value out of range: overflow detected")
        return magnitude / base**self.exponent

    def decrease_exponent_to(self, new_exponent: int, base: int | None = None):
        """Return an equivalent encoding at a *higher precision* exponent.

        In the paper's convention larger ``e`` means more fractional
        bits, so re-encoding at ``new_exponent > exponent`` multiplies
        ``V`` by ``B**(new_exponent - exponent)``. This is the plaintext
        analogue of cipher scaling.
        """
        base = self._require_base(base)
        if new_exponent < self.exponent:
            raise ValueError(
                f"cannot reduce precision: {new_exponent} < {self.exponent}"
            )
        factor = base ** (new_exponent - self.exponent)
        return EncodedNumber(
            self.public_key,
            (self.value * factor) % self.public_key.n,
            new_exponent,
            base,
        )


class Encoder:
    """Encodes floats as :class:`EncodedNumber` with optional exponent jitter.

    Args:
        public_key: Paillier public key.
        base: encoding base ``B``.
        exponent: base precision exponent ``e0``.
        jitter: width of the exponent window. Encoding draws
            ``e ~ Uniform{e0, ..., e0 + jitter - 1}``; ``jitter=1``
            disables randomization. The paper observes 4-8 distinct
            exponents (``E``) in production traffic.
        rng: RNG used for jitter (injectable for determinism).
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        base: int = DEFAULT_BASE,
        exponent: int = DEFAULT_EXPONENT,
        jitter: int = 1,
        rng: random.Random | None = None,
    ) -> None:
        if base < 2:
            raise ValueError("base must be >= 2")
        if jitter < 1:
            raise ValueError("jitter must be >= 1")
        self.public_key = public_key
        self.base = base
        self.exponent = exponent
        self.jitter = jitter
        # Jitter only needs to be unpredictable to the *other* party, not
        # cryptographically strong; a key-derived seed keeps simulated
        # runs bit-for-bit repeatable when no RNG is injected.
        self._rng = rng or random.Random(public_key.n & 0xFFFFFFFF)

    def draw_exponent(self) -> int:
        """Draw an exponent from the jitter window."""
        if self.jitter == 1:
            return self.exponent
        return self.exponent + self._rng.randrange(self.jitter)

    def encode(self, value: float, exponent: int | None = None) -> EncodedNumber:
        """Encode a float, optionally pinning the exponent.

        Raises:
            OverflowError: if ``|value| * B**e`` exceeds the positive or
                negative capacity of the encoding space.
        """
        if exponent is None:
            exponent = self.draw_exponent()
        scaled = round(value * self.base**exponent)
        if abs(scaled) > self.public_key.max_int:
            raise OverflowError(
                f"value {value!r} does not fit the encoding space at "
                f"exponent {exponent}"
            )
        if scaled < 0:
            scaled += self.public_key.n
        return EncodedNumber(self.public_key, scaled, exponent, self.base)

    def decode(self, encoded: EncodedNumber) -> float:
        """Decode an :class:`EncodedNumber` produced by this encoder.

        Raises:
            ValueError: when the encoding belongs to a different key or
                was produced under a different base than this encoder's
                (a silent wrong-float decode otherwise).
        """
        if encoded.public_key is not self.public_key and (
            encoded.public_key.n != self.public_key.n
        ):
            raise ValueError("encoding belongs to a different key")
        return encoded.decode(self.base)
