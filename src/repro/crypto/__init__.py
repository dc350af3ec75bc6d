"""From-scratch Paillier homomorphic cryptosystem with GBDT customizations.

Public surface:

* :func:`generate_keypair` / :class:`PaillierContext` — key management
  and encrypted arithmetic with fixed-point encoding, on the operands
  of a :meth:`PaillierContext.resident` block.
* :mod:`repro.crypto.accumulation` — re-ordered histogram accumulation.
* :mod:`repro.crypto.packing` — polynomial-based cipher packing and
  the two-limb ``(g, h)`` plaintext layout of the packed protocol path.
* :mod:`repro.crypto.math_utils` — the ``powmod`` / ``invert``
  choke points for every power of an ``int`` (libcrypto, or built-in
  ``pow``), the arena (libcrypto's Montgomery BIGNUMs or ``int`` s)
  every block's ops run in, and the key holder's CRT route.
"""

from repro.crypto.accumulation import ExponentWorkspace, reordered_sum
from repro.crypto.ciphertext import EncryptedNumber, OpStats, PaillierContext
from repro.crypto.encoding import EncodedNumber, Encoder
from repro.crypto.packing import (
    DEFAULT_LIMB_BITS,
    GradHessLayout,
    GradientRangeError,
    PackedCipher,
    pack_capacity,
    pack_ciphers,
    unpack_values,
)
from repro.crypto.paillier import (
    DEFAULT_KEY_BITS,
    TEST_KEY_BITS,
    ObfuscatorPool,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)

__all__ = [
    "DEFAULT_KEY_BITS",
    "DEFAULT_LIMB_BITS",
    "TEST_KEY_BITS",
    "EncodedNumber",
    "Encoder",
    "EncryptedNumber",
    "ExponentWorkspace",
    "GradHessLayout",
    "GradientRangeError",
    "ObfuscatorPool",
    "OpStats",
    "PackedCipher",
    "PaillierContext",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "generate_keypair",
    "pack_capacity",
    "pack_ciphers",
    "reordered_sum",
    "unpack_values",
]
