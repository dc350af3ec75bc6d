"""From-scratch Paillier homomorphic cryptosystem with GBDT customizations.

Public surface:

* :func:`~repro.crypto.paillier.generate_keypair` /
  :class:`~repro.crypto.ciphertext.PaillierContext` — key management
  and encrypted arithmetic with fixed-point encoding, on the operands
  of a ``PaillierContext.resident()`` block.
* :mod:`repro.crypto.accumulation` — re-ordered histogram accumulation.
* :mod:`repro.crypto.packing` — polynomial-based cipher packing and
  the two-limb ``(g, h)`` plaintext layout of the packed protocol path.
* :mod:`repro.crypto.math_utils` — the ``powmod`` / ``invert``
  choke points for every power of an ``int`` (libcrypto, or built-in
  ``pow``), the arena (libcrypto's Montgomery BIGNUMs or ``int`` s)
  every block's ops run in, and the key holder's CRT route.
"""
