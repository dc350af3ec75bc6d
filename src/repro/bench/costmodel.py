"""Unit-cost models for protocol pricing (§5 "Cost model").

The paper reasons about protocols through per-operation unit costs
``T_ENC``, ``T_DEC``, ``T_HADD``, ``T_SMUL`` and ``T_COMM``.  We carry
the same constants plus the plaintext-side costs needed for the
XGBoost baselines, in two flavors:

* :meth:`CostModel.from_profile` — this host's unit costs, as one timed
  pass of this repository's real Paillier implementation measured them
  (:func:`repro.bench.calibrate.calibrate`);
* :meth:`CostModel.paper` — constants calibrated once against the
  paper's §6.1 environment (2048-bit keys, C library, 16-core
  machines).  Only the *baseline* column of Table 1 informed the
  calibration; every optimized column is a prediction of the scheduler.

Derived baselines (:meth:`fate_like`, :meth:`fedlearner_like`) model
the competitors' measured slowdowns as multipliers, as DESIGN.md §1
documents; :meth:`CostModel.mocked` is VF-MOCK's price list.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

__all__ = ["PLAIN_BYTES", "UNIT_COST_FIELDS", "CostModel"]

#: wire size of one plaintext statistic (a float64): what a cipher
#: costs on VF-MOCK's wire
PLAIN_BYTES = 8


@dataclass(frozen=True)
class CostModel:
    """Single-thread unit costs in seconds (plus wire sizes in bytes).

    Attributes:
        t_enc: one Paillier encryption (message mult + obfuscation).
        t_dec: one two-prime CRT decryption, the route every pack
            takes.  An unpacked bin whose bound fits below ``p / 2``
            decrypts at one prime in about half of it (DESIGN §4.14);
            the model still prices every Dec at ``t_dec``.
        t_hadd: one homomorphic addition (same exponents).
        t_scale: one cipher scaling (SMul by ``B**diff``).
        t_smul: one scalar multiplication by an arbitrary scalar.
        t_smul_small: SMul by a small scalar such as ``2**M`` (packing).
        t_plain_accum: one plaintext histogram accumulation.
        t_split_bin: split-gain evaluation of one histogram bin.
        cipher_bytes: wire size of one cipher (``2S/8``).
        compute_multiplier: language/runtime overhead multiplier applied
            to every compute cost (1.0 = the paper's C library; >1
            models Pythonic competitor implementations).
    """

    t_enc: float
    t_dec: float
    t_hadd: float
    t_scale: float
    t_smul: float
    t_smul_small: float
    t_plain_accum: float
    t_split_bin: float
    cipher_bytes: int
    compute_multiplier: float = 1.0

    def scaled(self, multiplier: float) -> "CostModel":
        """Copy with an extra compute multiplier (competitor modeling)."""
        return replace(
            self, compute_multiplier=self.compute_multiplier * multiplier
        )

    def mocked(self) -> "CostModel":
        """VF-MOCK's price list: the same protocol with mocked cryptography (§6.3).

        Enc, Dec and every cipher power (scaling, SMul) are free, an
        HAdd costs one plaintext accumulation and a cipher travels as
        one plaintext statistic (:data:`PLAIN_BYTES`).
        """
        free = dict.fromkeys(("t_enc", "t_dec", "t_scale", "t_smul", "t_smul_small"), 0.0)
        plain = {"t_hadd": self.t_plain_accum, "cipher_bytes": PLAIN_BYTES}
        return replace(self, **free, **plain)

    # Effective (multiplier-applied) accessors -------------------------
    def enc(self) -> float:
        """Effective encryption cost."""
        return self.t_enc * self.compute_multiplier

    def dec(self) -> float:
        """Effective decryption cost."""
        return self.t_dec * self.compute_multiplier

    def hadd(self) -> float:
        """Effective homomorphic addition cost."""
        return self.t_hadd * self.compute_multiplier

    def scale(self) -> float:
        """Effective cipher scaling cost."""
        return self.t_scale * self.compute_multiplier

    def smul(self) -> float:
        """Effective arbitrary-scalar SMul cost."""
        return self.t_smul * self.compute_multiplier

    def smul_small(self) -> float:
        """Effective small-scalar SMul cost (packing radix)."""
        return self.t_smul_small * self.compute_multiplier

    def plain_accum(self) -> float:
        """Effective plaintext accumulation cost."""
        return self.t_plain_accum * self.compute_multiplier

    def split_bin(self) -> float:
        """Effective per-bin split evaluation cost."""
        return self.t_split_bin * self.compute_multiplier

    def naive_add(self, n_exponents: int) -> float:
        """Expected per-addend cost of *naive* accumulation.

        With ``E`` uniformly distributed exponents, a random-order
        accumulation scales on an ``(E-1)/E`` fraction of additions
        (§5.1's ``O(N (E-1)/E)`` scaling complexity).
        """
        if n_exponents <= 1:
            return self.hadd()
        probability = (n_exponents - 1) / n_exponents
        return self.hadd() + probability * self.scale()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "CostModel":
        """§6.1 environment constants (2048-bit keys, C library).

        Calibrated against the *baseline* (unoptimized) column of
        Table 1 at the paper's effective parallelism; see DESIGN.md §1.
        """
        return cls(
            t_enc=2.7e-3,
            t_dec=2.5e-3,
            t_hadd=8.0e-5,
            # The paper's library optimizes small-exponent scaling, so a
            # cipher scale costs less than a full SMul; the value below
            # reproduces Table 1's naive-vs-reordered gap (see
            # EXPERIMENTS.md for the calibration discussion).
            t_scale=3.3e-5,
            t_smul=2.0e-3,
            t_smul_small=8.0e-5,
            t_plain_accum=6.0e-7,
            t_split_bin=1.5e-7,
            cipher_bytes=2048 // 4,
        )

    @classmethod
    def fate_like(cls) -> "CostModel":
        """FATE SecureBoost competitor model.

        The paper measures VF-GBDT 12.11-12.85x faster than SecureBoost
        on single-machine datasets and attributes the gap to the
        Pythonic implementation; we model it as a uniform compute
        multiplier on the paper-environment costs.
        """
        return cls.paper().scaled(12.5)

    @classmethod
    def fedlearner_like(cls) -> "CostModel":
        """Fedlearner competitor model (vectorized but single-process).

        Measured 8.61-9.20x slower than VF-GBDT (§6.3).
        """
        return cls.paper().scaled(8.9)

    @classmethod
    def from_profile(cls, profile) -> "CostModel":
        """Build a model from a saved :class:`CalibrationProfile`.

        ``profile`` is duck-typed: anything with a ``unit_costs`` dict
        keyed by :data:`UNIT_COST_FIELDS` and a ``cipher_bytes``
        attribute (see :class:`repro.bench.calibrate.CalibrationProfile`).
        """
        return cls(
            **{name: float(profile.unit_costs[name]) for name in UNIT_COST_FIELDS},
            cipher_bytes=int(profile.cipher_bytes),
        )


#: the unit costs a calibration profile freezes (seconds per operation)
UNIT_COST_FIELDS = tuple(f.name for f in fields(CostModel) if f.name.startswith("t_"))
