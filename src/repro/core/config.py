"""Configuration of the VF²Boost system.

:class:`VF2BoostConfig` wires together the GBDT hyper-parameters with
the four optimizations of §4/§5 (each independently toggleable — the
ablation axes of Tables 1-2) plus cryptosystem and batching knobs.

Preset constructors mirror the paper's named systems:

* :meth:`VF2BoostConfig.vf2boost`  — everything on (the contribution);
* :meth:`VF2BoostConfig.vf_gbdt`   — everything off (the self-developed
  unoptimized baseline);
* :meth:`VF2BoostConfig.vf_mock`   — VF-GBDT with mocked (plaintext)
  cryptography.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.crypto.packing import GradHessLayout
from repro.gbdt.loss import get_loss
from repro.gbdt.params import GBDTParams

__all__ = ["VF2BoostConfig"]


@dataclass
class VF2BoostConfig:
    """Full configuration of a federated training run.

    Attributes:
        params: GBDT hyper-parameters (trees, layers, bins, ...).
        blaster_encryption: pipeline gradient encryption/transfer/
            accumulation in batches (§4.1).
        reordered_accumulation: per-exponent workspaces during histogram
            construction (§5.1).
        optimistic_split: Party B splits ahead and validates later, with
            roll-back-and-re-do of dirty nodes (§4.2).
        histogram_packing: pack histogram bins t-per-cipher before the
            A->B transfer (§5.2).  The packed path encrypts one cipher
            per instance holding ``(g, h)`` in two limbs at a fixed
            exponent (:class:`~repro.crypto.packing.GradHessLayout`),
            so its bins never need aligning; ``exponent_jitter`` and
            ``reordered_accumulation`` act only when this is off.
        key_bits: Paillier modulus size ``S`` (paper: 2048; tests use
            small keys — algebraically identical).
        exponent_jitter: width ``E`` of the encoding exponent window
            (paper observes 4-8 distinct exponents).
        blaster_batch_size: instances per blaster batch.
        incremental_dirty_redo: the paper's §8 future-work item —
            when a dirty node is re-done, move only the instances whose
            placement actually changed (one cipher removal plus one
            insertion each) instead of rebuilding the children's
            histograms from scratch. Pays off when the measured
            misplaced fraction is below ~1/2.
        crypto_mode: ``"real"`` executes every Paillier operation;
            ``"counted"`` runs the protocol on plaintext statistics while
            recording the exact operation counts the real run would
            perform (the protocol is lossless, so models are identical);
            ``"mock"`` is counted-mode with plaintext cost accounting
            (the paper's VF-MOCK).
        seed: RNG seed for keygen/jitter.
    """

    params: GBDTParams = field(default_factory=GBDTParams)
    blaster_encryption: bool = True
    reordered_accumulation: bool = True
    optimistic_split: bool = True
    histogram_packing: bool = True
    incremental_dirty_redo: bool = False
    key_bits: int = 2048
    exponent_jitter: int = 6
    blaster_batch_size: int = 10_000
    crypto_mode: str = "counted"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.crypto_mode not in ("real", "counted", "mock"):
            raise ValueError(f"unknown crypto_mode {self.crypto_mode!r}")
        if self.key_bits < 64:
            raise ValueError("key_bits must be >= 64")
        if self.exponent_jitter < 1:
            raise ValueError("exponent_jitter must be >= 1")
        if self.blaster_batch_size < 1:
            raise ValueError("blaster_batch_size must be >= 1")

    # ------------------------------------------------------------------
    # Presets (the named systems of §6)
    # ------------------------------------------------------------------
    @classmethod
    def vf2boost(cls, **overrides) -> "VF2BoostConfig":
        """The full VF²Boost system: all four optimizations enabled."""
        return cls(**overrides)

    @classmethod
    def vf_gbdt(cls, **overrides) -> "VF2BoostConfig":
        """VF-GBDT: the unoptimized self-developed baseline (§6.3)."""
        overrides.setdefault("blaster_encryption", False)
        overrides.setdefault("reordered_accumulation", False)
        overrides.setdefault("optimistic_split", False)
        overrides.setdefault("histogram_packing", False)
        return cls(**overrides)

    @classmethod
    def vf_mock(cls, **overrides) -> "VF2BoostConfig":
        """VF-MOCK: VF-GBDT with mocked cryptography (plaintext)."""
        overrides.setdefault("crypto_mode", "mock")
        return cls.vf_gbdt(**overrides)

    def replace(self, **overrides) -> "VF2BoostConfig":
        """Copy with overrides."""
        return replace(self, **overrides)

    def gradient_layout(self, n_instances: int) -> GradHessLayout | None:
        """Plaintext layout of the packed path for ``n_instances`` rows.

        ``None`` when ``histogram_packing`` is off.  The real trainer,
        counted mode and the protocol scheduler all size ciphers, packs
        and bytes from this one object.

        Raises:
            ValueError: when the key cannot hold even one packed bin.
        """
        if not self.histogram_packing:
            return None
        loss = get_loss(self.params.objective)
        return GradHessLayout(
            key_bits=self.key_bits,
            max_count=n_instances,
            grad_bound=loss.gradient_bound,
            hess_bound=loss.hessian_bound,
        )

    @property
    def optimization_names(self) -> list[str]:
        """Human-readable list of enabled optimizations."""
        names = []
        if self.blaster_encryption:
            names.append("BlasterEnc")
        if self.reordered_accumulation:
            names.append("Re-ordered")
        if self.optimistic_split:
            names.append("OptimSplit")
        if self.histogram_packing:
            names.append("HistPack")
        return names
