"""Synthetic dataset generation.

The paper's ablation datasets are generated "following Section 5.2 of
[28]" (Fu et al., *An Experimental Evaluation of Large Scale GBDT
Systems*): sparse feature matrices with a controllable density, a
ground-truth linear-plus-interaction scoring function over a random
subset of *informative* features, and binary labels from the sign of
the noisy score.  We reproduce that recipe as a dense array whose
zeroed cells give the density, with explicit knobs for instance count,
dimensionality, density, and how informative signal is distributed
between the two parties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SyntheticSpec", "generate_classification"]

#: pairwise feature interactions in the latent score (they give trees
#: an edge over linear models)
_INTERACTION_PAIRS = 4


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic binary-classification dataset.

    Attributes:
        n_instances: row count ``N``.
        n_features: column count ``D``.
        density: fraction of non-zero cells (1.0 = dense).
        n_informative: number of columns carrying label signal.
        noise: label noise scale added to the latent score.
        seed: RNG seed.
    """

    n_instances: int
    n_features: int
    density: float = 1.0
    n_informative: int | None = None
    noise: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_instances < 1 or self.n_features < 1:
            raise ValueError("n_instances and n_features must be positive")
        if not 0 < self.density <= 1:
            raise ValueError("density must be in (0, 1]")

    @property
    def informative(self) -> int:
        """Resolved number of informative columns."""
        if self.n_informative is None:
            return max(1, self.n_features // 2)
        return min(self.n_informative, self.n_features)


def generate_classification(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Dense synthetic binary classification data.

    Returns:
        ``(features, labels)`` with labels in ``{0.0, 1.0}``.
    """
    rng = np.random.default_rng(spec.seed)
    features = rng.normal(size=(spec.n_instances, spec.n_features))
    if spec.density < 1.0:
        # Power-law column popularity, like term frequencies in text
        # corpora (rcv1-style): a few columns are dense, most are rare.
        # Uniform sparsity would leave every informative column nearly
        # always zero and the labels unlearnable at realistic densities.
        # The informative columns take the top popularity ranks — label
        # signal rides the *frequent* terms, as it does in real corpora.
        informative = _informative_columns(spec)
        ranks = np.empty(spec.n_features, dtype=np.float64)
        others = np.setdiff1d(np.arange(spec.n_features), informative)
        ranks[informative] = rng.permutation(informative.size)
        ranks[others] = informative.size + rng.permutation(others.size)
        raw = (1.0 + ranks) ** -0.7
        keep = np.clip(raw * spec.density * spec.n_features / raw.sum(), 0.0, 1.0)
        mask = rng.random(features.shape) < keep[None, :]
        features = features * mask
    labels = _labels_from_features(features, spec, rng)
    return features, labels


def _informative_columns(spec: SyntheticSpec) -> np.ndarray:
    """Deterministic informative column choice, spread across parties.

    Columns are taken evenly across the index range so that any
    contiguous vertical split leaves both parties with signal — the
    precondition for the paper's "federated beats Party-B-only" result.
    """
    return np.linspace(0, spec.n_features - 1, spec.informative).astype(np.int64)


def _labels_from_features(
    features: np.ndarray, spec: SyntheticSpec, rng: np.random.Generator
) -> np.ndarray:
    signal = features[:, _informative_columns(spec)]
    k = signal.shape[1]
    weights = rng.normal(size=k)
    score = signal @ weights
    for _ in range(_INTERACTION_PAIRS):
        a, b = rng.integers(0, k, size=2)
        score = score + signal[:, a] * signal[:, b]
    # Standardize before adding noise so the signal-to-noise ratio is
    # density-independent: sparse analogs (rcv1-like) would otherwise
    # drown their dilute per-row signal in the label noise.
    std = float(np.std(score))
    if std > 0:
        score = (score - float(np.mean(score))) / std
    score = score + rng.normal(scale=spec.noise, size=score.shape[0])
    return (score > np.median(score)).astype(np.float64)
