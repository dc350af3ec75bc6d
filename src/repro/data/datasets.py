"""Named dataset registry mirroring Table 3 of the paper.

The paper evaluates on five public datasets, one synthetic dataset and
one industrial dataset.  Offline, we regenerate each as a synthetic
analog that preserves the properties that drive the system's cost —
instance count, feature count, the A/B feature split, and density —
at a documented scale factor so the counted-mode benchmarks finish on
one laptop core (EXPERIMENTS.md records every factor).

Shapes from Table 3:

====================  ==========  ================  =======
dataset               #instances  #features (A/B)   density
====================  ==========  ================  =======
census                22K         78 / 70           8.78%
a9a                   32K         73 / 50           11.28%
susy                  5M          9 / 9             100%
epsilon               400K        1K / 1K           100%
rcv1                  697K        23K / 23K         0.15%
synthesis             10M         25K / 25K         0.20%
industry              55M         50K / 50K         0.03%
====================  ==========  ================  =======
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import SyntheticSpec, generate_classification

__all__ = ["DatasetInfo", "LoadedDataset", "DATASETS", "load_dataset", "dataset_info"]


@dataclass(frozen=True)
class DatasetInfo:
    """Paper-scale description of one evaluation dataset (Table 3)."""

    name: str
    n_instances: int
    features_a: int
    features_b: int
    density: float
    #: default scale-down factor applied by :func:`load_dataset`
    default_scale: float

    @property
    def n_features(self) -> int:
        """Total feature count across both parties."""
        return self.features_a + self.features_b

    @property
    def nnz_per_instance(self) -> float:
        """Average non-zeros per row (``d`` in the paper's notation)."""
        return self.density * self.n_features

    def scaled(self, scale: float) -> tuple[int, int, int]:
        """``(n_instances, features_a, features_b)`` at a scale factor.

        Feature counts shrink with ``sqrt(scale)`` so that the work per
        instance (``d``) and the histogram size shrink gently together.
        """
        if not 0 < scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        n = max(64, int(self.n_instances * scale))
        feature_scale = scale**0.5
        fa = max(2, int(self.features_a * feature_scale))
        fb = max(2, int(self.features_b * feature_scale))
        return n, fa, fb


DATASETS: dict[str, DatasetInfo] = {
    "census": DatasetInfo("census", 22_000, 78, 70, 0.0878, 0.25),
    "a9a": DatasetInfo("a9a", 32_000, 73, 50, 0.1128, 0.25),
    "susy": DatasetInfo("susy", 5_000_000, 9, 9, 1.0, 0.002),
    "epsilon": DatasetInfo("epsilon", 400_000, 1_000, 1_000, 1.0, 0.01),
    "rcv1": DatasetInfo("rcv1", 697_000, 23_000, 23_000, 0.0015, 0.004),
    "synthesis": DatasetInfo("synthesis", 10_000_000, 25_000, 25_000, 0.002, 0.0004),
    "industry": DatasetInfo("industry", 55_000_000, 50_000, 50_000, 0.0003, 0.0001),
}


@dataclass
class LoadedDataset:
    """A realized (possibly downscaled) dataset split into train/valid."""

    info: DatasetInfo
    scale: float
    train_features: np.ndarray
    train_labels: np.ndarray
    valid_features: np.ndarray
    valid_labels: np.ndarray
    features_a: int
    features_b: int

    @property
    def n_train(self) -> int:
        """Training rows."""
        return int(self.train_features.shape[0])

    @property
    def n_features(self) -> int:
        """Total columns."""
        return int(self.train_features.shape[1])

    def party_feature_slices(self) -> tuple[slice, slice]:
        """Column slices of (Party A, Party B); B holds the tail columns."""
        return slice(0, self.features_a), slice(self.features_a, self.n_features)


def dataset_info(name: str) -> DatasetInfo:
    """Look up paper-scale metadata for a dataset name."""
    try:
        return DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}") from None


def load_dataset(
    name: str,
    scale: float | None = None,
    seed: int = 0,
) -> LoadedDataset:
    """Generate the synthetic analog of a named dataset.

    Args:
        name: one of the Table 3 dataset names.
        scale: scale factor in ``(0, 1]``; default per-dataset factor
            keeps counted-mode runs laptop-sized.
        seed: RNG seed.
    """
    info = dataset_info(name)
    scale = info.default_scale if scale is None else scale
    n, fa, fb = info.scaled(scale)
    spec = SyntheticSpec(
        n_instances=n,
        n_features=fa + fb,
        density=max(info.density, min(1.0, 8.0 / (fa + fb))),
        # Concentrate the signal: high-dimensional analogs with diffuse
        # informative sets are unlearnable within the paper's 20-tree
        # budget, which would break every AUC ordering downstream.
        n_informative=max(2, min(48, (fa + fb) // 3)),
        seed=seed,
    )
    features, labels = generate_classification(spec)
    n_valid = max(1, int(n * 0.2))  # held out: 20%, as in the paper
    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(n)
    valid_rows, train_rows = order[:n_valid], order[n_valid:]
    return LoadedDataset(
        info=info,
        scale=scale,
        train_features=features[train_rows],
        train_labels=labels[train_rows],
        valid_features=features[valid_rows],
        valid_labels=labels[valid_rows],
        features_a=fa,
        features_b=fb,
    )
