"""Dataset binning: raw feature matrices -> small integer bin codes.

All trainers (plaintext and federated) operate on a
:class:`BinnedDataset`: an ``N x D`` matrix of ``uint16`` bin codes plus
the per-feature cut points needed to translate a chosen histogram bin
back into a real-valued split threshold.

Sparse inputs (``scipy.sparse``) are densified *after* binning into the
compact code matrix; at the dataset sizes this reproduction runs
(documented in EXPERIMENTS.md) that is the memory-optimal layout.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.gbdt.quantile import propose_cut_points

if TYPE_CHECKING:
    from scipy import sparse as sp

__all__ = ["BinnedDataset", "bin_dataset", "bin_column"]


def bin_column(values: np.ndarray, cut_points: np.ndarray) -> np.ndarray:
    """Map raw values of one feature to bin codes.

    Bin ``k`` holds values in ``(cut[k-1], cut[k]]`` with the
    conventional open top bin, i.e. ``code = searchsorted(cuts, v,
    side="left")`` on ascending cuts.
    """
    return np.searchsorted(cut_points, values, side="left").astype(np.uint16)


@dataclass
class BinnedDataset:
    """A feature matrix quantized to per-feature histogram bins.

    Attributes:
        codes: ``(N, D)`` uint16 matrix of bin indices.
        cut_points: list of ``D`` ascending arrays; feature ``j`` has
            ``len(cut_points[j]) + 1`` occupied bins.
        n_bins: nominal bin budget ``s`` used at construction.
        feature_names: optional column names.
    """

    codes: np.ndarray
    cut_points: list[np.ndarray]
    n_bins: int
    feature_names: list[str] | None = None

    def __post_init__(self) -> None:
        if self.codes.ndim != 2:
            raise ValueError("codes must be 2-D")
        if self.codes.shape[1] != len(self.cut_points):
            raise ValueError("cut_points must have one entry per feature")

    @property
    def n_instances(self) -> int:
        """Number of rows ``N``."""
        return int(self.codes.shape[0])

    @property
    def n_features(self) -> int:
        """Number of columns ``D``."""
        return int(self.codes.shape[1])

    def bins_for_feature(self, feature: int) -> int:
        """Number of occupied bins for a feature."""
        return len(self.cut_points[feature]) + 1

    def threshold_for(self, feature: int, bin_index: int) -> float:
        """Real-valued split threshold for "go left if code <= bin_index".

        Returns the upper cut of the bin, or ``+inf`` for the top bin
        (which never forms a valid split).
        """
        cuts = self.cut_points[feature]
        if bin_index < len(cuts):
            return float(cuts[bin_index])
        return float("inf")

    def subset_features(self, feature_indices: np.ndarray) -> "BinnedDataset":
        """Vertical slice: the view a single party holds of the data."""
        feature_indices = np.asarray(feature_indices, dtype=np.int64)
        names = None
        if self.feature_names is not None:
            names = [self.feature_names[j] for j in feature_indices]
        return BinnedDataset(
            codes=self.codes[:, feature_indices],
            cut_points=[self.cut_points[j] for j in feature_indices],
            n_bins=self.n_bins,
            feature_names=names,
        )

    def subset_instances(self, row_indices: np.ndarray) -> "BinnedDataset":
        """Horizontal slice: the shard a single worker holds."""
        return BinnedDataset(
            codes=self.codes[np.asarray(row_indices, dtype=np.int64), :],
            cut_points=self.cut_points,
            n_bins=self.n_bins,
            feature_names=self.feature_names,
        )

    def nnz_per_row(self) -> float:
        """Average count of non-zero-bin codes per row (``d`` in the paper).

        Here "non-zero" means "not in the bin that holds raw value 0",
        approximating the sparse-feature work per instance.
        """
        zero_codes = np.array(
            [bin_column(np.zeros(1), cuts)[0] for cuts in self.cut_points],
            dtype=np.uint16,
        )
        nonzero = self.codes != zero_codes[None, :]
        return float(nonzero.sum() / max(1, self.n_instances))


def bin_dataset(
    features,
    n_bins: int,
    feature_names: list[str] | None = None,
) -> BinnedDataset:
    """Quantize a dense or sparse feature matrix.

    Args:
        features: ``(N, D)`` ``numpy.ndarray`` or ``scipy.sparse`` matrix.
        n_bins: histogram bin budget ``s`` per feature.
        feature_names: optional column names carried through.
    """
    # Every trainer imports this module, so it never imports scipy for
    # a dense run: a value can only be a scipy matrix if scipy.sparse
    # is already loaded.
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(features):
        return _bin_sparse(features.tocsc(), n_bins, feature_names)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be 2-D")
    n, d = features.shape
    codes = np.empty((n, d), dtype=np.uint16)
    cut_points = []
    for j in range(d):
        cuts = propose_cut_points(features[:, j], n_bins)
        cut_points.append(cuts)
        codes[:, j] = bin_column(features[:, j], cuts)
    return BinnedDataset(codes, cut_points, n_bins, feature_names)


def _bin_sparse(
    features: sp.csc_matrix, n_bins: int, feature_names: list[str] | None
) -> BinnedDataset:
    """Bin a CSC matrix column by column, treating implicit zeros as 0.0."""
    n, d = features.shape
    codes = np.empty((n, d), dtype=np.uint16)
    cut_points = []
    for j in range(d):
        start, end = features.indptr[j], features.indptr[j + 1]
        rows = features.indices[start:end]
        data = features.data[start:end]
        # Quantiles must reflect the full column including implicit zeros.
        column = np.zeros(n, dtype=np.float64)
        column[rows] = data
        cuts = propose_cut_points(column, n_bins)
        cut_points.append(cuts)
        zero_code = bin_column(np.zeros(1), cuts)[0]
        codes[:, j] = zero_code
        if rows.size:
            codes[rows, j] = bin_column(data, cuts)
    return BinnedDataset(codes, cut_points, n_bins, feature_names)
