"""Plaintext gradient histograms — the core GBDT data structure (§2.1).

A node's histogram accumulates, per ``(feature, bin)`` cell, the sums of
gradients and hessians (and instance counts) of the instances sitting
on that node.  Two classic optimizations are provided because every
trainer in this repository relies on them:

* vectorized construction via one flat ``bincount`` per statistic;
* the *histogram subtraction trick* — a sibling's histogram is the
  parent's minus the other child's (the paper lists this as a reason to
  process trees layer by layer, §7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gbdt.binning import BinnedDataset

__all__ = ["Histogram", "build_histogram"]


@dataclass
class Histogram:
    """Per-(feature, bin) gradient statistics for one tree node.

    Attributes:
        grad: ``(D, s)`` gradient sums.
        hess: ``(D, s)`` hessian sums.
        count: ``(D, s)`` instance counts.
    """

    grad: np.ndarray
    hess: np.ndarray
    count: np.ndarray

    def __post_init__(self) -> None:
        if not (self.grad.shape == self.hess.shape == self.count.shape):
            raise ValueError("grad, hess and count must share a shape")

    @property
    def n_features(self) -> int:
        """Number of features summarized."""
        return int(self.grad.shape[0])

    @property
    def n_bins(self) -> int:
        """Bin budget per feature."""
        return int(self.grad.shape[1])

    @property
    def total_grad(self) -> float:
        """Sum of gradients over the node (same for every feature row)."""
        return float(self.grad[0].sum()) if self.n_features else 0.0

    @property
    def total_hess(self) -> float:
        """Sum of hessians over the node."""
        return float(self.hess[0].sum()) if self.n_features else 0.0

    @property
    def total_count(self) -> int:
        """Number of instances on the node."""
        return int(self.count[0].sum()) if self.n_features else 0

    def _check_shape(self, other: "Histogram", op: str) -> None:
        if self.grad.shape != other.grad.shape:
            raise ValueError(
                f"cannot {op} histograms of different shapes: "
                f"{self.grad.shape} vs {other.grad.shape} — operands "
                "must cover the same (feature, bin) grid (broadcasting "
                "here would silently corrupt split statistics)"
            )

    def subtract(self, child: "Histogram") -> "Histogram":
        """Histogram subtraction: ``self - child`` gives the sibling."""
        self._check_shape(child, "subtract")
        return Histogram(
            self.grad - child.grad,
            self.hess - child.hess,
            self.count - child.count,
        )

    def copy(self) -> "Histogram":
        """Deep copy."""
        return Histogram(self.grad.copy(), self.hess.copy(), self.count.copy())

    @classmethod
    def zeros(cls, n_features: int, n_bins: int) -> "Histogram":
        """An empty histogram."""
        shape = (n_features, n_bins)
        return cls(
            np.zeros(shape, dtype=np.float64),
            np.zeros(shape, dtype=np.float64),
            np.zeros(shape, dtype=np.int64),
        )


def build_histogram(
    dataset: BinnedDataset,
    instance_indices: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
) -> Histogram:
    """Accumulate the histogram of a node over its instances.

    Uses a single flattened ``bincount`` per statistic: each matrix cell
    ``(i, j)`` contributes to flat cell ``j * s + code[i, j]``.

    Args:
        dataset: binned features (full matrix, all workers' rows).
        instance_indices: rows sitting on the target node.
        gradients / hessians: full-length statistic vectors indexed by row.
    """
    indices = np.asarray(instance_indices, dtype=np.int64)
    s = dataset.n_bins
    d = dataset.n_features
    if indices.size == 0:
        return Histogram.zeros(d, s)
    codes = dataset.codes[indices, :].astype(np.int64)
    flat = codes + np.arange(d, dtype=np.int64)[None, :] * s
    flat = flat.ravel()
    g = np.broadcast_to(gradients[indices][:, None], (indices.size, d)).ravel()
    h = np.broadcast_to(hessians[indices][:, None], (indices.size, d)).ravel()
    length = d * s
    grad = np.bincount(flat, weights=g, minlength=length)[:length].reshape(d, s)
    hess = np.bincount(flat, weights=h, minlength=length)[:length].reshape(d, s)
    count = np.bincount(flat, minlength=length)[:length].reshape(d, s)
    return Histogram(grad, hess, count.astype(np.int64))
