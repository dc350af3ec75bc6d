"""Candidate split proposal from column quantiles.

GBDT proposes ``s`` candidate splits per feature from the percentiles
of the feature column (§2.1 and [29, 33, 42] of the paper).
:func:`propose_cut_points` takes exact quantiles of a whole column,
deduplicated; :func:`repro.gbdt.binning.bin_dataset` cuts every feature
with it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["propose_cut_points"]


def propose_cut_points(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Return at most ``n_bins - 1`` ascending cut points for one feature.

    Bin ``k`` receives values in ``(cut[k-1], cut[k]]``; the last bin is
    unbounded above. Constant columns yield an empty cut array (a
    single bin, never splittable).

    Args:
        values: 1-D array of raw feature values (may contain zeros for
            sparse features; zeros participate like any value).
        n_bins: target number of bins ``s``.
    """
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return np.empty(0, dtype=np.float64)
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    cuts = np.unique(np.quantile(finite, quantiles))
    # Drop cut points >= max so that the top bin is never empty.
    maximum = finite.max()
    cuts = cuts[cuts < maximum]
    return cuts.astype(np.float64)

