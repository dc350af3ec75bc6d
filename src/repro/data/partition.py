"""Vertical (by-feature) data partitioning.

Vertical FL gives each party a disjoint set of *columns* over the same
instance set (Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["VerticalPartition", "split_features"]


@dataclass(frozen=True)
class VerticalPartition:
    """Assignment of global feature columns to parties.

    Attributes:
        party_columns: tuple of index arrays; entry ``p`` lists the
            global column ids owned by party ``p``. By repository
            convention party 0 is Party B (the label holder) and
            parties ``1..`` are Party A's.
    """

    party_columns: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for columns in self.party_columns:
            overlap = seen.intersection(columns.tolist())
            if overlap:
                raise ValueError(f"columns {sorted(overlap)} assigned twice")
            seen.update(columns.tolist())

    @property
    def n_parties(self) -> int:
        """Number of participating parties."""
        return len(self.party_columns)

    @property
    def n_features(self) -> int:
        """Total number of columns across parties."""
        return sum(len(columns) for columns in self.party_columns)

    def columns_of(self, party: int) -> np.ndarray:
        """Global column ids owned by one party."""
        return self.party_columns[party]


def split_features(
    n_features: int,
    features_per_party: list[int],
    shuffle: bool = False,
    seed: int = 0,
) -> VerticalPartition:
    """Partition column ids into per-party blocks.

    Args:
        n_features: total column count; must equal the sum of
            ``features_per_party``.
        features_per_party: sizes, party 0 (Party B) first.
        shuffle: randomize column assignment instead of contiguous blocks
            (used by the multi-party experiment, §6.4: "randomly divide
            the features into subsets on average").
        seed: RNG seed for shuffling.
    """
    if sum(features_per_party) != n_features:
        raise ValueError("features_per_party must sum to n_features")
    if any(count < 0 for count in features_per_party):
        raise ValueError("feature counts must be non-negative")
    columns = np.arange(n_features, dtype=np.int64)
    if shuffle:
        columns = np.random.default_rng(seed).permutation(columns)
    blocks: list[np.ndarray] = []
    offset = 0
    for count in features_per_party:
        blocks.append(np.sort(columns[offset : offset + count]))
        offset += count
    return VerticalPartition(tuple(blocks))

