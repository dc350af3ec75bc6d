"""Decision tree model structure shared by all trainers.

Trees are grown layer by layer (the paper's choice, §7) and stored as a
flat node table indexed by heap position: node ``k`` has children
``2k+1`` and ``2k+2``.  Every internal node records which *party* owns
its split — in a federated model the non-owner party only ever sees an
opaque (owner, node) reference, so prediction on vertically partitioned
data must be federated too (:meth:`DecisionTree.predict_federated`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TreeNode", "DecisionTree", "partition_instances"]


@dataclass
class TreeNode:
    """One node of a decision tree.

    Attributes:
        node_id: heap index (root = 0).
        depth: distance from the root.
        is_leaf: whether the node carries a weight instead of a split.
        weight: leaf prediction (valid when ``is_leaf``).
        owner: party index owning the split (0 = Party B by convention).
        feature: *owner-local* feature index of the split.
        bin_index: instances with ``code <= bin_index`` go left.
        threshold: raw-value threshold (populated only on the owner's
            copy of the model; ``nan`` elsewhere).
        gain: split gain achieved.
    """

    node_id: int
    depth: int
    is_leaf: bool = True
    weight: float = 0.0
    owner: int = 0
    feature: int = -1
    bin_index: int = -1
    threshold: float = float("nan")
    gain: float = 0.0

    @property
    def left_child(self) -> int:
        """Heap index of the left child."""
        return 2 * self.node_id + 1

    @property
    def right_child(self) -> int:
        """Heap index of the right child."""
        return 2 * self.node_id + 2


@dataclass
class DecisionTree:
    """A single regression tree of the boosted ensemble."""

    nodes: dict[int, TreeNode] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if 0 not in self.nodes:
            self.nodes[0] = TreeNode(node_id=0, depth=0)

    @property
    def root(self) -> TreeNode:
        """The root node."""
        return self.nodes[0]

    def max_depth(self) -> int:
        """Depth of the deepest node."""
        return max(node.depth for node in self.nodes.values())

    def split_node(
        self,
        node_id: int,
        owner: int,
        feature: int,
        bin_index: int,
        threshold: float,
        gain: float,
    ) -> tuple[TreeNode, TreeNode]:
        """Turn a leaf into an internal node and materialize its children."""
        node = self.nodes[node_id]
        if not node.is_leaf:
            raise ValueError(f"node {node_id} is already split")
        node.is_leaf = False
        node.owner = owner
        node.feature = feature
        node.bin_index = bin_index
        node.threshold = threshold
        node.gain = gain
        left = TreeNode(node_id=node.left_child, depth=node.depth + 1)
        right = TreeNode(node_id=node.right_child, depth=node.depth + 1)
        self.nodes[left.node_id] = left
        self.nodes[right.node_id] = right
        return left, right

    def set_leaf_weight(self, node_id: int, weight: float) -> None:
        """Assign the optimal weight of a finished leaf."""
        node = self.nodes[node_id]
        if not node.is_leaf:
            raise ValueError(f"node {node_id} is not a leaf")
        node.weight = weight

    def predict_codes(self, codes: np.ndarray) -> np.ndarray:
        """Predict margins from a *single-party* bin-code matrix.

        Only valid for non-federated trees (all splits owned by one
        party whose codes are passed in).
        """
        n = codes.shape[0]
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            node = self.root
            while not node.is_leaf:
                if codes[i, node.feature] <= node.bin_index:
                    node = self.nodes[node.left_child]
                else:
                    node = self.nodes[node.right_child]
            out[i] = node.weight
        return out

    def predict_federated(self, party_codes: dict[int, np.ndarray]) -> np.ndarray:
        """Predict margins over vertically partitioned bin codes.

        Args:
            party_codes: ``{owner_id: codes}`` where each codes matrix is
                indexed by the owner-local feature ids stored in nodes.
        """
        n = next(iter(party_codes.values())).shape[0]
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            node = self.root
            while not node.is_leaf:
                codes = party_codes[node.owner]
                if codes[i, node.feature] <= node.bin_index:
                    node = self.nodes[node.left_child]
                else:
                    node = self.nodes[node.right_child]
            out[i] = node.weight
        return out


def partition_instances(
    codes_column: np.ndarray, instance_indices: np.ndarray, bin_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split a node's instances by one binned feature column.

    Args:
        codes_column: full-length bin-code column of the split feature.
        instance_indices: rows currently on the node.
        bin_index: go-left boundary (inclusive).

    Returns:
        ``(left_indices, right_indices)``.
    """
    indices = np.asarray(instance_indices, dtype=np.int64)
    mask = codes_column[indices] <= bin_index
    return indices[mask], indices[~mask]
