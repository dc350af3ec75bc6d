"""Decision tree model structure shared by all trainers.

Trees are grown layer by layer (the paper's choice, §7) and stored as a
flat node table indexed by heap position: node ``k`` has children
``2k+1`` and ``2k+2``.  Every internal node records which *party* owns
its split — in a federated model the non-owner party only ever sees an
opaque (owner, node) reference, so prediction on vertically partitioned
data must be federated too.

Prediction is one layer-wise walk (:meth:`DecisionTree.walk`): rows
descend a layer at a time, and a *router* answers each layer's split
nodes with a left/right bitmap.  Who answers is the caller's protocol —
every party's codes held locally (:meth:`DecisionTree.predict_federated`,
co-located and single-party prediction), or B's own nodes locally and
each owner's nodes by a routing query (:mod:`repro.core.inference`).
The frontier helpers below are also the serving runtime's, which steps
the same traversal event by event (:mod:`repro.serve.session`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "TreeNode",
    "DecisionTree",
    "FrontierSplit",
    "split_frontier",
    "route_local",
    "apply_route",
    "partition_instances",
]

#: one layer of a walk: split nodes ``{node_id: rows}`` (ascending node
#: id) in, ``{node_id: goes_left}`` out
Router = Callable[[dict[int, np.ndarray]], dict[int, np.ndarray]]


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

    def walk(self, n_rows: int, route: Router) -> np.ndarray:
        """Each row's leaf weight, by a layer-wise traversal.

        Rows ``0..n_rows-1`` start at the root; each layer, ``route``
        answers the split nodes rows sit on and the rows move to the
        children, until every row is at a leaf.
        """
        out = np.zeros(n_rows, dtype=np.float64)
        frontier: dict[int, np.ndarray] = {0: np.arange(n_rows, dtype=np.int64)}
        while frontier:
            split: dict[int, np.ndarray] = {}
            for node_id in sorted(frontier):
                node = self.nodes[node_id]
                if node.is_leaf:
                    out[frontier[node_id]] = node.weight
                else:
                    split[node_id] = frontier[node_id]
            frontier = {}
            for node_id, goes_left in route(split).items():
                apply_route(self, node_id, split[node_id], goes_left, frontier)
        return out

    def route_codes(
        self, party_codes: dict[int, np.ndarray], nodes: dict[int, np.ndarray]
    ) -> dict[int, np.ndarray]:
        """A router's answer from codes held locally: each node by its
        owner's matrix in ``party_codes``."""
        return {
            node_id: route_local(
                party_codes[self.nodes[node_id].owner], self.nodes[node_id], rows
            )
            for node_id, rows in nodes.items()
        }

    def predict_federated(self, party_codes: dict[int, np.ndarray]) -> np.ndarray:
        """Leaf weights over vertically partitioned bin codes.

        Args:
            party_codes: ``{owner_id: codes}`` where each codes matrix is
                indexed by the owner-local feature ids stored in nodes;
                ``{0: codes}`` for a single-party tree.
        """
        n = next(iter(party_codes.values())).shape[0]
        return self.walk(n, lambda nodes: self.route_codes(party_codes, nodes))


@dataclass
class FrontierSplit:
    """One tree layer's frontier, partitioned by who can act on it.

    Attributes:
        leaves: ``node_id -> rows`` for nodes that finished traversal.
        local: ``node_id -> rows`` for split nodes the caller owns.
        remote: ``owner -> {node_id -> rows}`` for split nodes that need
            a cross-party routing query.
    """

    leaves: dict[int, np.ndarray] = field(default_factory=dict)
    local: dict[int, np.ndarray] = field(default_factory=dict)
    remote: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)


def split_frontier(
    tree: DecisionTree, frontier: dict[int, np.ndarray], local_party: int
) -> FrontierSplit:
    """Partition a frontier into leaves, locally ownable and remote work.

    Nodes are visited in ascending node id so the grouping (and every
    message built from it) is deterministic.
    """
    result = FrontierSplit()
    for node_id in sorted(frontier):
        rows = frontier[node_id]
        node = tree.nodes[node_id]
        if node.is_leaf:
            result.leaves[node_id] = rows
        elif node.owner == local_party:
            result.local[node_id] = rows
        else:
            result.remote.setdefault(node.owner, {})[node_id] = rows
    return result


def route_local(codes: np.ndarray, node: TreeNode, rows: np.ndarray) -> np.ndarray:
    """Left/right bitmap for one owned node from the owner's bin codes."""
    return codes[rows, node.feature] <= node.bin_index


def apply_route(
    tree: DecisionTree,
    node_id: int,
    rows: np.ndarray,
    goes_left: np.ndarray,
    next_frontier: dict[int, np.ndarray],
) -> None:
    """Push a routed node's instances down to its children.

    Children already present in ``next_frontier`` (e.g. filled by a
    sibling batch of the serving runtime) accumulate rows in arrival
    order — callers that need a canonical order sort per node id, which
    :func:`split_frontier` does on the next layer step.
    """
    node = tree.nodes[node_id]
    for child, child_rows in (
        (node.left_child, rows[goes_left]),
        (node.right_child, rows[~goes_left]),
    ):
        if child_rows.size and child in next_frontier:
            next_frontier[child] = np.concatenate([next_frontier[child], child_rows])
        elif child_rows.size:
            next_frontier[child] = child_rows


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
