"""Tests for the tree structure, growth bookkeeping and prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gbdt.tree import DecisionTree, TreeNode, partition_instances


class TestTreeNode:
    def test_heap_children(self):
        node = TreeNode(node_id=3, depth=2)
        assert node.left_child == 7
        assert node.right_child == 8


class TestSplitAndLeaves:
    def test_split_creates_children(self):
        tree = DecisionTree()
        left, right = tree.split_node(0, owner=0, feature=2, bin_index=3,
                                      threshold=1.5, gain=0.7)
        assert not tree.root.is_leaf
        assert left.node_id == 1 and right.node_id == 2
        assert left.depth == right.depth == 1
        assert len(tree.nodes) == 3
        assert left.is_leaf and right.is_leaf

    def test_double_split_rejected(self):
        tree = DecisionTree()
        tree.split_node(0, 0, 0, 0, 0.0, 0.1)
        with pytest.raises(ValueError):
            tree.split_node(0, 0, 0, 0, 0.0, 0.1)

    def test_leaf_weight_assignment(self):
        tree = DecisionTree()
        tree.set_leaf_weight(0, 0.5)
        assert tree.root.weight == 0.5

    def test_leaf_weight_on_internal_rejected(self):
        tree = DecisionTree()
        tree.split_node(0, 0, 0, 0, 0.0, 0.1)
        with pytest.raises(ValueError):
            tree.set_leaf_weight(0, 1.0)


class TestPrediction:
    def _stump(self):
        tree = DecisionTree()
        tree.split_node(0, owner=0, feature=0, bin_index=2, threshold=0.0, gain=1.0)
        tree.set_leaf_weight(1, -1.0)
        tree.set_leaf_weight(2, 1.0)
        return tree

    def test_predict_codes(self):
        tree = self._stump()
        codes = np.array([[0], [2], [3], [5]], dtype=np.uint16)
        # A single-party tree: every split is owner 0's (the default).
        out = tree.predict_federated({0: codes})
        assert out.tolist() == [-1.0, -1.0, 1.0, 1.0]

    def test_predict_federated_routes_by_owner(self):
        tree = DecisionTree()
        tree.split_node(0, owner=1, feature=0, bin_index=1, threshold=0.0, gain=1.0)
        tree.set_leaf_weight(1, 10.0)
        tree.set_leaf_weight(2, 20.0)
        codes_a = np.array([[0], [3]], dtype=np.uint16)  # owner 1's feature
        codes_b = np.array([[9], [9]], dtype=np.uint16)  # irrelevant
        out = tree.predict_federated({0: codes_b, 1: codes_a})
        assert out.tolist() == [10.0, 20.0]

    def test_two_level_federated(self):
        tree = DecisionTree()
        tree.split_node(0, owner=0, feature=0, bin_index=0, threshold=0.0, gain=1.0)
        tree.split_node(2, owner=1, feature=0, bin_index=0, threshold=0.0, gain=0.5)
        tree.set_leaf_weight(1, 1.0)
        tree.set_leaf_weight(5, 2.0)
        tree.set_leaf_weight(6, 3.0)
        codes_b = np.array([[0], [1], [1]], dtype=np.uint16)
        codes_a = np.array([[0], [0], [1]], dtype=np.uint16)
        out = tree.predict_federated({0: codes_b, 1: codes_a})
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_max_depth(self):
        tree = self._stump()
        assert tree.max_depth() == 1


def _reference_leaf_weights(tree, party_codes):
    """Per-row reference: each row walks root to leaf on its own."""
    n = next(iter(party_codes.values())).shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        node = tree.root
        while not node.is_leaf:
            code = party_codes[node.owner][i, node.feature]
            child = node.left_child if code <= node.bin_index else node.right_child
            node = tree.nodes[child]
        out[i] = node.weight
    return out


@st.composite
def _trees_and_codes(draw):
    """A tree over 1-3 owners and depth <= 6, with codes to route.

    A split may send every row one way (``bin_index`` -1 or the top
    bin), leaving a subtree no row reaches; a tree may be one leaf.
    """
    n_owners = draw(st.integers(1, 3))
    n_bins = draw(st.integers(2, 6))
    widths = [draw(st.integers(1, 3)) for _ in range(n_owners)]
    max_depth = draw(st.integers(0, 6))
    tree = DecisionTree()
    pending = [0]
    while pending:
        node = tree.nodes[pending.pop(0)]
        if node.depth < max_depth and draw(st.booleans()):
            owner = draw(st.integers(0, n_owners - 1))
            tree.split_node(
                node.node_id,
                owner=owner,
                feature=draw(st.integers(0, widths[owner] - 1)),
                bin_index=draw(st.integers(-1, n_bins - 1)),
                threshold=0.0,
                gain=1.0,
            )
            pending += [node.left_child, node.right_child]
        else:
            weight = draw(st.floats(-4.0, 4.0, allow_nan=False))
            tree.set_leaf_weight(node.node_id, weight)
    n_rows = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = {
        owner: rng.integers(0, n_bins, size=(n_rows, width)).astype(np.uint16)
        for owner, width in enumerate(widths)
    }
    return tree, codes


class TestWalkProperty:
    @settings(max_examples=200, deadline=None)
    @given(_trees_and_codes())
    def test_predict_federated_equals_per_row_reference(self, case):
        tree, codes = case
        assert np.array_equal(
            tree.predict_federated(codes), _reference_leaf_weights(tree, codes)
        )


class TestPartitionInstances:
    def test_partition(self):
        column = np.array([0, 1, 2, 3, 4], dtype=np.uint16)
        rows = np.array([0, 2, 4])
        left, right = partition_instances(column, rows, bin_index=2)
        assert left.tolist() == [0, 2]
        assert right.tolist() == [4]

    def test_partition_preserves_all(self):
        column = np.random.default_rng(0).integers(0, 8, size=50).astype(np.uint16)
        rows = np.arange(50)
        left, right = partition_instances(column, rows, 3)
        assert sorted(left.tolist() + right.tolist()) == rows.tolist()

    def test_empty_rows(self):
        left, right = partition_instances(
            np.zeros(5, dtype=np.uint16), np.array([], dtype=np.int64), 2
        )
        assert left.size == 0 and right.size == 0
