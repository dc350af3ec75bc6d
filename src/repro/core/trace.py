"""Workload traces: the facts a training run leaves behind.

The protocol scheduler (:mod:`repro.core.protocol`) prices and overlaps
phases from *facts* about the workload — how many instances sat on each
node, which party won each split, how many histogram bins crossed the
wire.  Those facts come from either

* a **counted/real training run** (:mod:`repro.core.trainer` fills a
  :class:`TraceLog` while it trains), or
* an **analytic profile** (:mod:`repro.core.profile` synthesizes the
  same structure from a dataset descriptor at paper scale).

Keeping one trace schema for both is what lets a single scheduler
regenerate Tables 1, 2, 4, 5 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PartyShape", "NodeTrace", "LayerTrace", "TreeTrace", "TraceLog"]


@dataclass(frozen=True)
class PartyShape:
    """Static shape of one party's feature data.

    Attributes:
        n_features: columns owned by the party (``D_A`` or ``D_B``).
        nnz_per_instance: average non-zero values per row (``d``).
        n_bins: histogram bins per feature (``s``).
    """

    n_features: int
    nnz_per_instance: float
    n_bins: int

    @property
    def histogram_bins(self) -> int:
        """Cipher bins per node: gradient + hessian histograms."""
        return 2 * self.n_features * self.n_bins


@dataclass
class NodeTrace:
    """Per-node facts of one tree layer.

    Attributes:
        node_id: heap index in the tree.
        n_instances: rows on the node.
        owner: party owning the node's best split; ``-1`` for leaves.
        dirty: the optimistic strategy split this node with Party B's
            candidate but a passive party had a better one (§4.2) —
            triggers roll-back-and-re-do.
        misplaced_fraction: among a dirty node's instances, the share
            whose optimistic placement (under B's candidate) disagrees
            with the correct placement. The paper's §8 future-work item
            — "skip instances that are already correctly classified" —
            only needs to re-do this fraction.
        derived: no party built this node's histogram; Party B derived
            it as ``parent - sibling`` (histogram subtraction).  Always
            ``False`` in analytic traces, which reproduce the paper's
            published protocol.
    """

    node_id: int
    n_instances: int
    owner: int = -1
    dirty: bool = False
    misplaced_fraction: float = 1.0
    derived: bool = False

    @property
    def is_split(self) -> bool:
        """Whether the node was split at all."""
        return self.owner >= 0


@dataclass
class LayerTrace:
    """One layer of one tree."""

    depth: int
    nodes: list[NodeTrace] = field(default_factory=list)

    @property
    def n_instances(self) -> int:
        """Total rows across the layer's nodes."""
        return sum(node.n_instances for node in self.nodes)

    @property
    def built_nodes(self) -> int:
        """Nodes whose histograms the parties built (not derived)."""
        return sum(1 for node in self.nodes if not node.derived)

    @property
    def built_instances(self) -> int:
        """Rows under built nodes: the histogram work actually done."""
        return sum(node.n_instances for node in self.nodes if not node.derived)

    @property
    def n_split_nodes(self) -> int:
        """Nodes actually split on this layer."""
        return sum(1 for node in self.nodes if node.is_split)

    @property
    def n_dirty(self) -> int:
        """Dirty (rolled-back) nodes on this layer."""
        return sum(1 for node in self.nodes if node.dirty)

    @property
    def dirty_instances(self) -> int:
        """Rows under dirty nodes (the re-done histogram work)."""
        return sum(node.n_instances for node in self.nodes if node.dirty)

    @property
    def misplaced_instances(self) -> float:
        """Rows under dirty nodes whose placement actually changed.

        The incremental-redo lower bound of the §8 future-work
        optimization: every misplaced row must be corrected in each
        child histogram Party A holds (both, or only the built one).
        """
        return sum(
            node.n_instances * node.misplaced_fraction
            for node in self.nodes
            if node.dirty
        )


@dataclass
class TreeTrace:
    """All facts of one boosting round."""

    tree_index: int
    n_instances: int
    layers: list[LayerTrace] = field(default_factory=list)
    #: distinct encoding exponents observed in the gradient ciphers (E)
    n_exponents: int = 1

    def split_counts_by_owner(self) -> dict[int, int]:
        """How many splits each party owned in this tree."""
        counts: dict[int, int] = {}
        for layer in self.layers:
            for node in layer.nodes:
                if node.is_split:
                    counts[node.owner] = counts.get(node.owner, 0) + 1
        return counts

    @property
    def n_splits(self) -> int:
        """Total splits in the tree."""
        return sum(layer.n_split_nodes for layer in self.layers)


@dataclass
class TraceLog:
    """A full training run's workload description.

    Attributes:
        n_instances: training rows ``N``.
        active_shape: Party B's feature shape.
        passive_shapes: one :class:`PartyShape` per Party A.
        trees: per-round traces.
    """

    n_instances: int
    active_shape: PartyShape
    passive_shapes: list[PartyShape]
    trees: list[TreeTrace] = field(default_factory=list)

    @property
    def n_parties(self) -> int:
        """Total party count (B plus all A's)."""
        return 1 + len(self.passive_shapes)

    def split_ratio_of_active(self) -> float:
        """Fraction of all splits owned by Party B (Table 2's column)."""
        owned_by_b = 0
        total = 0
        for tree in self.trees:
            counts = tree.split_counts_by_owner()
            owned_by_b += counts.get(0, 0)
            total += sum(counts.values())
        return owned_by_b / total if total else 0.0

    def dirty_ratio(self) -> float:
        """Fraction of split nodes that were dirty under optimism."""
        dirty = sum(
            layer.n_dirty for tree in self.trees for layer in tree.layers
        )
        total = sum(tree.n_splits for tree in self.trees)
        return dirty / total if total else 0.0
