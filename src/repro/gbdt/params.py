"""Hyper-parameters shared by every GBDT trainer in the repository.

Defaults follow the paper's experimental protocol (§6.1): ``T = 20``
trees, learning rate ``eta = 0.1``, ``L = 7`` tree layers, and
``s = 20`` histogram bins per feature.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GBDTParams"]


@dataclass
class GBDTParams:
    """Hyper-parameters of histogram-based gradient boosting.

    Attributes:
        n_trees: number of boosting rounds ``T``.
        learning_rate: shrinkage ``eta`` applied to every leaf weight.
        n_layers: number of tree layers ``L``; a tree with ``L`` layers
            has depth ``L - 1`` and at most ``2**(L-1)`` leaves.
        n_bins: histogram bins per feature ``s``.
        reg_lambda: L2 regularization ``lambda`` on leaf weights.
        gamma: minimum loss reduction ``gamma`` required to split.
        min_child_weight: minimum hessian sum in a child.
        min_node_instances: minimum instances on a splittable node.
        objective: ``"logistic"`` for binary classification or
            ``"squared"`` for regression.
    """

    n_trees: int = 20
    learning_rate: float = 0.1
    n_layers: int = 7
    n_bins: int = 20
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1e-5
    min_node_instances: int = 2
    objective: str = "logistic"

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.n_layers < 2:
            raise ValueError("n_layers must be >= 2 (root plus one split)")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be non-negative")
        if self.objective not in ("logistic", "squared"):
            raise ValueError(f"unknown objective {self.objective!r}")

    @property
    def max_depth(self) -> int:
        """Maximum tree depth (root at depth 0)."""
        return self.n_layers - 1

    def replace(self, **overrides) -> "GBDTParams":
        """Return a copy with some fields overridden."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **overrides)
