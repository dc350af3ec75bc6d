"""Non-federated histogram-based GBDT — the repository's XGBoost stand-in.

This trainer runs the exact tree-growing recipe every federated trainer
in :mod:`repro.core` uses (same binning, histograms, gains, layer-wise
growth, histogram subtraction), just on co-located plaintext data. The
paper uses XGBoost in two modes — on co-located data and on Party B's
columns only — as the convergence reference lines of Figure 10 and the
speed reference of Table 4; this class plays both roles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gbdt.binning import BinnedDataset, bin_dataset
from repro.gbdt.histogram import Histogram, build_histogram
from repro.gbdt.loss import Loss, get_loss, grid_gradients
from repro.gbdt.metrics import auc
from repro.gbdt.params import GBDTParams
from repro.gbdt.split import find_best_split, leaf_weight
from repro.gbdt.tree import DecisionTree, partition_instances

__all__ = ["GBDTModel", "GBDTTrainer", "EvalRecord"]


@dataclass
class EvalRecord:
    """Metrics captured after one boosting round."""

    tree_index: int
    train_loss: float
    valid_loss: float | None = None
    valid_auc: float | None = None


@dataclass
class GBDTModel:
    """A trained boosted ensemble."""

    trees: list[DecisionTree] = field(default_factory=list)
    params: GBDTParams = field(default_factory=GBDTParams)
    base_score: float = 0.0

    def predict_margin(self, codes: np.ndarray) -> np.ndarray:
        """Raw margin predictions from bin codes."""
        margins = np.full(codes.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            margins += self.params.learning_rate * tree.predict_codes(codes)
        return margins

    def predict_proba(self, codes: np.ndarray, loss: Loss) -> np.ndarray:
        """Output-scale predictions (probabilities for logistic loss)."""
        return loss.transform(self.predict_margin(codes))


class GBDTTrainer:
    """Plaintext histogram-based gradient boosting.

    Args:
        params: hyper-parameters.

    Example:
        >>> trainer = GBDTTrainer(GBDTParams(n_trees=5, n_layers=4))
        >>> model = trainer.fit(features, labels)
    """

    def __init__(self, params: GBDTParams | None = None) -> None:
        self.params = params or GBDTParams()
        self.loss: Loss = get_loss(self.params.objective)
        self.history: list[EvalRecord] = []
        self._dataset: BinnedDataset | None = None

    def fit(
        self,
        features,
        labels: np.ndarray,
        valid_features=None,
        valid_labels: np.ndarray | None = None,
    ) -> GBDTModel:
        """Train on raw feature matrices (binning included)."""
        dataset = bin_dataset(features, self.params.n_bins)
        valid_dataset = None
        if valid_features is not None:
            valid_dataset = self._bin_like(valid_features, dataset)
        return self.fit_binned(dataset, labels, valid_dataset, valid_labels)

    def fit_binned(
        self,
        dataset: BinnedDataset,
        labels: np.ndarray,
        valid_dataset: BinnedDataset | None = None,
        valid_labels: np.ndarray | None = None,
    ) -> GBDTModel:
        """Train on an already-binned dataset."""
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape[0] != dataset.n_instances:
            raise ValueError("labels length must match dataset rows")
        self._dataset = dataset
        self.history = []
        base = self.loss.base_score(labels)
        model = GBDTModel(params=self.params, base_score=base)
        margins = np.full(labels.shape[0], base, dtype=np.float64)
        valid_margins = None
        if valid_dataset is not None and valid_labels is not None:
            valid_margins = np.full(
                valid_labels.shape[0], base, dtype=np.float64
            )
        for t in range(self.params.n_trees):
            gradients, hessians = grid_gradients(self.loss, labels, margins)
            tree = self._grow_tree(dataset, gradients, hessians)
            model.trees.append(tree)
            margins += self.params.learning_rate * tree.predict_codes(dataset.codes)
            record = EvalRecord(
                tree_index=t, train_loss=self.loss.loss(labels, margins)
            )
            if valid_margins is not None:
                valid_margins += self.params.learning_rate * tree.predict_codes(
                    valid_dataset.codes
                )
                record.valid_loss = self.loss.loss(valid_labels, valid_margins)
                record.valid_auc = _safe_auc(valid_labels, valid_margins)
            self.history.append(record)
        return model

    def _grow_tree(
        self,
        dataset: BinnedDataset,
        gradients: np.ndarray,
        hessians: np.ndarray,
    ) -> DecisionTree:
        """Layer-wise growth with the histogram-subtraction trick."""
        tree = DecisionTree()
        all_rows = np.arange(dataset.n_instances, dtype=np.int64)
        node_instances: dict[int, np.ndarray] = {0: all_rows}
        node_histograms: dict[int, Histogram] = {
            0: build_histogram(dataset, all_rows, gradients, hessians)
        }
        frontier = [0]
        for _depth in range(self.params.max_depth):
            next_frontier: list[int] = []
            for node_id in frontier:
                histogram = node_histograms[node_id]
                candidate = find_best_split(histogram, self.params)
                if not candidate.is_valid:
                    continue
                threshold = dataset.threshold_for(
                    candidate.feature, candidate.bin_index
                )
                left, right = tree.split_node(
                    node_id,
                    owner=0,
                    feature=candidate.feature,
                    bin_index=candidate.bin_index,
                    threshold=threshold,
                    gain=candidate.gain,
                )
                left_rows, right_rows = partition_instances(
                    dataset.codes[:, candidate.feature],
                    node_instances[node_id],
                    candidate.bin_index,
                )
                node_instances[left.node_id] = left_rows
                node_instances[right.node_id] = right_rows
                # Subtraction trick: build the smaller child, derive the other.
                if left_rows.size <= right_rows.size:
                    small, large = left, right
                    small_rows = left_rows
                else:
                    small, large = right, left
                    small_rows = right_rows
                small_hist = build_histogram(
                    dataset, small_rows, gradients, hessians
                )
                node_histograms[small.node_id] = small_hist
                node_histograms[large.node_id] = histogram.subtract(small_hist)
                next_frontier.extend([left.node_id, right.node_id])
            frontier = next_frontier
            if not frontier:
                break
        for node in tree.nodes.values():
            if node.is_leaf:
                rows = node_instances.get(node.node_id)
                if rows is None or rows.size == 0:
                    tree.set_leaf_weight(node.node_id, 0.0)
                    continue
                grad_sum = float(gradients[rows].sum())
                hess_sum = float(hessians[rows].sum())
                tree.set_leaf_weight(
                    node.node_id,
                    leaf_weight(grad_sum, hess_sum, self.params.reg_lambda),
                )
        return tree

    @staticmethod
    def _bin_like(features, reference: BinnedDataset) -> BinnedDataset:
        """Bin a validation matrix with the training cut points."""
        from scipy import sparse as sp

        from repro.gbdt.binning import bin_column

        if sp.issparse(features):
            features = np.asarray(features.todense(), dtype=np.float64)
        else:
            features = np.asarray(features, dtype=np.float64)
        codes = np.empty(features.shape, dtype=np.uint16)
        for j in range(features.shape[1]):
            codes[:, j] = bin_column(features[:, j], reference.cut_points[j])
        return BinnedDataset(
            codes, reference.cut_points, reference.n_bins, reference.feature_names
        )

    def evaluate(
        self, model: GBDTModel, dataset: BinnedDataset, labels: np.ndarray
    ) -> dict[str, float]:
        """Loss and (when defined) AUC of a model on a binned dataset."""
        margins = model.predict_margin(dataset.codes)
        result = {"loss": self.loss.loss(np.asarray(labels, float), margins)}
        auc_value = _safe_auc(labels, margins)
        if auc_value is not None:
            result["auc"] = auc_value
        return result


def _safe_auc(labels: np.ndarray, margins: np.ndarray) -> float | None:
    """AUC, or ``None`` when undefined (single-class labels)."""
    try:
        return auc(np.asarray(labels, dtype=np.float64), margins)
    except ValueError:
        return None
