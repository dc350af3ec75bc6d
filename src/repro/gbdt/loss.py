"""Twice-differentiable losses with gradient/hessian bounds.

The bounds matter beyond optimization: polynomial histogram packing
(§5.2) requires every histogram bin to be *lower bounded* so Party A
can shift it into the non-negative range.  Logistic loss gradients are
bounded in ``[-1, 1]`` and hessians in ``[0, 0.25]`` — exactly the
property the paper relies on.

Every tree is grown from :func:`grid_gradients`: the loss's ``(g, h)``
rounded to multiples of ``2**-GRID_BITS``.  A float64 sum of such values
is exact while it stays below ``2**(53 - GRID_BITS)``, so every trainer
— co-located, counted, and both encrypted paths, whose fixed-point
integers are these multiples — builds the same histograms bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GRID_BITS",
    "Loss",
    "LogisticLoss",
    "SquaredLoss",
    "get_loss",
    "grid_gradients",
    "sigmoid",
]

#: Gradients and hessians are multiples of ``2**-GRID_BITS``.
GRID_BITS = 16


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


class Loss:
    """Interface of a boosting loss over raw margins ``y_hat``."""

    name: str = "abstract"

    def gradients(
        self, labels: np.ndarray, predictions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """First and second derivatives w.r.t. the margin."""
        raise NotImplementedError

    def loss(self, labels: np.ndarray, predictions: np.ndarray) -> float:
        """Mean loss value."""
        raise NotImplementedError

    def base_score(self, labels: np.ndarray) -> float:
        """A sensible constant initial margin for this loss."""
        raise NotImplementedError

    @property
    def gradient_bound(self) -> float:
        """``Bound`` such that ``|g_i| <= Bound`` for every instance."""
        raise NotImplementedError

    @property
    def hessian_bound(self) -> float:
        """``Bound`` such that ``0 <= h_i <= Bound`` for every instance."""
        raise NotImplementedError


class LogisticLoss(Loss):
    """Binary cross-entropy over logits (paper's classification loss)."""

    name = "logistic"

    def gradients(self, labels, predictions):
        prob = sigmoid(predictions)
        grad = prob - labels
        hess = prob * (1.0 - prob)
        return grad, hess

    def loss(self, labels, predictions):
        prob = np.clip(sigmoid(predictions), 1e-15, 1.0 - 1e-15)
        return float(
            -np.mean(labels * np.log(prob) + (1.0 - labels) * np.log(1.0 - prob))
        )

    def base_score(self, labels):
        mean = float(np.clip(np.mean(labels), 1e-6, 1.0 - 1e-6))
        return float(np.log(mean / (1.0 - mean)))

    @property
    def gradient_bound(self) -> float:
        return 1.0

    @property
    def hessian_bound(self) -> float:
        return 0.25


class SquaredLoss(Loss):
    """Squared error ``(y - y_hat)^2 / 2`` for regression tasks.

    The gradient is unbounded in general; :attr:`gradient_bound` assumes
    labels were scaled into ``[0, 1]`` (documented requirement), giving
    an effective bound once predictions saturate. Callers that need
    packing with unbounded targets must clip gradients, as the paper
    notes ("we can also apply an L1 regularization to bound the
    gradients").
    """

    name = "squared"

    #: assumed label range after user-side normalization
    label_range: float = 1.0

    def gradients(self, labels, predictions):
        grad = predictions - labels
        hess = np.ones_like(labels, dtype=np.float64)
        return grad, hess

    def loss(self, labels, predictions):
        return float(0.5 * np.mean((labels - predictions) ** 2))

    def base_score(self, labels):
        return float(np.mean(labels))

    @property
    def gradient_bound(self) -> float:
        # |pred - y| bounded only if predictions stay near the label range;
        # boosted predictions with shrinkage remain within a few ranges.
        return 4.0 * self.label_range

    @property
    def hessian_bound(self) -> float:
        return 1.0


def grid_gradients(
    loss: Loss, labels: np.ndarray, predictions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``loss.gradients`` rounded to the nearest multiples of ``2**-GRID_BITS``.

    The bounds of every loss here are multiples of the grid step, so
    rounding never leaves them.
    """
    scale = float(1 << GRID_BITS)
    return tuple(np.round(x * scale) / scale for x in loss.gradients(labels, predictions))


_LOSSES: dict[str, type[Loss]] = {
    LogisticLoss.name: LogisticLoss,
    SquaredLoss.name: SquaredLoss,
}


def get_loss(name: str) -> Loss:
    """Instantiate a loss by objective name.

    Raises:
        KeyError: for unknown objective names.
    """
    try:
        return _LOSSES[name]()
    except KeyError:
        raise KeyError(
            f"unknown objective {name!r}; known: {sorted(_LOSSES)}"
        ) from None
