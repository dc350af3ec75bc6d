"""Extensions beyond the paper's core system (its §5 discussions & §8).

* :mod:`repro.extensions.vfl_lr` — vertical federated logistic
  regression with re-ordered gradient reduction (§5.1 discussion).
"""

from repro.extensions.vfl_lr import (
    VerticalLogisticRegression,
    VflLrConfig,
    VflLrResult,
)

__all__ = ["VerticalLogisticRegression", "VflLrConfig", "VflLrResult"]
