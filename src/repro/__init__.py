"""VF²Boost reproduction: very fast vertical federated gradient boosting.

A from-scratch Python implementation of the complete system of
Fu et al., *VF²Boost* (SIGMOD 2021): the Paillier cryptosystem, the
histogram-based GBDT engine, the SecureBoost vertical federated
protocol, the four VF²Boost optimizations, every baseline the paper
compares against, and a benchmark harness that regenerates every table
and figure of the paper's evaluation.

Quickstart::

    from repro import FederatedTrainer, VF2BoostConfig, GBDTParams
    from repro.data.datasets import load_dataset
    from repro.data.partition import split_features
    from repro.gbdt.binning import bin_dataset

    data = load_dataset("census")
    full = bin_dataset(data.train_features, 20)
    partition = split_features(data.n_features, [data.features_b, data.features_a])
    parties = [full.subset_features(partition.columns_of(p)) for p in (0, 1)]
    config = VF2BoostConfig.vf2boost(params=GBDTParams(n_trees=5))
    result = FederatedTrainer(config).fit(parties, data.train_labels)

Every other name is imported from its defining module; the subpackage
``__init__`` files hold only their docstrings.
"""

from repro.core.config import VF2BoostConfig
from repro.core.trainer import FederatedModel, FederatedTrainer, TrainResult
from repro.crypto.ciphertext import PaillierContext
from repro.crypto.paillier import generate_keypair
from repro.gbdt.boosting import GBDTTrainer
from repro.gbdt.params import GBDTParams

__version__ = "1.0.0"

__all__ = [
    "FederatedModel",
    "FederatedTrainer",
    "GBDTParams",
    "GBDTTrainer",
    "PaillierContext",
    "TrainResult",
    "VF2BoostConfig",
    "generate_keypair",
    "__version__",
]
