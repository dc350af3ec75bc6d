"""Multi-party vertical federation (§6.4): two or more Party A's.

Three enterprises contribute feature subsets to Party B's task. The
example shows the Table 6 effect: each added party's features lift the
model's AUC, while training cost grows only mildly because Party B's
decryption load is the only part that scales with the party count.

Run:  python examples/multi_party.py
"""

import numpy as np

from repro import FederatedTrainer, GBDTParams, VF2BoostConfig
from repro.bench.costmodel import CostModel
from repro.core.protocol import ProtocolScheduler
from repro.data.synthetic import SyntheticSpec, generate_classification
from repro.fed.cluster import PAPER_CLUSTER
from repro.gbdt.binning import bin_column, bin_dataset
from repro.gbdt.metrics import auc


def main() -> None:
    params = GBDTParams(n_trees=8, n_layers=5, n_bins=10)
    spec = SyntheticSpec(n_instances=2_000, n_features=24, seed=3, noise=0.4)
    features, labels = generate_classification(spec)
    n_train = 1_600
    full = bin_dataset(features[:n_train], params.n_bins)
    valid_codes_full = np.empty((400, 24), dtype=np.uint16)
    for j in range(24):
        valid_codes_full[:, j] = bin_column(features[n_train:, j], full.cut_points[j])

    # Four fixed feature subsets of 6 columns each; party k owns subset k.
    subsets = [np.arange(k * 6, (k + 1) * 6) for k in range(4)]

    print(f"{'#parties':>8} | {'valid AUC':>9} | {'sim s/tree':>10}")
    print("-" * 35)
    for n_parties in (2, 3, 4):
        columns = subsets[:n_parties]
        party_sets = [full.subset_features(cols) for cols in columns]
        valid_codes = {
            p: valid_codes_full[:, cols] for p, cols in enumerate(columns)
        }
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
        result = FederatedTrainer(config).fit(party_sets, labels[:n_train])
        margins = result.model.predict_margin(valid_codes)
        score = auc(labels[n_train:], margins)

        schedule = ProtocolScheduler(
            config, CostModel.paper(), PAPER_CLUSTER
        ).schedule(result.trace)
        per_tree = schedule.makespan / len(result.trace.trees)
        print(f"{n_parties:>8} | {score:>9.3f} | {per_tree:>10.2f}")

    print("\nMore parties unite more features -> higher AUC at a mild cost")
    print("(Party B ships ciphers to more destinations and decrypts more).")


if __name__ == "__main__":
    main()
