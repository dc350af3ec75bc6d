"""The fixed workloads every exact gate trains or prices.

One :class:`Scenario` is a tiny two-party problem stated once: its
dimensions, the GBDT hyper-parameters, the crypto settings and the
seed.  From those it derives everything a gate needs — the
:class:`~repro.gbdt.params.GBDTParams`, a
:class:`~repro.core.config.VF2BoostConfig` preset, the seeded
vertically partitioned dataset, the analytic trace of the same shape
and its priced schedule — so a gate's workload cannot drift from the
fingerprint that claims to pin the same shape.

The named instances below are the table (DESIGN.md "Fixed workloads"
says who gates on each).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core.config import VF2BoostConfig
from repro.gbdt.params import GBDTParams

__all__ = [
    "FAULT",
    "GOLDEN",
    "GOLDEN_DIMS",
    "PERF",
    "SERVE_FULL",
    "SERVE_SMOKE",
    "Scenario",
]


@dataclass(frozen=True)
class Scenario:
    """One fixed two-party workload.

    The crypto fields and the seed default to
    :class:`~repro.core.config.VF2BoostConfig`'s own (the paper's
    2048-bit key), so a scenario that only states dimensions is priced
    and trained exactly as a bare config would be.
    """

    n_instances: int
    n_features: int
    n_trees: int
    n_layers: int
    n_bins: int
    key_bits: int = VF2BoostConfig.key_bits
    blaster_batch_size: int = VF2BoostConfig.blaster_batch_size
    seed: int = VF2BoostConfig.seed

    def params(self) -> GBDTParams:
        return GBDTParams(
            n_trees=self.n_trees, n_layers=self.n_layers, n_bins=self.n_bins
        )

    def config(self, preset: str = "vf2boost", **overrides) -> VF2BoostConfig:
        """The named :class:`VF2BoostConfig` preset at this workload."""
        fields = dict(
            params=self.params(),
            key_bits=self.key_bits,
            blaster_batch_size=self.blaster_batch_size,
            seed=self.seed,
        )
        fields.update(overrides)
        return getattr(VF2BoostConfig, preset)(**fields)

    def parties(self) -> tuple[list, np.ndarray]:
        """The seeded dataset as ``([Party B's columns, Party A's], labels)``.

        Standard-normal features, labels from a random linear rule,
        quantile-binned, first half of the columns to the active party.
        """
        from repro.gbdt.binning import bin_dataset

        rng = np.random.default_rng(self.seed)
        n, d = self.n_instances, self.n_features
        features = rng.normal(size=(n, d))
        labels = ((features @ rng.normal(size=d)) > 0).astype(float)
        full = bin_dataset(features, self.n_bins)
        half = d // 2
        return [
            full.subset_features(np.arange(0, half)),
            full.subset_features(np.arange(half, d)),
        ], labels

    def analytic_trace(self):
        """The dense analytic :class:`TraceLog` of the same shape."""
        from repro.core.profile import analytic_trace

        half = self.n_features // 2
        return analytic_trace(
            self.n_instances,
            half,
            [self.n_features - half],
            density=1.0,
            n_bins=self.n_bins,
            n_layers=self.n_layers,
            n_trees=self.n_trees,
        )

    def schedule(self, config=None, cost=None, cluster=None, **kwargs):
        """Price :meth:`analytic_trace` through the protocol scheduler.

        Defaults: the ``vf2boost`` preset, ``CostModel.paper()`` and the
        paper's §6.1 cluster; ``kwargs`` go to
        :meth:`ProtocolScheduler.schedule` (``collect_tasks``,
        ``fault_plan``).
        """
        from repro.bench.costmodel import CostModel
        from repro.core.protocol import ProtocolScheduler
        from repro.fed.cluster import PAPER_CLUSTER

        scheduler = ProtocolScheduler(
            config or self.config(), cost or CostModel.paper(), cluster or PAPER_CLUSTER
        )
        return scheduler.schedule(self.analytic_trace(), **kwargs)

    def to_dict(self) -> dict:
        return asdict(self)

    def dims(self) -> dict:
        """The five dimension fields, without crypto settings or seed."""
        return {
            "n_instances": self.n_instances,
            "n_features": self.n_features,
            "n_trees": self.n_trees,
            "n_layers": self.n_layers,
            "n_bins": self.n_bins,
        }


#: the golden fits (``tests/golden/party_sweep.json``); the seed is the
#: paper's SIGMOD publication date
GOLDEN = Scenario(48, 6, 2, 3, 4, key_bits=256, blaster_batch_size=16, seed=20210614)
#: GOLDEN's dimensions at the config's default key and batch: what
#: ``repro whatif`` and ``repro critical`` price
GOLDEN_DIMS = Scenario(**GOLDEN.dims())
#: ``counted-train``: tiny but real-crypto, so every op total is a
#: physically executed count
PERF = Scenario(32, 4, 1, 2, 4, key_bits=256, blaster_batch_size=16, seed=20210614)
#: ``faults-recovery``: counted crypto under a hash-derived fault plan
FAULT = Scenario(64, 6, 2, 3, 6, key_bits=256, seed=20210614)
#: the serving bench's model at ``--smoke`` size (``serve-fleet`` gates
#: on it) and at full size
SERVE_SMOKE = Scenario(240, 8, 3, 4, 8, seed=7)
SERVE_FULL = Scenario(600, 16, 6, 5, 16, seed=7)
