"""Seeded workloads of the end-to-end benchmark and their losslessness oracle.

Each workload is one synthetic two-party dataset plus one
:class:`~repro.core.config.VF2BoostConfig`, shaped so that a single
layer of the crypto/protocol stack does most of a real-Paillier fit
(see ``README.md`` for the measured shares).  :func:`build_workload`
also trains the two references every fit is judged against: the
co-located plaintext model and the ``crypto_mode="counted"`` run of the
same config.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.config import VF2BoostConfig
from repro.core.inference import FederatedPredictor
from repro.core.trainer import FederatedTrainer, TrainResult
from repro.gbdt.binning import BinnedDataset, bin_dataset
from repro.gbdt.boosting import GBDTTrainer
from repro.gbdt.params import GBDTParams

__all__ = ["KEY_BITS", "WORKLOADS", "Workload", "WorkloadSpec", "build_workload"]

#: Paillier modulus of every workload: large enough that big-integer
#: work dominates interpreter overhead, small enough for 2 s fits.
KEY_BITS = 512

#: instances per gradient batch (``blaster_batch_size``)
BATCH_SIZE = 64

#: ``config.seed`` of every run: one keypair and one exponent-jitter
#: sequence for all workload seeds.  The cost of a modular
#: exponentiation depends on the bits of the modulus, so a key drawn
#: from the workload seed moves ``train_s`` by +-4% between seeds
#: without any change in the work done.
KEY_SEED = 0


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload.

    Attributes:
        rows: training instances.
        d_b / d_a: feature columns of Party B (active) / Party A.
        bins: histogram bins per feature.
        trees / layers: boosting rounds and layers per tree.
        preset: :class:`VF2BoostConfig` preset constructor name.
        why: the layer this shape isolates (one line, mirrored in
            ``BENCHMARK.json``).
    """

    name: str
    rows: int
    d_b: int
    d_a: int
    bins: int
    trees: int
    layers: int
    preset: str
    why: str


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "train-tall", 200, 4, 4, 8, 2, 3, "vf2boost",
            "many rows, few columns: gradient encryption (Enc, obfuscator, "
            "powmod) is ~85% of the fit",
        ),
        WorkloadSpec(
            "train-wide", 200, 4, 160, 4, 1, 3, "vf2boost",
            "many passive columns: HAdd, scaling and workspace merges of the "
            "encrypted-histogram build lead; per-call overhead shows here",
        ),
        WorkloadSpec(
            "train-bins", 64, 4, 24, 32, 1, 3, "vf2boost",
            "many bins, few rows: histogram packing (SMul) and packed "
            "decryption lead; wire bytes are mostly A->B histograms",
        ),
        WorkloadSpec(
            "train-unopt", 120, 4, 24, 8, 1, 3, "vf_gbdt",
            "vf_gbdt baseline on the same layers: naive accumulation, per-bin "
            "Dec, no packing, unbatched gradients",
        ),
    )
}


@dataclass
class Workload:
    """One generated workload, ready to fit and to judge fits against.

    Attributes:
        parties: binned datasets, Party B first.
        codes: ``party id -> bin codes`` (prediction input).
        config: the real-crypto configuration under measurement.
        reference_losses: per-tree training loss of the co-located
            plaintext model.
        reference_margins: training-set margins of the counted-mode run.
        digest: model digest of the first checked fit; later fits must
            reproduce it.
    """

    spec: WorkloadSpec
    seed: int
    parties: list[BinnedDataset]
    labels: np.ndarray
    codes: dict[int, np.ndarray]
    config: VF2BoostConfig
    reference_losses: list[float]
    reference_margins: np.ndarray
    digest: str | None = None

    def fit(self) -> TrainResult:
        """One real-crypto training run, exactly as a user gets it."""
        return FederatedTrainer(self.config).fit(self.parties, self.labels)

    def predictor(self, result: TrainResult) -> FederatedPredictor:
        """The routing-protocol predictor the oracle scores the fit with."""
        return FederatedPredictor(result.model, self.codes, key_bits=KEY_BITS)

    def check(self, result: TrainResult, protocol_margins: np.ndarray) -> list[str]:
        """Losslessness oracle: the reasons a fit is wrong (empty = correct).

        Args:
            result: the fit under judgement.
            protocol_margins: ``self.predictor(result).predict_margin()``.
        """
        problems = []
        losses = [record.train_loss for record in result.history]
        if losses != self.reference_losses:
            problems.append(
                f"train_loss {losses} != co-located {self.reference_losses}"
            )
        margins = result.model.predict_margin(self.codes)
        if not np.array_equal(margins, self.reference_margins):
            problems.append("training margins differ from the counted-mode run")
        if not np.array_equal(protocol_margins, margins):
            problems.append("FederatedPredictor margins differ from the model's")
        digest = model_digest(result.model)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"model digest {digest} != first fit's {self.digest}")
        return problems


def model_digest(model) -> str:
    """SHA-256 over every node field of every tree (floats by ``repr``)."""
    digest = hashlib.sha256(repr((model.base_score, model.learning_rate)).encode())
    for tree in model.trees:
        for node_id in sorted(tree.nodes):
            digest.update(repr(dataclasses.astuple(tree.nodes[node_id])).encode())
    return digest.hexdigest()[:16]


def build_workload(name: str, seed: int) -> Workload:
    """Generate a workload's inputs and references from its seed.

    ``X ~ N(0, 1)`` and soft labels ``y = sigmoid(X.w / |w| + N(0, 0.3))``;
    Party B holds the first ``d_b`` columns.  The key and the exponent
    jitter do not depend on the seed (see :data:`KEY_SEED`).

    Labels are probabilities, not 0/1, so that every instance has its
    own gradient.  With hard labels the first tree's gradients take two
    values, candidate splits on different features tie exactly in gain,
    and fixed-point rounding breaks such ties differently from
    plaintext — a legitimate model the exact oracle would reject.
    """
    spec = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    width = spec.d_b + spec.d_a
    features = rng.normal(size=(spec.rows, width))
    weights = rng.normal(size=width)
    noise = rng.normal(scale=0.3, size=spec.rows)
    score = features @ weights / np.linalg.norm(weights) + noise
    labels = 1.0 / (1.0 + np.exp(-score))

    full = bin_dataset(features, spec.bins)
    parties = [
        full.subset_features(np.arange(spec.d_b)),
        full.subset_features(np.arange(spec.d_b, width)),
    ]
    codes = {party: dataset.codes for party, dataset in enumerate(parties)}
    params = GBDTParams(n_trees=spec.trees, n_layers=spec.layers, n_bins=spec.bins)
    config = getattr(VF2BoostConfig, spec.preset)(
        params=params,
        key_bits=KEY_BITS,
        blaster_batch_size=BATCH_SIZE,
        crypto_mode="real",
        seed=KEY_SEED,
    )

    plaintext = GBDTTrainer(params)
    plaintext.fit_binned(full, labels)
    counted = FederatedTrainer(config.replace(crypto_mode="counted")).fit(
        parties, labels
    )
    return Workload(
        spec=spec,
        seed=seed,
        parties=parties,
        labels=labels,
        codes=codes,
        config=config,
        reference_losses=[record.train_loss for record in plaintext.history],
        reference_margins=counted.model.predict_margin(codes),
    )
