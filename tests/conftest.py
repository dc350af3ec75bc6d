"""Shared fixtures: small deterministic keys and datasets.

Key sizes here are far below the 2048 bits the paper (and production)
use — the Paillier algebra is identical at any size, and 256-bit keys
keep the full real-crypto protocol tests fast.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import VF2BoostConfig
from repro.crypto import math_utils
from repro.crypto.ciphertext import PaillierContext
from repro.gbdt.binning import bin_dataset
from repro.gbdt.params import GBDTParams


@pytest.fixture(scope="session")
def repo_index():
    """The ``repro`` package parsed once for every static-analysis test."""
    from repro.analysis.astutils import PackageIndex

    return PackageIndex(Path(__file__).parent.parent / "src" / "repro")


@pytest.fixture(scope="session")
def repo_reporter():
    """One full analyzer run over the repository (what ``--strict`` gates).

    Passes keep their state in the reporter, so tests may read it
    freely but must not mutate it.
    """
    from repro.analysis.cli import run_analysis

    return run_analysis()


@pytest.fixture(scope="session")
def context() -> PaillierContext:
    """A 256-bit context with the private key and no exponent jitter."""
    return PaillierContext.create(256, seed=42, jitter=1)


@pytest.fixture
def choke_calls(monkeypatch) -> list[str]:
    """The name of every ``math_utils`` choke-point call, in order.

    ``"powmod"``, ``"invert"`` or ``"fixed_base_powmod"`` — counted the
    way the end-to-end benchmark's tracer counts the first two: by
    wrapping the module attributes from outside.  Clear the list
    (``del choke_calls[:]``) before the section under test.
    """
    calls: list[str] = []
    for name in ("powmod", "invert", "fixed_base_powmod"):

        def wrapper(*args, _name=name, _original=getattr(math_utils, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(math_utils, name, wrapper)
    return calls


@pytest.fixture(scope="session")
def jitter_context() -> PaillierContext:
    """A 256-bit context with a 4-wide exponent jitter window."""
    return PaillierContext.create(256, seed=43, jitter=4)


@pytest.fixture(scope="session")
def small_classification():
    """A small, learnable binary classification problem."""
    rng = np.random.default_rng(7)
    n, d = 400, 10
    features = rng.normal(size=(n, d))
    weights = rng.normal(size=d)
    logits = features @ weights + 0.4 * features[:, 0] * features[:, 1]
    labels = (logits + rng.normal(scale=0.3, size=n) > 0).astype(np.float64)
    return features, labels


@pytest.fixture(scope="session")
def small_params() -> GBDTParams:
    """Small tree/round counts for fast protocol tests."""
    return GBDTParams(n_trees=3, n_layers=4, n_bins=10)


@pytest.fixture()
def party_datasets(small_classification, small_params):
    """The small problem vertically split: Party B cols 5..9, A cols 0..4."""
    features, labels = small_classification
    full = bin_dataset(features, small_params.n_bins)
    dataset_b = full.subset_features(np.arange(5, 10))
    dataset_a = full.subset_features(np.arange(0, 5))
    return [dataset_b, dataset_a], labels


@pytest.fixture()
def counted_config(small_params) -> VF2BoostConfig:
    """Counted-mode config with every optimization enabled."""
    return VF2BoostConfig.vf2boost(
        params=small_params, crypto_mode="counted", key_bits=256
    )


@pytest.fixture()
def real_config(small_params) -> VF2BoostConfig:
    """Real-crypto config at a test-sized key."""
    return VF2BoostConfig.vf2boost(
        params=small_params,
        crypto_mode="real",
        key_bits=256,
        exponent_jitter=3,
        blaster_batch_size=64,
    )


#: (rows, passive columns, bins, layers, key bits): the golden shape and
#: the three packed benchmark shapes (benchmarks/e2e/workloads.py)
LEDGER_SHAPES = {
    "golden": (48, 3, 4, 3, 256),
    "train-tall": (200, 4, 8, 3, 512),
    "train-wide": (200, 160, 4, 3, 512),
    "train-bins": (64, 24, 32, 3, 512),
}


def _ledger_workload(rows, d_a, bins, layers, key_bits):
    rng = np.random.default_rng(1)
    features = rng.normal(size=(rows, 4 + d_a))
    labels = 1.0 / (1.0 + np.exp(-features[:, 0] - features[:, 4]))
    full = bin_dataset(features, bins)
    parties = [
        full.subset_features(np.arange(0, 4)),
        full.subset_features(np.arange(4, 4 + d_a)),
    ]
    config = VF2BoostConfig.vf2boost(
        params=GBDTParams(n_trees=1, n_layers=layers, n_bins=bins),
        crypto_mode="real",
        key_bits=key_bits,
        optimistic_split=False,
    )
    return parties, labels, config


@pytest.fixture(params=sorted(LEDGER_SHAPES))
def ledger_workload(request):
    """One ledger shape as ``(parties, labels, real-crypto packed config)``."""
    return _ledger_workload(*LEDGER_SHAPES[request.param])


@pytest.fixture()
def make_ledger_workload():
    """:func:`ledger_workload`'s recipe for a shape of the caller's choosing."""
    return _ledger_workload
