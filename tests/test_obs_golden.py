"""Golden op-count regression guard (tier-1).

The paper's speedups are counting arguments — blaster encryption,
re-ordered accumulation and histogram packing each change *how many*
Paillier operations and wire bytes a tree costs.  This test retrains
the fixed golden shape with real crypto, one passive party, and
compares the exact cost fingerprint (per-party op counts, per-direction
and per-type wire ledgers) with the fit recorded in
``tests/golden/party_sweep.json`` (regenerate with
``PYTHONPATH=src python tests/test_party.py``).  It also checks the
live wire against the message types' declared disclosures.
"""

import json
from pathlib import Path

import pytest

from repro.bench.scenario import GOLDEN
from repro.core.trainer import FederatedTrainer
from repro.fed import messages

SWEEP_FILE = Path(__file__).parent / "golden" / "party_sweep.json"

#: guarded variant -> :class:`VF2BoostConfig` preset (its sweep name)
_PRESETS = {"vf2boost": "vf2boost", "secureboost": "vf_gbdt"}


def cost_fingerprint(variant: str) -> dict:
    """Train one variant at the golden shape; return its exact costs."""
    config = GOLDEN.config(_PRESETS[variant], crypto_mode="real")
    parties, labels = GOLDEN.parties()
    result = FederatedTrainer(config).fit(parties, labels)
    channel = result.channel
    return {
        "ops": {
            str(party): stats.to_dict()
            for party, stats in sorted(result.crypto_stats.items())
        },
        "directions": {
            f"{src}->{dst}": [stats.messages, stats.bytes]
            for (src, dst), stats in sorted(channel.stats.items())
        },
        "ledger": channel.wire_ledger(),
    }


@pytest.fixture(scope="module")
def expected():
    recorded = json.loads(SWEEP_FILE.read_text())
    return {
        variant: {
            key: recorded[f"{preset}/1/real"][key]
            for key in ("ops", "directions", "ledger")
        }
        for variant, preset in _PRESETS.items()
    }


@pytest.fixture(scope="module")
def actual():
    return {variant: cost_fingerprint(variant) for variant in _PRESETS}


class TestGoldenOpCounts:
    @pytest.mark.parametrize("variant", ["vf2boost", "secureboost"])
    def test_fingerprint_matches(self, expected, actual, variant):
        assert actual[variant] == expected[variant], (
            f"{variant} cost fingerprint drifted from tests/golden/party_sweep.json.\n"
            "If this cost change is intentional, regenerate with\n"
            "  PYTHONPATH=src python tests/test_party.py\n"
            "and justify the new counts in the commit message."
        )


class TestDisclosureConformance:
    """The live golden fits put exactly the recorded, declared types on the wire."""

    @pytest.mark.parametrize("variant", ["vf2boost", "secureboost"])
    def test_observed_wire_types_match_artifact(self, expected, actual, variant):
        assert sorted(actual[variant]["ledger"]) == sorted(expected[variant]["ledger"])

    @pytest.mark.parametrize("variant", ["vf2boost", "secureboost"])
    def test_every_wire_type_is_sanctioned(self, actual, variant):
        undeclared = [
            name
            for name in actual[variant]["ledger"]
            if getattr(messages, name).disclosure is None
        ]
        assert not undeclared, (
            f"{variant} put undeclared message types on the wire: {undeclared}"
        )
