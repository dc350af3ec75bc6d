"""Golden op-count regression guard (tier-1).

The paper's speedups are counting arguments — blaster encryption,
re-ordered accumulation and histogram packing each change *how many*
Paillier operations and wire bytes a tree costs.  This test retrains
the fixed golden shape with real crypto and compares the exact cost
fingerprint against ``tests/golden/opcounts.json``.  Any drift in an
Enc/Dec/HAdd/Scale/SMul count or a byte total fails tier-1: either the
change is an accidental cost regression, or it is intentional and the
golden file must be regenerated (see ``repro/obs/golden.py``) with the
new numbers justified.
"""

import json
from pathlib import Path

import pytest

from repro.bench.scenario import GOLDEN
from repro.obs.golden import golden_fingerprints

GOLDEN_PATH = Path(__file__).parent / "golden" / "opcounts.json"


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def actual():
    return golden_fingerprints()


class TestGoldenOpCounts:
    def test_shape_matches_checked_in_shape(self, expected, actual):
        assert actual["shape"] == expected["shape"] == GOLDEN.to_dict()

    @pytest.mark.parametrize("variant", ["vf2boost", "secureboost"])
    def test_fingerprint_matches(self, expected, actual, variant):
        want = expected["variants"][variant]
        got = actual["variants"][variant]
        assert got == want, (
            f"{variant} cost fingerprint drifted from tests/golden/opcounts.json.\n"
            "If this cost change is intentional, regenerate with\n"
            "  PYTHONPATH=src python -m repro.obs.golden tests/golden/opcounts.json\n"
            "and justify the new counts in the commit message."
        )


class TestGoldenEncodesPaperClaims:
    """The checked-in numbers themselves must tell the paper's story."""

    def test_histogram_packing_halves_decryptions(self, expected):
        variants = expected["variants"]
        dec_base = variants["secureboost"]["ops"]["0"]["decryptions"]
        dec_packed = variants["vf2boost"]["ops"]["0"]["decryptions"]
        # (g, h) share a bin's cipher, no feature ships its last bin and
        # t = 5 slots share a pack across features at 256-bit keys:
        # 2 x D x s = 24 ciphers a node become ceil(D(s - 1) / 5) = 2.
        shape = expected["shape"]
        d_a, s = shape["n_features"] // 2, shape["n_bins"]
        assert dec_packed * (2 * d_a * s) == dec_base * -(-d_a * (s - 1) // 5)
        assert dec_packed * 4 < dec_base

    def test_packing_shrinks_a_to_b_bytes(self, expected):
        variants = expected["variants"]
        base = variants["secureboost"]["bytes_by_direction"]["1->0"]
        packed = variants["vf2boost"]["bytes_by_direction"]["1->0"]
        assert packed < base

    def test_total_wire_bytes_drop(self, expected):
        variants = expected["variants"]
        assert (
            variants["vf2boost"]["bytes_on_wire"]
            < variants["secureboost"]["bytes_on_wire"]
        )


class TestDisclosureConformance:
    """Runtime leg of the PB003 static<->runtime conformance loop.

    The static analyzer pins the sanctioned message-type sets in
    ``tests/golden/disclosure_conformance.json``; here the *live*
    golden-fingerprint runs must put exactly the expected types on the
    wire, and nothing outside the declared allow-lists.
    """

    ARTIFACT_PATH = Path(__file__).parent / "golden" / "disclosure_conformance.json"

    @pytest.fixture(scope="class")
    def artifact(self):
        return json.loads(self.ARTIFACT_PATH.read_text())

    def test_artifact_matches_static_extraction(self, artifact, repo_index):
        from repro.analysis.conformance import build_artifact

        fresh = build_artifact(repo_index, GOLDEN_PATH)
        assert artifact == fresh, (
            "tests/golden/disclosure_conformance.json is stale; regenerate "
            "with PYTHONPATH=src python -m repro.analysis --emit-conformance"
        )

    @pytest.mark.parametrize("variant", ["vf2boost", "secureboost"])
    def test_observed_wire_types_match_artifact(self, artifact, actual, variant):
        observed = sorted(actual["variants"][variant]["bytes_by_type"])
        assert observed == artifact["expected_wire_types"][variant]

    @pytest.mark.parametrize("variant", ["vf2boost", "secureboost"])
    def test_every_wire_type_is_sanctioned(self, artifact, actual, variant):
        sanctioned = set(artifact["runtime_allowlist"]) | set(
            artifact["label_derived"]
        )
        observed = set(actual["variants"][variant]["bytes_by_type"])
        undeclared = observed - sanctioned
        assert not undeclared, (
            f"{variant} put undeclared message types on the wire: "
            f"{sorted(undeclared)}"
        )

    def test_pair_layout_discloses_no_count(self, artifact):
        # A pair cipher carries g and h and nothing else: an instance
        # with zero statistics encodes to 0, so no bin sum counts
        # instances and the packed path needs no declared disclosure.
        from repro.analysis.taint import DECLARED_DISCLOSURES
        from repro.crypto.packing import GradHessLayout

        layout = GradHessLayout(GOLDEN.key_bits, GOLDEN.n_instances, 1.0, 0.25)
        assert layout.encode([0.0], [0.0]) == [0]
        assert sorted(DECLARED_DISCLOSURES) == artifact["declared_disclosures"]
        assert not DECLARED_DISCLOSURES & set(artifact["label_derived"])
