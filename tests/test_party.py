"""The party boundary: two kinds of party that share only a channel.

``repro.core.party`` cuts the per-tree protocol along the paper's §3.1
line.  Two checks live here: a :class:`PassiveParty` cannot hold (or be
handed) a label, a gradient or a private key, and the refactor moved no
number — every golden variant's model, ledgers, op counts and phase
rows equal the values recorded at the commit before the parties existed
(``tests/golden/party_sweep.json``; regenerate with
``PYTHONPATH=src python tests/test_party.py``).  That file is the one
golden record of a fit: it pins each variant's exact per-type wire
ledger, and its numbers must keep telling the paper's packing story.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.scenario import GOLDEN
from repro.core.party import ACTIVE, ActiveParty, PassiveParty, ProtocolError, make_parties
from repro.core.serialization import model_to_payloads, trace_to_payload
from repro.core.trainer import FederatedTrainer
from repro.crypto.ciphertext import EncryptedNumber
from repro.crypto.packing import GradHessLayout
from repro.fed import messages
from repro.fed.channel import RecordingChannel
from repro.fed.messages import LeafWeightBroadcast

SWEEP_FILE = Path(__file__).parent / "golden" / "party_sweep.json"

#: variant -> (preset, overrides); ``secureboost`` is the golden name of
#: the ``vf_gbdt`` preset, ``reordered`` the unpacked §5.1 path
_VARIANTS = {
    "vf2boost": ("vf2boost", {}),
    "vf_gbdt": ("vf_gbdt", {}),
    "reordered": ("vf2boost", {"histogram_packing": False}),
}
_CASES = [
    (variant, n_passive, mode)
    for variant in _VARIANTS
    for n_passive in (1, 2)
    for mode in ("real", "counted")
]


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _golden_parties(n_passive: int):
    """GOLDEN's columns dealt to Party B and ``n_passive`` Party A's."""
    (active, passive), labels = GOLDEN.parties()
    if n_passive == 1:
        return [active, passive], labels
    return [
        active,
        passive.subset_features(np.arange(0, 2)),
        passive.subset_features(np.arange(2, 3)),
    ], labels


def _fit(variant: str, n_passive: int, mode: str):
    preset, overrides = _VARIANTS[variant]
    config = GOLDEN.config(preset, crypto_mode=mode, **overrides)
    parties, labels = _golden_parties(n_passive)
    return FederatedTrainer(config).fit(parties, labels)


def fingerprint(variant: str, n_passive: int, mode: str) -> dict:
    """Everything exact one golden-variant fit leaves behind."""
    result = _fit(variant, n_passive, mode)
    channel = result.channel
    # A clean fit leaves every queue empty: each message was received.
    assert not any(channel.pending(*direction) for direction in list(channel.stats))
    return {
        "model": _digest(model_to_payloads(result.model)),
        "trace": _digest(trace_to_payload(result.trace)),
        "losses": [record.train_loss.hex() for record in result.history],
        "ledger": channel.wire_ledger(),
        "directions": {
            f"{src}->{dst}": [stats.messages, stats.bytes]
            for (src, dst), stats in sorted(channel.stats.items())
        },
        "send_order": _digest(
            [[type(m).__name__, m.sender, m.receiver] for m in channel.log]
        ),
        "ops": {
            str(party): stats.to_dict()
            for party, stats in sorted(result.crypto_stats.items())
        },
        "phases": result.profile.get("phases", {}),
    }


def faulted_fingerprint(tmp_dir: str) -> dict:
    """The ``faults-recovery`` fit, crashed after its first tree and resumed.

    ``dedupe_dropped`` is left out: before the parties nothing received
    during training, so the parent's count is 0 by construction.
    """
    from repro.bench.perfdb import FAULT_PLAN
    from repro.bench.scenario import FAULT
    from repro.fed.faults import FaultPlan
    from repro.fed.retry import RetryPolicy

    parties, labels = FAULT.parties()
    result = FederatedTrainer(FAULT.config(crypto_mode="counted")).fit_resilient(
        parties,
        labels,
        fault_plan=FaultPlan(
            seed=FAULT_PLAN["fault_seed"],
            crash_after_trees=(0,),
            **FAULT_PLAN["messages"],
        ),
        retry_policy=RetryPolicy(max_retries=FAULT_PLAN["max_retries"]),
        checkpoint_dir=tmp_dir,
    )
    faults = {k: v for k, v in result.faults.items() if k != "dedupe_dropped"}
    return {
        "model": _digest(model_to_payloads(result.model)),
        "trace": _digest(trace_to_payload(result.trace)),
        "ledger": result.channel.wire_ledger(),
        "faults": faults,
        "events": _digest(result.events),
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(SWEEP_FILE.read_text())


@pytest.mark.parametrize("variant, n_passive, mode", _CASES)
def test_golden_variant_equals_the_parent_commit(recorded, variant, n_passive, mode):
    assert fingerprint(variant, n_passive, mode) == recorded[
        f"{variant}/{n_passive}/{mode}"
    ]


def test_faulted_resumed_fit_equals_the_parent_commit(recorded, tmp_path):
    assert faulted_fingerprint(str(tmp_path)) == recorded["faulted-resumed"]


def test_every_wire_type_is_declared(recorded):
    # Every type on the wire is one of repro.fed.messages' declared types.
    for key, sweep in recorded.items():
        for type_name in sweep["ledger"]:
            assert getattr(messages, type_name).disclosure is not None, (key, type_name)


class TestGoldenEncodesPaperClaims:
    """The recorded numbers themselves must tell the paper's story."""

    @pytest.fixture()
    def packed(self, recorded):
        return recorded["vf2boost/1/real"]

    @pytest.fixture()
    def base(self, recorded):
        return recorded["vf_gbdt/1/real"]

    def test_histogram_packing_halves_decryptions(self, packed, base):
        dec_packed = packed["ops"][str(ACTIVE)]["decryptions"]
        dec_base = base["ops"][str(ACTIVE)]["decryptions"]
        # (g, h) share a bin's cipher, no feature ships its last bin and
        # t = 5 slots share a pack across features at 256-bit keys:
        # 2 x D x s = 24 ciphers a node become ceil(D(s - 1) / 5) = 2.
        d_a, s = GOLDEN.n_features // 2, GOLDEN.n_bins
        assert dec_packed * (2 * d_a * s) == dec_base * -(-d_a * (s - 1) // 5)
        assert dec_packed * 4 < dec_base

    def test_packing_shrinks_a_to_b_bytes(self, packed, base):
        assert packed["directions"]["1->0"][1] < base["directions"]["1->0"][1]

    def test_total_wire_bytes_drop(self, packed, base):
        def total(sweep):
            return sum(n_bytes for _, n_bytes in sweep["directions"].values())

        assert total(packed) < total(base)

    def test_pair_layout_discloses_no_count(self):
        # A pair cipher carries g and h and nothing else: an instance
        # with zero statistics encodes to 0, so no bin sum counts
        # instances and the packed path needs no declared disclosure.
        layout = GradHessLayout(GOLDEN.key_bits, GOLDEN.n_instances, 1.0, 0.25)
        assert layout.encode([0.0], [0.0]) == [0]


class TestBoundary:
    """What a passive party holds, and what it can never be handed."""

    #: names under which Party B keeps label-derived state
    LABEL_STATE = {"labels", "gradients", "hessians", "margins", "raw_pairs", "loss"}

    @pytest.fixture()
    def parties(self):
        datasets, labels = GOLDEN.parties()
        active, passives = make_parties(GOLDEN.config(crypto_mode="real"), datasets, labels)
        return active, passives[1], RecordingChannel(GOLDEN.key_bits, active_party=ACTIVE)

    def test_passive_party_holds_no_decrypt_capable_context(self, parties):
        active, passive, _ = parties
        assert active.context.can_decrypt
        assert not passive.context.can_decrypt
        assert passive.context.public_key == active.context.public_key

    def test_passive_constructor_takes_no_label_gradient_or_private_key(self, parties):
        active, passive, _ = parties
        names = set(inspect.signature(PassiveParty.__init__).parameters)
        assert names == {"self", "party", "config", "dataset", "context", "peers"}
        assert "labels" in inspect.signature(ActiveParty.__init__).parameters
        with pytest.raises(ValueError, match="private key"):
            PassiveParty(1, passive.config, passive.dataset, active.context)

    def test_after_a_tree_the_passive_state_is_ciphers_and_placements(self, parties):
        active, passive, channel = parties
        active.send_gradients(channel)
        passive.receive_gradients(channel)
        passive.send_histograms(channel)
        active.receive_histograms(channel)
        assert not self.LABEL_STATE & set(vars(passive))
        assert self.LABEL_STATE <= set(vars(active))
        assert passive.hesses is None and len(passive.grads) == GOLDEN.n_instances
        # B's ciphers, each loaded once into the tree's resident block
        block = passive.context.block
        assert all(type(block.unload(operand)) is EncryptedNumber for operand in passive.grads)
        assert set(active.hists) == {ACTIVE, 1} and channel.pending(1, ACTIVE) == 0

    def test_a_message_the_step_cannot_accept_is_a_typed_error(self, parties):
        _, passive, channel = parties
        channel.send(LeafWeightBroadcast(ACTIVE, 1, weights={}))
        with pytest.raises(ProtocolError, match="expected EncryptedGradHessBatch"):
            passive.receive_gradients(channel)
        with pytest.raises(LookupError):
            passive.receive_leaf_weights(channel)

    def test_a_node_is_placed_once(self, parties):
        active, passive, channel = parties
        active.send_gradients(channel)
        passive.receive_gradients(channel)
        bitmap = np.arange(GOLDEN.n_instances) % 3 == 0
        assert passive._place(0, bitmap) == (1, 2)
        with pytest.raises(ProtocolError, match="cannot split node 0"):
            passive._place(0, bitmap)
        with pytest.raises(ProtocolError, match="cannot split node 1"):
            passive._place(1, bitmap)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile

    sweep = {
        f"{variant}/{n_passive}/{mode}": fingerprint(variant, n_passive, mode)
        for variant, n_passive, mode in _CASES
    }
    with tempfile.TemporaryDirectory() as tmp_dir:
        sweep["faulted-resumed"] = faulted_fingerprint(tmp_dir)
    SWEEP_FILE.write_text(json.dumps(sweep, indent=1, sort_keys=True) + "\n")
    print(f"wrote {SWEEP_FILE}")
