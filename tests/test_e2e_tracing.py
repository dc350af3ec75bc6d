"""The traced benchmark patches layer boundaries from outside ``src/``.

``benchmarks/e2e/tracing.py`` looks every boundary up as
``vars(owner)[attribute]`` and raises ``KeyError`` mid-benchmark when a
method is renamed or a module stops importing a function by name, and
``benchmarks/e2e/run.py`` records ``get_backend().name``.  The benchmark
directory is frozen, so the contract is checked from here.
"""

import contextlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


@contextlib.contextmanager
def _load(name):
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tracing():
    with _load("tracing") as module:
        yield module


def test_run_meta_records_the_one_engine():
    from repro.crypto.math_utils import get_backend

    with _load("run") as run:
        assert run.run_meta()["backend"] == get_backend().name in ("openssl", "python")


def test_training_imports_no_process_pool():
    """A training process loads what a fit runs: no process pool, and
    no serving, analysis, benchmark, scheduler, fault-injection or
    forensics module (package ``__init__`` files import nothing, so
    naming a module does not load its siblings)."""
    probe = "import json, sys, repro.core.trainer; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        check=True,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": ":".join(sys.path)},
    )
    loaded = json.loads(out.stdout)
    assert not {"multiprocessing", "concurrent.futures.process"} & set(loaded)
    ours = [m for m in loaded if m.split(".")[0] == "repro"]
    packages = ("repro.bench", "repro.serve", "repro.analysis", "repro.baselines", "repro.data")
    core = ("protocol", "profile", "inference", "serialization")
    fed = ("faults", "reliable", "retry", "simtime")
    unwanted = {f"repro.core.{m}" for m in core} | {f"repro.fed.{m}" for m in fed}
    assert [
        m
        for m in ours
        if m.startswith(tuple(f"{p}." for p in packages))
        or m in packages
        or m in unwanted
        or (m.startswith("repro.obs.") and m != "repro.obs.events")
    ] == []
    assert len(ours) <= 29


def test_every_target_place_resolves(tracing):
    missing = [
        f"{target.name}: {getattr(owner, '__name__', owner)}.{attribute}"
        for target in tracing._TARGETS
        for owner, attribute in target.places
        if not callable(vars(owner).get(attribute))
    ]
    assert not missing


def test_traced_installs_and_restores(tracing):
    places = [place for target in tracing._TARGETS for place in target.places]
    before = [vars(owner)[attribute] for owner, attribute in places]
    with tracing.traced(tracing.SpanRecorder()):
        assert all(
            vars(owner)[attribute] is not original
            for (owner, attribute), original in zip(places, before)
        )
    assert [vars(owner)[attribute] for owner, attribute in places] == before


def test_op_stats_fields_name_the_one_ledger(tracing):
    # OpStats is the only in-src ledger the benchmark oracle cross-checks.
    from repro.crypto.ciphertext import OpStats

    assert set(tracing._OP_STATS_FIELDS.values()) == set(OpStats().to_dict())


def _traced_fit(tracing, monkeypatch, config):
    """One traced 256-bit fit: (result, recorder, run.py's metrics and count_mismatches)."""
    import numpy as np

    from repro.core.trainer import FederatedTrainer
    from repro.gbdt.binning import bin_dataset

    rng = np.random.default_rng(5)
    features = rng.normal(size=(40, 6))
    labels = 1.0 / (1.0 + np.exp(-features[:, 0] - features[:, 3]))
    full = bin_dataset(features, config.params.n_bins)
    parties = [full.subset_features(np.arange(0, 3)), full.subset_features(np.arange(3, 6))]
    recorder = tracing.SpanRecorder()
    with tracing.traced(recorder):
        result = FederatedTrainer(config).fit(parties, labels)
    # The benchmark's own verdict on the same recorder.
    declared = json.loads((E2E.parents[1] / "BENCHMARK.json").read_text())["per_layer"]
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    with _load("run") as run:
        metrics = run.layer_metrics(
            declared, recorder, SimpleNamespace(round_trips=0, bytes_on_wire=0)
        )
        return result, recorder, metrics, run.count_mismatches(metrics, result)


#: structural spans of the traced 40-row fit, as counted at the commit
#: before the parties (PR 23): a party method that reached one of these
#: functions through a name the tracer does not patch would lose calls.
_STRUCTURAL = {
    "enc_histogram.build": 2,
    "gbdt.build_histogram": 2,
    "gbdt.find_best_split": 6,
    "channel.send": 9,
}


def _structural_counts(recorder, **layers):
    totals = recorder.totals()
    wanted = {**_STRUCTURAL, **layers}
    return {name: totals.get(name, (0, 0.0))[0] for name in wanted}, wanted


def _config(preset, **overrides):
    from repro.core.config import VF2BoostConfig
    from repro.gbdt.params import GBDTParams

    params = GBDTParams(n_trees=1, n_layers=3, n_bins=5)
    return getattr(VF2BoostConfig, preset)(
        params=params, crypto_mode="real", key_bits=256, **overrides
    )


@pytest.mark.parametrize(
    "preset, overrides, visited",
    [
        ("vf_gbdt", {}, "ciphertext.scale"),  # naive accumulation
        ("vf2boost", {"histogram_packing": False}, "accumulation.finalize"),  # re-ordered
    ],
)
def test_traced_fit_of_the_unpacked_variants(tracing, monkeypatch, preset, overrides, visited):
    _, recorder, metrics, mismatches = _traced_fit(
        tracing, monkeypatch, _config(preset, **overrides)
    )
    assert mismatches == []
    # an unbatched fit draws one obfuscator per Enc as well, two
    # half-width lifts each
    assert metrics["paillier.obfuscator.count"] == metrics["ciphertext.enc.count"] > 0
    assert metrics["ciphertext.enc.powmod_s"] > 0
    totals = recorder.totals()
    assert totals[visited][0] > 0
    assert "enc_histogram.pack" not in totals
    found, wanted = _structural_counts(recorder, **{"enc_histogram.decrypt": 2})
    assert found == wanted


def test_traced_fit_of_the_default_preset_counts_every_op(tracing, monkeypatch):
    # The packed path must still cross every traced boundary: span
    # counts equal the program's own OpStats (run.py's count_mismatch),
    # the build / pack / unpack layers are all visited, and one Dec
    # answers one pack of the node's cross-feature slot sequence.
    config = _config("vf2boost")
    params, n_rows = config.params, 40
    result, recorder, metrics, mismatches = _traced_fit(tracing, monkeypatch, config)
    assert mismatches == []
    # Every Enc draws exactly one obfuscator, as the key holder's two
    # half-width lifts.
    assert metrics["paillier.obfuscator.count"] == metrics["ciphertext.enc.count"] == n_rows
    assert metrics["ciphertext.enc.powmod_s"] > 0
    assert metrics["ciphertext.dec.powmod_s"] > 0
    totals = recorder.totals()
    spans = {name: totals.get(name, (0, 0.0))[0] for name in tracing._OP_STATS_FIELDS}
    assert spans == tracing.crypto_op_counts(result.crypto_stats)
    assert spans["ciphertext.enc"] == n_rows
    assert spans["ciphertext.scale"] == 0
    found, wanted = _structural_counts(
        recorder, **{"enc_histogram.pack": 2, "enc_histogram.unpack": 2}
    )
    assert found == wanted
    assert totals["packing.pack_ciphers"][0] == totals["packing.unpack_values"][0]
    built = sum(layer.built_nodes for layer in result.trace.trees[0].layers)
    assert built == totals["enc_histogram.build"][0] == 2
    layout = config.gradient_layout(n_rows)
    assert (
        spans["ciphertext.dec"]
        == totals["packing.pack_ciphers"][0]
        == built * layout.packs_per_node(3, params.n_bins)
    )
    # Ciphers built and values packed: no feature's last bin.
    assert recorder.tallies["enc_histogram.bins"] == built * 3 * (params.n_bins - 1)
    assert recorder.tallies["packing.values"] == built * 3 * (params.n_bins - 1)
    assert spans["ciphertext.smul"] == (
        recorder.tallies["packing.values"] - totals["packing.pack_ciphers"][0]
    )
    sent = recorder.tallies["channel.bytes_b2a"] + recorder.tallies["channel.bytes_a2b"]
    assert sent == result.channel.total_bytes()
