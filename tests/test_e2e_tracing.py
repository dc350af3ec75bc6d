"""The traced benchmark patches layer boundaries from outside ``src/``.

``benchmarks/e2e/tracing.py`` looks every boundary up as
``vars(owner)[attribute]`` and raises ``KeyError`` mid-benchmark when a
method is renamed or a module stops importing a function by name, and
``benchmarks/e2e/run.py`` records ``get_backend().name``.  The benchmark
directory is frozen, so the contract is checked from here.
"""

import contextlib
import importlib.util
import subprocess
import sys
from pathlib import Path

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
    with _load("run") as run:
        assert run.run_meta()["backend"] == "python"


def test_training_imports_no_process_pool():
    probe = (
        "import sys, repro.core.trainer; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        check=True,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": ":".join(sys.path)},
    )
    assert out.stdout.strip() == "[]"


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
