"""The traced benchmark patches layer boundaries from outside ``src/``.

``benchmarks/e2e/tracing.py`` looks every boundary up as
``vars(owner)[attribute]`` and raises ``KeyError`` mid-benchmark when a
method is renamed or a module stops importing a function by name.  The
benchmark directory is frozen, so the contract is checked from here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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
