"""Benchmark-suite plumbing: results directory + render helper.

Every benchmark both *benchmarks* a representative kernel (so
``pytest-benchmark`` has something to time) and regenerates its paper
table/figure, writing the rendered text to ``benchmarks/results/`` so
the reproduction artifacts survive the run.

Observability: run with ``--obs-dir <dir>`` to additionally emit a
:class:`repro.obs.report.RunReport` JSON for each benchmark that
schedules protocols (``repro trace <report> -o <file>`` renders its
Perfetto-loadable Chrome trace; the ``record_report`` fixture is a
no-op without the flag, so plain runs stay artifact-free).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--obs-dir",
        default=None,
        help="directory for RunReport artifacts",
    )


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def obs_dir(request) -> pathlib.Path | None:
    value = request.config.getoption("--obs-dir")
    if value is None:
        return None
    path = pathlib.Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture()
def record_result(results_dir):
    """Write a rendered table to results/<name>.txt and echo it."""

    def _record(name: str, rendered: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(rendered + "\n")
        print(f"\n{rendered}\n[saved to {path}]")

    return _record


@pytest.fixture()
def record_report(obs_dir):
    """Write a ScheduleResult's RunReport under --obs-dir.

    Returns the saved :class:`repro.obs.report.RunReport` (or ``None`` when
    ``--obs-dir`` was not given).  The schedule must have been produced
    with ``collect_tasks=True`` for the report to carry spans.
    """

    def _record(name: str, schedule_result, label: str = "", config=None):
        if obs_dir is None:
            return None
        report = schedule_result.run_report(label=label or name, config=config)
        path = obs_dir / f"{name}.report.json"
        report.save(str(path))
        print(f"\n[RunReport saved to {path}]")
        return report

    return _record
