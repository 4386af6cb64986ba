"""Shared configuration for the benchmark suite.

Each ``bench_e*.py`` module regenerates one experiment of the registry in
:mod:`repro.experiments.registry` (the paper's theorems / figures) under
``pytest-benchmark`` timing, asserts that the experiment's claims hold, and
prints the experiment table so a benchmark run doubles as a reproduction
run.  Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment dependent
    try:
        import repro  # noqa: F401
    except ModuleNotFoundError:
        sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the benchmarked fan-outs (payments, "
        "experiment cells); default: REPRO_JOBS env or serial, 0 = all "
        "cores.  Results are bit-identical at any --jobs.",
    )


@pytest.fixture(scope="session")
def jobs(request):
    """The ``--jobs`` knob, forwarded into payments/experiment calls."""
    return request.config.getoption("--jobs")


def run_and_report(
    benchmark,
    experiment_id: str,
    *,
    quick: bool = True,
    seed: int | None = 7,
    jobs: int | None = None,
):
    """Benchmark one experiment run, assert its claims, and print its table."""
    from repro.experiments import run_experiment

    result = benchmark.pedantic(
        lambda: run_experiment(experiment_id, quick=quick, seed=seed, jobs=jobs),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.summary())
    failed = result.claims_failed()
    assert not failed, f"{experiment_id} claims failed: {failed}"
    return result
