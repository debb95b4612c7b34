"""Benchmark harness support.

Every bench regenerates one paper figure/table via its experiment module,
prints the same rows the paper plots, and archives them under
``benchmarks/results/`` so a reported figure can point at a concrete run.

Trial counts follow the experiments' defaults; set the ``REPRO_TRIALS``
environment variable to scale them up or down.  Set ``REPRO_JOBS`` (or
pass ``jobs=`` to an experiment's ``run``) to fan Monte Carlo trials out
over worker processes — archived tables are bit-identical at any job
count, so parallel bench runs stay comparable with sequential ones.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.options import JOBS_ENV_VAR
from repro.stats.executor import default_jobs

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(autouse=True)
def announce_jobs(capsys):
    """Surface the active REPRO_JOBS setting in bench output, so archived
    timings are attributable to a worker count."""
    if os.environ.get(JOBS_ENV_VAR):
        with capsys.disabled():
            print(f"\n[{JOBS_ENV_VAR}={default_jobs()} worker(s)]")
    yield


@pytest.fixture
def bench_report(capsys):
    """Returns a callable that prints + archives an ExperimentResult."""

    def report(result):
        text = result.to_table()
        with capsys.disabled():
            print()
            print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{result.experiment_id}.txt"
        path.write_text(text + "\n")
        return result

    return report


def run_once(benchmark, fn, **kwargs):
    """Benchmark an experiment with a single timed round (the experiments
    are Monte Carlo sweeps; wall-clock per regeneration is the quantity of
    interest, not micro-timing)."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1,
                              warmup_rounds=0)
