"""Benches for the design-choice ablations (the ``ablation_*``
experiments)."""

from benchmarks.conftest import run_once
from repro.experiments import (
    ablation_correlator,
    ablation_rf_delay,
    ablation_trains,
)


def bench_ablation_rf_delay(benchmark, bench_report):
    result = run_once(benchmark, ablation_rf_delay.run)
    bench_report(result)
    healthy = {row[0]: int(row[1].split("/")[0]) for row in result.rows}
    total = int(result.rows[0][1].split("/")[1])
    assert healthy["2 us"] == total    # nominal delay: fine
    assert healthy["80 us"] == 0       # past the uncertainty window: dead


def bench_ablation_correlator(benchmark, bench_report):
    result = run_once(benchmark, ablation_correlator.run)
    bench_report(result)
    success = {row[0]: int(row[1].split("/")[0]) for row in result.rows}
    # bit-exact matching (paper profile) fails where the correlator survives
    assert success["7"] > success["0"]


def bench_ablation_trains(benchmark, bench_report):
    result = run_once(benchmark, ablation_trains.run)
    bench_report(result)
    means = {row[0]: row[1] for row in result.rows}
    # the calibration story: 128 reproduces the paper's 1556; 256 roughly
    # doubles the out-of-train penalty
    assert 1100 < means["128"] < 2100
    assert means["256"] > means["128"]
