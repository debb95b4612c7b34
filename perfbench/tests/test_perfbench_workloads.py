"""Seed plumbing of the benchmark's workloads."""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from workloads import SEED_STRIDE, WORKLOADS, experiment_calls  # noqa: E402

from repro.experiments import EXPERIMENTS  # noqa: E402

#: Each experiment's own default seed, which workload seed 0 must keep.
DEFAULT_SEEDS = {"fig08": 3, "ext_interference": 22, "fig10": 10,
                 "fig11": 11, "fig12": 12, "ext_power": 21}


def test_default_seeds_are_the_registry_defaults():
    for workload in WORKLOADS.values():
        for experiment_id, default_seed, _ in workload.experiments:
            assert default_seed == DEFAULT_SEEDS[experiment_id]
            run, _ = EXPERIMENTS[experiment_id]
            signature = inspect.signature(run)
            assert signature.parameters["seed"].default == default_seed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_workload_seed_reaches_every_experiment(name, seed):
    workload = WORKLOADS[name]
    calls = experiment_calls(workload, seed)
    assert len(calls) == len(workload.experiments) * workload.seed_repeats
    seen = set()
    for label, experiment_id, kwargs in calls:
        base = DEFAULT_SEEDS[experiment_id] + seed * SEED_STRIDE
        assert base <= kwargs["seed"] < base + workload.seed_repeats
        assert kwargs["jobs"] == workload.jobs
        assert label == f"{experiment_id}@{kwargs['seed']}"
        seen.add(label)
    assert len(seen) == len(calls)
    for _, _, kwargs in experiment_calls(workload, seed, jobs=1):
        assert kwargs["jobs"] == 1


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        experiment_calls(WORKLOADS["low_power"], -1)
