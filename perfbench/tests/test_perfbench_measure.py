"""The measuring child's counters and result digests."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import measure  # noqa: E402
from workloads import WORKLOADS, experiment_calls  # noqa: E402

from repro.experiments import run_experiment  # noqa: E402

RECORDED = json.loads((Path(measure.__file__).parent / "digests.json")
                      .read_text(encoding="utf-8"))


def test_counters_add_up_across_a_fork():
    counters = measure.Counters(5)
    counters.add(measure.WORLDS, 3)
    pid = os.fork()
    if pid == 0:  # a pool worker forked from the measuring process
        counters.add(measure.WORLDS, 4)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert status == 0
    assert counters[measure.WORLDS] == 7
    assert counters[measure.TASKS] == 0


def test_recorded_digests_cover_every_call_at_seed_zero():
    for name, workload in WORKLOADS.items():
        labels = {label for label, _, _ in experiment_calls(workload, 0)}
        assert set(RECORDED[name]) == labels


def test_a_different_seed_changes_the_digest():
    # fig12's hold sweep is one of the cheapest seed-dependent calls
    digests = []
    for seed in (0, 1):
        _, experiment_id, kwargs = next(
            call for call in experiment_calls(WORKLOADS["low_power"], seed)
            if call[1] == "fig12")
        digests.append(measure.result_digest(
            run_experiment(experiment_id, **kwargs)))
    assert digests[0] != digests[1]
    assert digests[0] == RECORDED["low_power"]["fig12@12"]
