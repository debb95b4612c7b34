"""Registry smoke suite: every experiment must run end-to-end and
reproduce its golden table.

New experiments are registered in ``repro.experiments.registry``; this
suite executes each of them at tiny scale (2 trials, short windows — see
the ``tiny_experiments`` fixture) so an experiment that bit-rots fails
loudly instead of silently dropping out of coverage.  Every run is also
pinned to the sha256 of its rendered table (``tests/experiment_goldens.py``),
so any change to an outcome anywhere in the stack — channel, baseband,
link, seeds or dispatch — fails here by name.

Where the slot engine absorbs windows, the default run pins its path, so
those experiments run once more with it detached, and the object kernel
must reproduce the same tables.
"""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.options import BIT_ACCURATE_ENV_VAR
from repro.sim.soa import SlotEngine

from tests.experiment_goldens import (
    BIT_ACCURATE_TABLE_DIGESTS,
    EXPERIMENT_TABLE_DIGESTS,
    table_digest,
)
from tests.kernels import object_kernel

#: The experiments in which the slot engine absorbs at least one window at
#: ``tiny_experiments`` scale (the end-to-end test below keeps the list
#: exact).
SLOT_ENGINE_EXPERIMENTS = ("ext_afh", "ext_interference",
                           "ext_interference_spatial", "ext_throughput")


@pytest.fixture
def absorbed_windows(monkeypatch):
    """A one-element list counting the windows slot engines absorb."""
    count = [0]
    run = SlotEngine.run

    def counted(self, until_ns):
        absorbed = run(self, until_ns)
        count[0] += absorbed
        return absorbed

    monkeypatch.setattr(SlotEngine, "run", counted)
    return count


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_runs_end_to_end(experiment_id, tiny_experiments,
                                    absorbed_windows):
    result = run_experiment(experiment_id, jobs=1)
    assert result.experiment_id == experiment_id
    assert result.rows, f"{experiment_id} produced no rows"
    table = result.to_table()
    assert result.title in table
    for header in result.headers:
        assert header in table
    assert table_digest(result) == EXPERIMENT_TABLE_DIGESTS[experiment_id], \
        f"{experiment_id}: table diverges from its golden digest"
    assert (absorbed_windows[0] > 0) == \
        (experiment_id in SLOT_ENGINE_EXPERIMENTS), \
        f"{experiment_id}: slot engine absorbed {absorbed_windows[0]} windows"


@pytest.mark.parametrize("experiment_id", SLOT_ENGINE_EXPERIMENTS)
def test_object_kernel_matches_golden(experiment_id, tiny_experiments,
                                      absorbed_windows):
    with object_kernel():
        result = run_experiment(experiment_id, jobs=1)
    assert absorbed_windows[0] == 0
    assert table_digest(result) == EXPERIMENT_TABLE_DIGESTS[experiment_id], \
        f"{experiment_id}: object-kernel table diverges from its golden digest"


@pytest.mark.parametrize("experiment_id", sorted(BIT_ACCURATE_TABLE_DIGESTS))
def test_bit_accurate_experiment_matches_golden(experiment_id,
                                                tiny_experiments,
                                                monkeypatch):
    monkeypatch.setenv(BIT_ACCURATE_ENV_VAR, "1")
    result = run_experiment(experiment_id, jobs=1)
    assert table_digest(result) == \
        BIT_ACCURATE_TABLE_DIGESTS[experiment_id], \
        f"{experiment_id}: bit-accurate table diverges from its golden digest"


def test_registry_descriptions_are_nonempty():
    for experiment_id, (run, description) in EXPERIMENTS.items():
        assert callable(run)
        assert description.strip(), f"{experiment_id} has no description"
