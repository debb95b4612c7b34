"""Registry smoke suite: every experiment must run end-to-end and
reproduce its golden table.

New experiments are registered in ``repro.experiments.registry``; this
suite executes each of them at tiny scale (2 trials, short windows — see
the ``tiny_experiments`` fixture) so an experiment that bit-rots fails
loudly instead of silently dropping out of coverage.  Every run is also
pinned to the sha256 of its rendered table (``tests/experiment_goldens.py``),
so any change to an outcome anywhere in the stack — channel, baseband,
link, seeds or dispatch — fails here by name.
"""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.common import BIT_ACCURATE_ENV_VAR

from tests.experiment_goldens import (
    BIT_ACCURATE_TABLE_DIGESTS,
    EXPERIMENT_TABLE_DIGESTS,
    table_digest,
)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_runs_end_to_end(experiment_id, tiny_experiments):
    result = run_experiment(experiment_id, jobs=1)
    assert result.experiment_id == experiment_id
    assert result.rows, f"{experiment_id} produced no rows"
    table = result.to_table()
    assert result.title in table
    for header in result.headers:
        assert header in table
    assert table_digest(result) == EXPERIMENT_TABLE_DIGESTS[experiment_id], \
        f"{experiment_id}: table diverges from its golden digest"


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
