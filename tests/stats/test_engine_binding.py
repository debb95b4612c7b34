"""Regression: result journals are bound to the channel mode and to the
campaign-spec version.

``REPRO_BIT_ACCURATE`` switches every experiment between the statistical
per-stage channel and full air-frame encode/decode, so the two modes give
different outcomes.  A journal written in one mode must be refused when
resumed in the other through the spec-digest handshake, not silently
mixed into a table of the other mode.  A journal written under an older
spec version is refused the same way.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.experiments.common import map_points, run_sweep
from repro.options import BIT_ACCURATE_ENV_VAR
from repro.stats.montecarlo import TrialOutcome
from repro.stats.store import ResultStore, SpecMismatchError, campaign_digest
from repro.stats.sweep import Sweep, campaign_spec

SEED = 606
XS = [(1.0, "1"), (2.0, "2")]


def _trial(x, seed):
    """Module-level trial body: the journal binding does not depend on it."""
    return TrialOutcome(seed=seed, success=True, value=x)


def _sweep(resume_dir, store_name="mode"):
    return run_sweep(SEED, 2, XS, _trial, jobs=1, resume=str(resume_dir),
                     store_name=store_name)


def test_journal_spec_carries_the_channel_mode(monkeypatch, tmp_path):
    """The journal header binds the campaign spec with the channel mode
    added."""
    spec = campaign_spec([(Sweep(master_seed=SEED, trials_per_point=2), XS,
                           _trial)])
    assert spec["version"] == 3 and "bit_accurate" not in spec
    for mode, value in ((False, "0"), (True, "1")):
        monkeypatch.setenv(BIT_ACCURATE_ENV_VAR, value)
        _sweep(tmp_path / value)
        with open(tmp_path / value / "mode.jsonl", encoding="utf-8") as stream:
            header = json.loads(stream.readline())
        assert header["spec_digest"] == \
            campaign_digest(dict(spec, bit_accurate=mode))


def test_journal_refuses_other_channel_mode(monkeypatch, tmp_path):
    monkeypatch.delenv(BIT_ACCURATE_ENV_VAR, raising=False)
    reference = _sweep(tmp_path)
    # same mode: the journal is replayed and reproduces the run
    assert pickle.dumps(_sweep(tmp_path)) == pickle.dumps(reference)
    # other mode: same journal name, different campaign — refused
    monkeypatch.setenv(BIT_ACCURATE_ENV_VAR, "1")
    with pytest.raises(SpecMismatchError, match="refusing to resume"):
        _sweep(tmp_path)


def test_journal_from_spec_version_2_is_refused(monkeypatch, tmp_path):
    """Version 3 dropped the engine key: a journal whose header carries
    the version-2 digest of the same campaign is refused before any trial
    runs."""
    monkeypatch.delenv(BIT_ACCURATE_ENV_VAR, raising=False)
    spec = campaign_spec([(Sweep(master_seed=SEED, trials_per_point=2), XS,
                           _trial)])
    old_spec = {**spec, "version": 2, "engine": "object"}
    ResultStore(str(tmp_path / "old.jsonl"), campaign_digest(old_spec)).close()
    with pytest.raises(SpecMismatchError, match="refusing to resume"):
        _sweep(tmp_path, store_name="old")


def _point_value(x):
    """Module-level grid point body for the map_points journal case."""
    return x * x


def test_map_points_journal_refuses_other_channel_mode(monkeypatch,
                                                       tmp_path):
    """``map_points`` grids (fig10-12, ext_throughput) bind their journals
    to the channel mode too: resumed in the same mode, refused in the
    other."""
    monkeypatch.delenv(BIT_ACCURATE_ENV_VAR, raising=False)
    tasks = [(1,), (2,), (3,)]
    resume_dir = str(tmp_path / "journals")
    first = map_points(_point_value, tasks, jobs=1, resume=resume_dir,
                       store_name="points")
    assert first == [1, 4, 9]
    assert map_points(_point_value, tasks, jobs=1, resume=resume_dir,
                      store_name="points") == first
    monkeypatch.setenv(BIT_ACCURATE_ENV_VAR, "1")
    with pytest.raises(SpecMismatchError, match="refusing to resume"):
        map_points(_point_value, tasks, jobs=1, resume=resume_dir,
                   store_name="points")
