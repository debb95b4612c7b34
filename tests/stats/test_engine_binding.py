"""Regression: result journals are bound to the simulation engine and to
the campaign-spec version.

A journal written under the object kernel holds object-kernel outcomes;
resuming it under ``REPRO_ENGINE=soa`` (or vice versa) must be refused
through the existing spec-digest handshake, not silently mixed.  The
engines are byte-identical by contract, so this guard only ever fires
when that contract has regressed — exactly when mixing would corrupt a
campaign.  A journal written under an older spec version is refused the
same way.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments import ext_interference
from repro.experiments.common import run_sweep
from repro.sim.soa import ENGINE_ENV_VAR
from repro.stats.store import ResultStore, SpecMismatchError, campaign_digest
from repro.stats.sweep import Sweep, campaign_spec

SEED = 606


def _spec(monkeypatch, engine):
    monkeypatch.setenv(ENGINE_ENV_VAR, engine)
    sweep = Sweep(master_seed=SEED, trials_per_point=1)
    xs = [(0.0, "0")]
    return campaign_spec([(sweep, xs, ext_interference.run_trial)])


def test_campaign_spec_carries_engine(monkeypatch):
    spec_obj = _spec(monkeypatch, "object")
    spec_soa = _spec(monkeypatch, "soa")
    assert spec_obj["engine"] == "object"
    assert spec_soa["engine"] == "soa"
    assert campaign_digest(spec_obj) != campaign_digest(spec_soa)


def test_journal_refuses_other_engine(tiny_experiments, monkeypatch,
                                      tmp_path):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    resume_dir = str(tmp_path / "journals")
    xs = [(float(count), str(count))
          for count in ext_interference.PICONET_COUNTS]
    reference = run_sweep(SEED, 1, xs, ext_interference.run_trial, jobs=1,
                          resume=resume_dir, store_name="engine")
    # same engine: the journal is replayed and reproduces the run
    resumed = run_sweep(SEED, 1, xs, ext_interference.run_trial, jobs=1,
                        resume=resume_dir, store_name="engine")
    assert pickle.dumps(resumed) == pickle.dumps(reference)
    # other engine: same journal name, different campaign — refused
    monkeypatch.setenv(ENGINE_ENV_VAR, "soa")
    with pytest.raises(SpecMismatchError, match="refusing to resume"):
        run_sweep(SEED, 1, xs, ext_interference.run_trial, jobs=1,
                  resume=resume_dir, store_name="engine")


def test_journal_from_spec_version_1_is_refused(monkeypatch, tmp_path):
    """Version 2 dropped the per-sweep seed-formula flag: a journal whose
    header carries a version-1 digest of the same campaign is refused
    before any trial runs."""
    spec = _spec(monkeypatch, "object")
    assert spec["version"] == 2
    old_spec = dict(spec, version=1)
    ResultStore(str(tmp_path / "old.jsonl"), campaign_digest(old_spec)).close()
    with pytest.raises(SpecMismatchError, match="refusing to resume"):
        run_sweep(SEED, 1, [(0.0, "0")], ext_interference.run_trial, jobs=1,
                  resume=str(tmp_path), store_name="old")
