"""Bench: distributed-fabric smoke — a chaos-killed 2-worker campaign.

The fabric acceptance property at bench scale: the dense deployment
campaign runs on a localhost coordinator + 2 fork workers (activated the
way an operator would, via ``REPRO_FABRIC``) under a ``REPRO_CHAOS``
schedule that kills one worker mid-run, with the respawn budget zeroed —
so recovery must come purely from dead-connection detection + re-leasing
to the survivor.  The campaign must complete in that single run, journal
each trial exactly once, and the resulting table must be byte-identical
(pickled rows) to an uninterrupted sequential run.  The timed quantity
is the whole fabric campaign including the recovery, so the archived
number tracks the re-lease overhead, not just the happy path.

Scale via ``REPRO_TRIALS`` like every other bench (CI runs this with
``REPRO_TRIALS=2``).
"""

from __future__ import annotations

import json
import os
import pickle

from benchmarks.conftest import run_once
from repro.experiments import ext_interference
from repro.options import CHAOS_ENV_VAR, FABRIC_ENV_VAR, JOBS_ENV_VAR
from repro.stats.chaos import ChaosConfig
from repro.stats.montecarlo import default_trials
from repro.stats.sweep import Sweep, flat_tasks

SEED = 22  # ext_interference.run's default, so the spec digests line up


def _single_crash_env(tasks, state_dir: str) -> str:
    """A ``REPRO_CHAOS`` value whose schedule crashes exactly one trial
    of the campaign — found by deterministic scan, so the same worker
    dies at the same point on every host."""
    seeds = [task[3] for task in tasks]
    for chaos_seed in range(20000):
        if len(ChaosConfig(seed=chaos_seed, crash=0.08).schedule(seeds)) == 1:
            return f"seed={chaos_seed},crash=0.08,state={state_dir}"
    raise AssertionError("no single-crash chaos seed found")


def bench_fabric_worker_killed_campaign(benchmark, bench_report, tmp_path,
                                        monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    monkeypatch.delenv(FABRIC_ENV_VAR, raising=False)

    trials = default_trials(4)
    xs = [(float(count), str(count))
          for count in ext_interference.PICONET_COUNTS]
    tasks, _ = flat_tasks([(Sweep(master_seed=SEED, trials_per_point=trials),
                            xs, ext_interference.run_trial)])
    ledger = str(tmp_path / "ledger")
    resume_dir = str(tmp_path / "journals")
    journal = os.path.join(resume_dir, "ext_interference.jsonl")

    # the bytes the fabric run must reproduce — computed before the
    # fabric/chaos environment goes live
    sequential = ext_interference.run(trials=trials, seed=SEED, jobs=1)

    monkeypatch.setenv(CHAOS_ENV_VAR, _single_crash_env(tasks, ledger))
    monkeypatch.setenv(
        FABRIC_ENV_VAR, "workers=2,chunk=2,respawns=0,heartbeat_s=0.05")

    def fabric_campaign():
        return ext_interference.run(trials=trials, seed=SEED,
                                    resume=resume_dir)

    result = run_once(benchmark, fabric_campaign)
    bench_report(result)
    assert pickle.dumps(result.rows) == pickle.dumps(sequential.rows), \
        "fabric campaign must be byte-identical to the sequential run"
    assert [row[0] for row in result.rows] \
        == list(ext_interference.PICONET_COUNTS)
    assert all(row[-1] == f"{trials}/{trials}" for row in result.rows)

    # the chaos kill actually landed: the fire-once ledger holds its claim
    assert os.path.isdir(ledger) and len(os.listdir(ledger)) >= 1, \
        "the worker-kill fault never fired — the bench measured nothing"

    # the journal holds each task exactly once (duplicates dropped at the
    # coordinator before they reach the file)
    with open(journal, encoding="utf-8") as stream:
        records = [json.loads(line) for line in stream.read().splitlines()
                   if line]
    keys = [tuple(record["k"]) for record in records
            if record.get("kind") != "header"]
    assert len(keys) == len(set(keys)) == len(tasks)
