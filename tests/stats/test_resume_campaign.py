"""Acceptance: a twice-killed, twice-resumed parallel campaign is
byte-identical to a clean sequential run.

The scenario fault tolerance is measured by: a tiny ``ext_interference``
campaign on two local fabric workers is killed mid-run twice — once by
injected crashes of both workers (chaos schedule, respawn budget 0, so
no worker is left to take the leases over), once by a simulated Ctrl-C —
resumed from its result journal each time, and the final
:class:`~repro.stats.sweep.SweepPoint` aggregates must have exactly the
same pickle bytes as an uninterrupted sequential run.  A counting
side-file bounds the recomputation: beyond one execution per task, at
most the in-flight chunks of each kill run again.
"""

from __future__ import annotations

import json
import os
import pickle
import time

import pytest

from repro.experiments import ext_interference
from repro.experiments.common import run_sweep
from repro.stats.chaos import ChaosConfig
from repro.stats.fabric import FabricError, FabricExecutor
from repro.stats.lease import LeaseExecutor
from repro.stats.store import SpecMismatchError
from repro.stats.sweep import Sweep, flat_tasks

SEED = 606
TRIALS = 5
JOBS = 2


class _CountingCampaignTrial:
    """Picklable ``ext_interference.run_trial`` wrapper that logs every
    execution's seed to an O_APPEND side file (fork-safe, so worker-side
    executions are visible to the parent)."""

    def __init__(self, path):
        self.path = path

    def __call__(self, x, seed):
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(f"{seed:#x}\n")
        return ext_interference.run_trial(x, seed)


def _executions(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as stream:
        return stream.read().split()


def _settled_executions(path, settle_s=0.6, timeout_s=10.0):
    """The execution log once abandoned workers are gone: a worker
    terminated mid-chunk may have appended to the log just before, so
    wait until it stops growing."""
    deadline = time.monotonic() + timeout_s
    last, last_change = _executions(path), time.monotonic()
    while time.monotonic() < deadline:
        time.sleep(0.1)
        current = _executions(path)
        if current != last:
            last, last_change = current, time.monotonic()
        elif time.monotonic() - last_change >= settle_s:
            break
    return last


def _journal_keys(journal_path):
    if not os.path.exists(journal_path):
        return set()
    keys = set()
    with open(journal_path, encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            if record.get("kind") != "header":
                keys.add(tuple(record["k"]))
    return keys


def _campaign_tasks(xs):
    sweep = Sweep(master_seed=SEED, trials_per_point=TRIALS)
    tasks, _ = flat_tasks([(sweep, xs, ext_interference.run_trial)])
    return tasks


def _early_crash_chaos(tasks, state_dir) -> ChaosConfig:
    """A chaos schedule crashing exactly ``JOBS`` trials, all in the first
    half of the task queue (so the first kill lands before the campaign
    is nearly done): each crash kills one worker, since a fault fires
    once — found by deterministic scan, like any other seed choice."""
    seeds = [task[3] for task in tasks]
    early = set(seeds[:len(seeds) // 2])
    for chaos_seed in range(20000):
        config = ChaosConfig(seed=chaos_seed, crash=0.15)
        plan = config.schedule(seeds)
        if len(plan) == JOBS and set(plan) <= early:
            return config.with_state_dir(state_dir)
    raise AssertionError("no early-crash chaos seed found")


def test_twice_killed_twice_resumed_campaign_matches_sequential(
        tiny_experiments, monkeypatch, tmp_path):
    from repro.stats.chaos import CHAOS_ENV_VAR

    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    resume_dir = str(tmp_path / "journals")
    xs = [(float(count), str(count))
          for count in ext_interference.PICONET_COUNTS]
    tasks = _campaign_tasks(xs)
    assert len(tasks) == len(xs) * TRIALS

    # clean sequential reference — the bytes every resumed run must hit
    reference_fn = _CountingCampaignTrial(str(tmp_path / "reference.log"))
    reference = run_sweep(SEED, TRIALS, xs, reference_fn, jobs=1)
    reference_bytes = pickle.dumps(reference)
    assert len(_executions(str(tmp_path / "reference.log"))) == len(tasks)

    campaign_fn = _CountingCampaignTrial(str(tmp_path / "campaign.log"))

    # kill 1 — injected worker deaths: the chaos crashes take every local
    # worker down, and the exhausted respawn budget (0) surfaces it after
    # checkpointing
    chaos = _early_crash_chaos(tasks, str(tmp_path / "ledger"))
    with FabricExecutor(workers=JOBS, chaos=chaos,
                        max_worker_respawns=0) as executor:
        with pytest.raises(FabricError, match="rerun to resume"):
            run_sweep(SEED, TRIALS, xs, campaign_fn, executor=executor,
                      resume=resume_dir, store_name="acceptance")

    journal_path = os.path.join(resume_dir, "acceptance.jsonl")
    campaign_log = str(tmp_path / "campaign.log")
    keys_after_kill_1 = _journal_keys(journal_path)
    assert keys_after_kill_1 < set(tasks)  # a strict checkpoint, not done

    # kill 2 — simulated Ctrl-C after at least one fresh chunk landed
    def interrupt(progress):
        if progress["completed"] - progress["cached"] >= 1:
            raise KeyboardInterrupt

    with FabricExecutor(workers=JOBS, chaos=None,
                        on_progress=interrupt) as executor:
        with pytest.raises(KeyboardInterrupt):
            run_sweep(SEED, TRIALS, xs, campaign_fn, executor=executor,
                      resume=resume_dir, store_name="acceptance")

    # kill 2 made durable forward progress before dying
    keys_after_kill_2 = _journal_keys(journal_path)
    assert keys_after_kill_1 < keys_after_kill_2 < set(tasks)
    # wait for the log to settle, so the next run's executions can be
    # counted exactly
    executed_before_resume = _settled_executions(campaign_log)

    # resume 2 — a clean parallel run finishes the journal
    resumed = run_sweep(SEED, TRIALS, xs, campaign_fn, jobs=JOBS,
                        resume=resume_dir, store_name="acceptance")
    assert pickle.dumps(resumed) == reference_bytes

    # the journal holds each task exactly once (duplicates are discarded
    # before they reach the file)
    assert _journal_keys(journal_path) == set(tasks)
    with open(journal_path, encoding="utf-8") as stream:
        lines = [line for line in stream.read().splitlines() if line]
    assert len(lines) == len(tasks) + 1  # header + one record per task

    # ZERO recompute of journalled work: the resume executed exactly the
    # tasks the journal was missing, nothing more
    executed = _executions(campaign_log)
    resumed_executions = len(executed) - len(executed_before_resume)
    assert resumed_executions == len(tasks) - len(keys_after_kill_2)

    # and the total lost work is bounded by what each kill can abandon:
    # per kill, at most the ``jobs`` leases in flight (two tasks each
    # here), well inside this bound
    assert len(executed) <= len(tasks) + 2 * (2 * JOBS + 1)

    # a further run against the complete journal recomputes nothing
    run_sweep(SEED, TRIALS, xs, campaign_fn, jobs=JOBS,
              resume=resume_dir, store_name="acceptance")
    assert _executions(campaign_log) == executed


def test_sequential_chaos_resume_replays_journal_with_zero_recompute(
        tiny_experiments, monkeypatch, tmp_path):
    """The jobs=1 satellite of the fabric PR: a *sequential* campaign
    under ``REPRO_CHAOS`` transient exceptions dies checkpointed like a
    parallel one, and the rerun replays every journalled trial with zero
    recompute — each task executes exactly once across both runs."""
    from repro.stats.chaos import CHAOS_ENV_VAR, ChaosError

    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    resume_dir = str(tmp_path / "journals")
    xs = [(float(count), str(count))
          for count in ext_interference.PICONET_COUNTS]
    tasks = _campaign_tasks(xs)

    # clean sequential reference first, while chaos is off
    reference = run_sweep(SEED, TRIALS, xs, ext_interference.run_trial,
                          jobs=1)
    reference_bytes = pickle.dumps(reference)

    # exactly one transient exception, early in the queue but never on
    # the first task, so the kill leaves a non-empty checkpoint behind
    # (deterministic scan, mirroring _early_crash_chaos)
    seeds = [task[3] for task in tasks]
    early = set(seeds[1:len(seeds) // 2])
    for chaos_seed in range(20000):
        plan = ChaosConfig(seed=chaos_seed, exc=0.15).schedule(seeds)
        if len(plan) == 1 and set(plan) <= early:
            break
    else:
        raise AssertionError("no single-early-exc chaos seed found")
    monkeypatch.setenv(
        CHAOS_ENV_VAR,
        f"seed={chaos_seed},exc=0.15,state={tmp_path / 'ledger'}")

    campaign_log = str(tmp_path / "campaign.log")
    campaign_fn = _CountingCampaignTrial(campaign_log)
    # retries disabled, so the injected fault kills the sequential run —
    # after the journal checkpointed everything completed before it
    with LeaseExecutor(max_retries=0) as executor:
        with pytest.raises(ChaosError, match="injected"):
            run_sweep(SEED, TRIALS, xs, campaign_fn, executor=executor,
                      resume=resume_dir, store_name="sequential")

    journal_path = os.path.join(resume_dir, "sequential.jsonl")
    done = _journal_keys(journal_path)
    assert done and done < set(tasks)  # died mid-run, checkpointed
    # injection precedes the trial, so every executed trial is journalled
    assert len(_executions(campaign_log)) == len(done)

    # rerun at jobs=1 with REPRO_CHAOS still set: _campaign_executor
    # routes it through the in-process lease frame, the fault has fired
    # once (durable ledger), and the journalled prefix is replayed
    resumed = run_sweep(SEED, TRIALS, xs, campaign_fn, jobs=1,
                        resume=resume_dir, store_name="sequential")
    assert pickle.dumps(resumed) == reference_bytes
    # zero recompute: across both runs each task executed exactly once
    executed = _executions(campaign_log)
    assert len(executed) == len(tasks)
    assert len(set(executed)) == len(tasks)


def test_changed_campaign_spec_refuses_stale_journal(
        tiny_experiments, monkeypatch, tmp_path):
    from repro.stats.chaos import CHAOS_ENV_VAR

    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    resume_dir = str(tmp_path / "journals")
    xs = [(float(count), str(count))
          for count in ext_interference.PICONET_COUNTS]
    run_sweep(SEED, 1, xs, ext_interference.run_trial, jobs=1,
              resume=resume_dir, store_name="acceptance")
    # a different master seed is a different campaign — same journal name,
    # but the spec digest no longer matches, so the resume is refused
    with pytest.raises(SpecMismatchError, match="refusing to resume"):
        run_sweep(SEED + 1, 1, xs, ext_interference.run_trial, jobs=1,
                  resume=resume_dir, store_name="acceptance")


def test_resume_env_var_activates_journalling(tiny_experiments, monkeypatch,
                                              tmp_path):
    from repro.stats.store import RESUME_DIR_ENV_VAR

    monkeypatch.setenv("REPRO_TRIALS", "1")
    monkeypatch.setenv(RESUME_DIR_ENV_VAR, str(tmp_path / "journals"))
    result = ext_interference.run(trials=1, seed=SEED, jobs=1)
    assert result.rows
    journal = tmp_path / "journals" / "ext_interference.jsonl"
    assert journal.exists()
    # the second run resumes from the journal and reproduces the table
    assert ext_interference.run(trials=1, seed=SEED, jobs=1).rows \
        == result.rows
