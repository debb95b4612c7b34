"""Sweep fabric tests: protocol, leasing, recovery, identity.

The fabric is the backend of every parallel run, so the bar is the one
every execution backend in this repository pins: whatever the fabric
weather — worker deaths, dropped connections, heartbeat blackholes,
duplicated or delayed deliveries, stolen leases, transient trial
failures, interrupts — a campaign that completes returns exactly the
sequential reference bytes, and a campaign that dies leaves a journal a
fresh run finishes from with zero recompute of journalled work.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import socket
import threading
import time

import pytest

from repro.stats.chaos import ChaosConfig
from repro.stats.fabric import (
    FABRIC_ENV_VAR,
    FabricCoordinator,
    FabricError,
    FabricExecutor,
    FabricProtocolError,
    FabricWorker,
    WorkerRefusedError,
    _local_worker_main,
    parse_address,
    recv_message,
    send_message,
)
from repro.stats.lease import LeaseExecutor
from repro.stats.montecarlo import TrialExecutionError
from repro.stats.store import ResultStore, campaign_digest

SPEC_DIGEST = campaign_digest({"campaign": "fabric-tests"})

#: The keyed task grid (sweep, point, trial, seed) every test maps over.
TASKS = [(0, index // 8, index % 8, 0x7000 + index) for index in range(32)]

REFERENCE = [seed * seed for _, _, _, seed in TASKS]


def _square(task):
    """Module-level (hence picklable) trial body: a pure seed function."""
    return task[3] * task[3]


def _worker_pid(task):
    """Module-level trial reporting which process ran it."""
    return os.getpid()


def _slow_square(task):
    time.sleep(0.05)
    return _square(task)


def _late_worker(event, address, digest, name):
    """A local worker that starts serving once ``event`` is set."""
    event.wait(timeout=10.0)
    _local_worker_main(address, digest, None, name)


def _fragile(task):
    """Fails permanently at one specific trial coordinate."""
    if task[2] == 5 and task[1] == 1:
        raise ValueError("persistent trial bug")
    return task[3] * task[3]


class _CountingTrial:
    """Picklable wrapper counting executions via an O_APPEND side file —
    fork-safe, so fabric-worker executions are visible to the test."""

    def __init__(self, path):
        self.path = path

    def __call__(self, task):
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(f"{task[3]:#x}\n")
        return _square(task)


def _executions(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as stream:
        return stream.read().split()


def _chaos_seed_with(kind: str, rate: float, count: int = None,
                     seeds=None, net: bool = False) -> int:
    """A chaos seed whose (net) schedule over the task seeds has faults
    of only ``kind`` (optionally exactly ``count``) — deterministic scan."""
    seeds = [task[3] for task in TASKS] if seeds is None else seeds
    for chaos_seed in range(20000):
        config = ChaosConfig(seed=chaos_seed, **{kind: rate})
        plan = config.net_schedule(seeds) if net else config.schedule(seeds)
        if plan and (count is None or len(plan) == count):
            return chaos_seed
    raise AssertionError("no suitable chaos seed found")


def _journal_lines(path):
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream.read().splitlines()
                if line]


# -- protocol ---------------------------------------------------------------

class TestProtocol:
    def _pair(self):
        left, right = socket.socketpair()
        return left, right

    def test_roundtrip(self):
        left, right = self._pair()
        try:
            send_message(left, {"type": "hello", "worker": "w", "n": 3})
            assert recv_message(right) == {"type": "hello", "worker": "w",
                                           "n": 3}
            # frames queue back-to-back without losing boundaries
            send_message(right, {"type": "a"})
            send_message(right, {"type": "b"})
            assert recv_message(left) == {"type": "a"}
            assert recv_message(left) == {"type": "b"}
        finally:
            left.close()
            right.close()

    def test_clean_close_reads_none(self):
        left, right = self._pair()
        left.close()
        try:
            assert recv_message(right) is None
        finally:
            right.close()

    def test_malformed_frame_refused(self):
        left, right = self._pair()
        try:
            left.sendall(b"\x00\x00\x00\x02[]")  # JSON but not an object
            with pytest.raises(FabricProtocolError, match="malformed"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_oversized_frame_refused(self):
        left, right = self._pair()
        try:
            left.sendall(b"\xff\xff\xff\xff")  # 4 GiB length prefix
            with pytest.raises(FabricProtocolError, match="cap"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.5:7919") == ("10.0.0.5", 7919)
        assert parse_address(":7919") == ("127.0.0.1", 7919)
        with pytest.raises(ValueError, match="host:port"):
            parse_address("7919")


class _TimesOut:
    """A heartbeat stop event whose first ``times`` waits time out and
    whose next wait finds it set."""

    def __init__(self, times: int):
        self.times = times

    def wait(self, timeout=None) -> bool:
        self.times -= 1
        return self.times < 0


class TestHeartbeat:
    def _worker(self, sock):
        worker = FabricWorker(("127.0.0.1", 1), name="hb",
                              chaos=ChaosConfig())
        worker._sock = sock
        return worker

    def test_beats_on_its_connection(self):
        left, right = socket.socketpair()
        try:
            self._worker(left)._heartbeat_loop(left, 0.0, _TimesOut(2))
            assert [recv_message(right) for _ in range(2)] == \
                [{"type": "heartbeat", "worker": "hb"}] * 2
        finally:
            left.close()
            right.close()

    def test_ends_quietly_once_its_connection_is_gone(self):
        # the worker's run loop sets the stop event and then clears
        # _sock; a wait that timed out just before must not send
        left, right = socket.socketpair()
        try:
            self._worker(None)._heartbeat_loop(left, 0.0, _TimesOut(1))
            left.close()
            assert recv_message(right) is None  # nothing was sent
        finally:
            left.close()
            right.close()

    def test_never_beats_on_a_later_connection(self):
        old, old_peer = socket.socketpair()
        later, later_peer = socket.socketpair()
        try:
            self._worker(later)._heartbeat_loop(old, 0.0, _TimesOut(1))
            old.close()
            later.close()
            assert recv_message(old_peer) is None
            assert recv_message(later_peer) is None
        finally:
            for sock in (old, old_peer, later, later_peer):
                sock.close()


class TestFromSpec:
    def test_defaults(self):
        for spec in (None, "", "fabric", "on"):
            executor = FabricExecutor.from_spec(spec)
            assert executor.workers == 2
            assert executor.bind == ("127.0.0.1", 0)

    def test_parses_all_keys(self):
        executor = FabricExecutor.from_spec(
            "bind=0.0.0.0:7919,workers=4,chunk=8,heartbeat_s=0.5,"
            "timeout_s=3,steal_s=5,steals=1,retries=3,respawns=0,"
            "digest=abc123")
        assert executor.bind == ("0.0.0.0", 7919)
        assert executor.workers == 4
        assert executor.chunk_size == 8
        assert executor.heartbeat_interval_s == 0.5
        assert executor.heartbeat_timeout_s == 3.0
        assert executor.steal_after_s == 5.0
        assert executor.max_steals == 1
        assert executor.max_retries == 3
        assert executor.max_worker_respawns == 0
        assert executor.spec_digest == "abc123"

    def test_unknown_key_rejected_loudly(self):
        with pytest.raises(ValueError, match="unknown"):
            FabricExecutor.from_spec("wrokers=2")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            FabricExecutor.from_spec("workers")

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(FABRIC_ENV_VAR, "workers=3,chunk=2")
        executor = FabricExecutor.from_env()
        assert executor.workers == 3
        assert executor.chunk_size == 2


# -- determinism ------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_sequential_reference(self, workers):
        executor = FabricExecutor(workers=workers, chaos=None)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE

    def test_plain_map_uses_synthetic_keys(self):
        executor = FabricExecutor(workers=2, chaos=None)
        assert executor.map(_square, TASKS) == REFERENCE
        assert LeaseExecutor().map(_square, TASKS) == REFERENCE

    def test_ordered_progress_callback_covers_every_index(self):
        seen = []
        FabricExecutor(workers=4, chaos=None).map_keyed(
            _square, TASKS, TASKS, progress=lambda i, r: seen.append((i, r)))
        assert seen == list(enumerate(REFERENCE))

    def test_mismatched_keys_rejected(self):
        executor = FabricExecutor(workers=2, chaos=None)
        with pytest.raises(ValueError, match="items but"):
            executor.map_keyed(_square, TASKS, TASKS[:-1])

    def test_single_local_worker_serves_every_lease(self):
        """One local worker still gets the leases: the frame's in-process
        path is for jobs=1 runs and unpicklable trials, never for a
        fabric with a worker."""
        executor = FabricExecutor(workers=1, chaos=None)
        pids = executor.map(_worker_pid, list(range(6)))
        assert len(set(pids)) == 1
        assert os.getpid() not in pids

    def test_unpicklable_fn_falls_back_to_sequential(self):
        executor = FabricExecutor(workers=2, chaos=None)
        reference = REFERENCE
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results = executor.map_keyed(lambda task: task[3] * task[3],
                                         TASKS, TASKS)
        assert results == reference

    def test_journal_cache_skips_recompute(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=None, journal=journal)
            assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=None, journal=journal)

            def _boom(task):
                raise AssertionError("journalled task recomputed")

            assert executor.map_keyed(_boom, TASKS, TASKS) == REFERENCE
            assert executor.last_progress["cached"] == len(TASKS)

    def test_partial_journal_computes_only_the_gap(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        log = str(tmp_path / "exec.log")
        with ResultStore(path, SPEC_DIGEST) as journal:
            for task in TASKS[:20]:
                journal.record(task, _square(task))
        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=None, journal=journal)
            assert executor.map_keyed(_CountingTrial(log), TASKS,
                                      TASKS) == REFERENCE
            assert len(journal) == len(TASKS)
        assert len(_executions(log)) == len(TASKS) - 20

    def test_journal_backed_progress_shape(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        snapshots = []
        with ResultStore(path, SPEC_DIGEST) as journal:
            for task in TASKS[:8]:
                journal.record(task, _square(task))
        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=None, journal=journal,
                                      on_progress=snapshots.append)
            executor.map_keyed(_square, TASKS, TASKS)
        assert snapshots[0]["cached"] == 8  # "resumed at 8/32" surfaced first
        assert snapshots[0]["completed"] == 8
        final = snapshots[-1]
        assert final["completed"] == final["total"] == len(TASKS)
        assert final["last_checkpoint"] is not None
        assert {"retries", "redispatches", "workers", "respawns"} \
            <= set(final)

    def test_late_local_worker_ends_the_map_at_once(self, monkeypatch):
        """A local worker that starts only after the map's last lease is
        done (it forked late, say) has no work left: the map ends at once
        instead of waiting for it, and no worker process is left."""
        context = multiprocessing.get_context("fork")
        done = context.Event()
        spawned = []
        spawn = FabricExecutor._spawn_worker

        def spawn_second_late(self, address, digest, slot):
            if slot == 0:
                proc = spawn(self, address, digest, slot)
            else:
                proc = context.Process(
                    target=_late_worker,
                    args=(done, address, digest, f"late-{slot}"),
                    daemon=True)
                proc.start()
            spawned.append(proc)
            return proc

        def note_progress(progress):
            if progress["completed"] == progress["total"]:
                done.set()

        monkeypatch.setattr(FabricExecutor, "_spawn_worker",
                            spawn_second_late)
        executor = FabricExecutor(workers=2, chaos=None,
                                  on_progress=note_progress)
        start = time.monotonic()
        assert executor.map(_square, TASKS[:16]) == REFERENCE[:16]
        assert time.monotonic() - start < 1.0
        assert len(spawned) == 2
        assert not any(proc.is_alive() for proc in spawned)


# -- handshake --------------------------------------------------------------

class TestHandshake:
    def test_mismatched_worker_refused(self):
        """A worker launched for another campaign spec must be refused at
        registration — the fabric's SpecMismatchError."""
        # a slow trial body keeps the campaign alive long enough for the
        # foreign worker to reach the handshake
        executor = FabricExecutor(workers=1, chaos=None, chunk_size=2,
                                  spec_digest="campaign-a")
        results = []
        runner = threading.Thread(
            target=lambda: results.append(
                executor.map_keyed(_slow_square, TASKS, TASKS)),
            daemon=True)
        runner.start()
        deadline = time.monotonic() + 5.0
        while executor.last_address is None \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert executor.last_address is not None

        foreign = FabricWorker(executor.last_address, digest="campaign-b",
                               chaos=None, max_reconnects=0)
        with pytest.raises(WorkerRefusedError, match="campaign-b"):
            foreign.run()
        runner.join(timeout=30.0)
        assert results == [REFERENCE]  # the legitimate worker finished
        assert executor.counters["workers_refused"] >= 1

    def test_matching_external_worker_serves(self):
        """An external FabricWorker with the right digest (or none) joins
        a running campaign and completes leases."""
        executor = FabricExecutor(workers=0, chaos=None,
                                  spec_digest="campaign-a",
                                  chunk_size=4)
        results = []
        runner = threading.Thread(
            target=lambda: results.append(
                executor.map_keyed(_square, TASKS, TASKS)),
            daemon=True)
        runner.start()
        deadline = time.monotonic() + 5.0
        while executor.last_address is None \
                and time.monotonic() < deadline:
            time.sleep(0.01)

        worker = FabricWorker(executor.last_address, digest="campaign-a",
                              chaos=None)
        completed = worker.run()  # returns after the shutdown message
        runner.join(timeout=30.0)
        assert results == [REFERENCE]
        assert completed >= 1


# -- recovery ---------------------------------------------------------------

class TestRecovery:
    def test_chaos_killed_worker_recovers_by_releasing(self, tmp_path):
        """A worker chaos-crashed mid-campaign, with the respawn budget at
        zero: recovery must come purely from re-leasing the dead worker's
        chunks to the surviving one."""
        chaos_seed = _chaos_seed_with("crash", 0.08, count=1)
        chaos = ChaosConfig(seed=chaos_seed, crash=0.08,
                            state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                                  max_worker_respawns=0,
                                  heartbeat_interval_s=0.05)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
        assert executor.counters["workers_lost"] >= 1
        assert executor.counters["redispatches"] >= 1

    def test_chaos_killed_workers_respawned(self, tmp_path):
        chaos = ChaosConfig(seed=_chaos_seed_with("crash", 0.1),
                            crash=0.1, state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=3, chaos=chaos,
                                  max_worker_respawns=10,
                                  heartbeat_interval_s=0.05)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
        assert executor.last_progress["respawns"] >= 1

    @pytest.mark.parametrize("workers,rate,count", [(1, 1.0, None),
                                                    (2, 0.1, 2)])
    def test_all_workers_dead_budget_exhausted_raises(self, tmp_path,
                                                      workers, rate, count):
        """Every worker dead and no respawns left: the journal is
        checkpointed, FabricError says to rerun, and a clean rerun
        finishes from it."""
        chaos = ChaosConfig(seed=_chaos_seed_with("crash", rate, count),
                            crash=rate, state_dir=str(tmp_path / "ledger"))
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=workers, chaos=chaos,
                                      chunk_size=4, journal=journal,
                                      max_worker_respawns=0,
                                      heartbeat_interval_s=0.05)
            with pytest.raises(FabricError, match="rerun to resume"):
                executor.map_keyed(_square, TASKS, TASKS)
            assert len(journal) < len(TASKS)
        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=None, journal=journal)
            assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE

    def test_chaos_exceptions_retried_to_success(self, tmp_path):
        chaos = ChaosConfig(seed=_chaos_seed_with("exc", 0.15),
                            exc=0.15, state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=3, chaos=chaos, max_retries=4,
                                  backoff_base_s=0.01)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
        assert executor.last_progress["retries"] >= 1

    def test_exhausted_retries_surface_replay_coordinates(self):
        executor = FabricExecutor(workers=2, chaos=None, chunk_size=1,
                                  max_retries=1, backoff_base_s=0.01)
        with pytest.warns(RuntimeWarning, match="replay the failing"):
            with pytest.raises(TrialExecutionError) as excinfo:
                executor.map_keyed(_fragile, TASKS, TASKS)
        error = excinfo.value
        failing = next(task for task in TASKS
                       if task[1] == 1 and task[2] == 5)
        assert error.key == failing
        assert f"{failing[3]:#018x}" in str(error)

    def test_trial_error_pickles_with_coordinates(self):
        error = TrialExecutionError(1, 2, 3, 0xABC, "ValueError('x')")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.key == error.key
        assert str(clone) == str(error)

    def test_connection_drop_is_survived(self, tmp_path):
        """A chaos-scheduled connection drop loses the in-flight result;
        the worker reconnects and the chunk is re-leased."""
        chaos_seed = _chaos_seed_with("drop", 0.08, count=1, net=True)
        chaos = ChaosConfig(seed=chaos_seed, drop=0.08,
                            state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                                  heartbeat_interval_s=0.05)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
        assert executor.counters["workers_lost"] >= 1

    def test_heartbeat_blackhole_expires_and_releases(self, tmp_path):
        """A blackholed worker (no heartbeats, result withheld) must be
        expired via missed heartbeats and its lease re-leased; its late
        delivery dies with the closed socket."""
        chaos_seed = _chaos_seed_with("blackhole", 0.06, count=1, net=True)
        chaos = ChaosConfig(seed=chaos_seed, blackhole=0.06,
                            blackhole_s=1.2,
                            state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                                  heartbeat_interval_s=0.05,
                                  heartbeat_timeout_s=0.3)
        assert executor.map_keyed(_slow_square, TASKS, TASKS) == REFERENCE
        assert executor.counters["heartbeats_missed"] >= 1

    def test_duplicate_delivery_dropped_before_journal(self, tmp_path):
        """A chaos-duplicated result delivery reaches the coordinator
        twice but the journal exactly once."""
        chaos_seed = _chaos_seed_with("dup", 0.10, net=True)
        chaos = ChaosConfig(seed=chaos_seed, dup=0.10,
                            state_dir=str(tmp_path / "ledger"))
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                                      journal=journal,
                                      heartbeat_interval_s=0.05)
            assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
            assert executor.counters["duplicates_dropped"] >= 1
        lines = _journal_lines(path)
        assert len(lines) == len(TASKS) + 1  # header + one line per task
        assert {tuple(line["k"]) for line in lines[1:]} == set(TASKS)

    def test_delayed_delivery_is_harmless(self, tmp_path):
        chaos_seed = _chaos_seed_with("delay", 0.10, net=True)
        chaos = ChaosConfig(seed=chaos_seed, delay=0.10, delay_s=0.2,
                            state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                                  heartbeat_interval_s=0.05)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE

    def test_straggler_lease_stolen_first_completion_wins(self, tmp_path):
        """A hang-chaosed worker holds its lease past steal_after_s while
        an idle worker exists: the lease is stolen, the thief's result
        wins, and the straggler's late duplicate is dropped."""
        chaos_seed = _chaos_seed_with("hang", 0.05, count=1)
        chaos = ChaosConfig(seed=chaos_seed, hang=0.05, hang_s=1.5,
                            state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=4,
                                  heartbeat_interval_s=0.05,
                                  heartbeat_timeout_s=5.0,
                                  steal_after_s=0.2)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
        assert executor.counters["leases_stolen"] >= 1

    def test_interrupted_coordinator_resumes_with_zero_recompute(
            self, tmp_path):
        """Coordinator death (simulated Ctrl-C out of on_progress): the
        journal holds every completed chunk, and the rerun executes only
        the tasks the journal is missing."""
        path = str(tmp_path / "j.jsonl")
        log = str(tmp_path / "exec.log")

        def interrupt(progress):
            if progress["completed"] - progress["cached"] >= 2:
                raise KeyboardInterrupt

        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=None, chunk_size=2,
                                      journal=journal,
                                      heartbeat_interval_s=0.05,
                                      on_progress=interrupt)
            with pytest.raises(KeyboardInterrupt):
                executor.map_keyed(_CountingTrial(log), TASKS, TASKS)
        # nothing keeps computing results nobody will collect
        assert not multiprocessing.active_children()

        with ResultStore(path, SPEC_DIGEST) as journal:
            done = set(journal.keys())
        assert done and done < set(TASKS)  # durable, partial checkpoint
        executed_before = _executions(log)

        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=None, chunk_size=2,
                                      journal=journal,
                                      heartbeat_interval_s=0.05)
            assert executor.map_keyed(_CountingTrial(log), TASKS,
                                      TASKS) == REFERENCE
            assert executor.last_progress["cached"] == len(done)
        executed = _executions(log)
        # zero recompute of journalled work: the rerun executed exactly
        # the tasks the journal was missing
        assert len(executed) - len(executed_before) == len(TASKS) - len(done)


# -- acceptance (ISSUE): an ext_interference campaign on the fabric ---------

SWEEP_SEED = 313
SWEEP_TRIALS = 4


class _CountingCampaignTrial:
    """Picklable ``ext_interference.run_trial`` wrapper logging every
    execution's seed to an O_APPEND side file (fork-safe)."""

    def __init__(self, path):
        self.path = path

    def __call__(self, x, seed):
        from repro.experiments import ext_interference

        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(f"{seed:#x}\n")
        return ext_interference.run_trial(x, seed)


def test_issue_acceptance_worker_killed_mid_campaign(
        tiny_experiments, monkeypatch, tmp_path):
    """The ISSUE bar: a 2-worker localhost fabric run of the
    ``ext_interference`` campaign with one worker chaos-killed mid-run
    (respawn budget zero, so recovery is pure re-leasing) completes
    byte-identical to the sequential reference, journals each task
    exactly once, and a rerun recomputes nothing."""
    import pickle

    from repro.experiments import ext_interference
    from repro.experiments.common import run_sweep
    from repro.stats.chaos import CHAOS_ENV_VAR
    from repro.stats.sweep import Sweep, flat_tasks

    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    monkeypatch.delenv(FABRIC_ENV_VAR, raising=False)
    resume_dir = str(tmp_path / "journals")
    xs = [(float(count), str(count))
          for count in ext_interference.PICONET_COUNTS]
    sweep = Sweep(master_seed=SWEEP_SEED, trials_per_point=SWEEP_TRIALS)
    tasks, _ = flat_tasks([(sweep, xs, ext_interference.run_trial)])

    reference = run_sweep(SWEEP_SEED, SWEEP_TRIALS, xs,
                          ext_interference.run_trial, jobs=1)
    reference_bytes = pickle.dumps(reference)

    seeds = [task[3] for task in tasks]
    chaos_seed = _chaos_seed_with("crash", 0.1, count=1, seeds=seeds)
    chaos = ChaosConfig(seed=chaos_seed, crash=0.1,
                        state_dir=str(tmp_path / "ledger"))

    log = str(tmp_path / "campaign.log")
    campaign_fn = _CountingCampaignTrial(log)
    executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                              max_worker_respawns=0,
                              heartbeat_interval_s=0.05)
    result = run_sweep(SWEEP_SEED, SWEEP_TRIALS, xs, campaign_fn,
                       executor=executor, resume=resume_dir,
                       store_name="fabric")
    assert pickle.dumps(result) == reference_bytes
    assert executor.counters["workers_lost"] >= 1  # the kill happened

    journal_path = os.path.join(resume_dir, "fabric.jsonl")
    lines = _journal_lines(journal_path)
    assert len(lines) == len(tasks) + 1  # header + exactly one per task
    assert {tuple(line["k"]) for line in lines[1:]} == set(tasks)

    # lost work is bounded by the crashed chunk: only its trials rerun
    executed = _executions(log)
    assert len(tasks) <= len(executed) <= len(tasks) + executor.chunk_size

    # zero recompute of journalled work: a fresh fabric run against the
    # complete journal executes nothing
    rerun = run_sweep(SWEEP_SEED, SWEEP_TRIALS, xs, campaign_fn,
                      executor=FabricExecutor(workers=2, chaos=None),
                      resume=resume_dir, store_name="fabric")
    assert pickle.dumps(rerun) == reference_bytes
    assert _executions(log) == executed


def test_string_executor_runs_on_fabric_from_env(
        tiny_experiments, monkeypatch):
    """``REPRO_FABRIC`` spec and no ``executor=``: the campaign entry
    point picks an owned fabric executor and still hits the sequential
    bytes."""
    import pickle

    from repro.experiments import ext_interference
    from repro.experiments.common import run_sweep
    from repro.stats.chaos import CHAOS_ENV_VAR

    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    xs = [(float(count), str(count))
          for count in ext_interference.PICONET_COUNTS]
    reference_bytes = pickle.dumps(
        run_sweep(SWEEP_SEED, SWEEP_TRIALS, xs,
                  ext_interference.run_trial, jobs=1))
    monkeypatch.setenv(FABRIC_ENV_VAR, "workers=2,chunk=2")
    result = run_sweep(SWEEP_SEED, SWEEP_TRIALS, xs,
                       ext_interference.run_trial)
    assert pickle.dumps(result) == reference_bytes
