"""The process pool: the one backend that fans trials out on one host.

:class:`ResilientExecutor` leases chunks of the task queue to forked
worker processes through the lease frame (:mod:`repro.stats.lease`),
which gives it the determinism contract of every
:class:`~repro.stats.executor.Executor` — same ordered result list at
any job count — plus journal resume, ordered progress and the
journal-backed progress dict.  Every parallel run goes through it;
at one job (or for an unpicklable trial function) the frame runs the
tasks in process instead.  On top of the frame, the pool survives:

* **Worker death** (``BrokenProcessPool`` — OOM kill, segfault, chaos
  crash): the pool is rebuilt and every unfinished lease is re-submitted,
  up to ``max_pool_rebuilds`` times; past the budget the journal is
  checkpointed and the error propagates, so a resumed run loses at most
  the leases that were in flight.
* **Stragglers / hangs**: each lease carries a deadline
  (``chunk_timeout_s``); an overdue lease is re-dispatched to another
  worker.  First completion wins — duplicates are byte-identical because
  trials are pure functions of their seeds, so re-dispatch is free.
* **Transient trial failures** (:class:`~repro.stats.chaos.ChaosError`,
  or any exception escaping a trial): bounded retry with exponential
  backoff; on exhaustion the failure surfaces as a
  :class:`~repro.stats.montecarlo.TrialExecutionError` carrying the
  ``(sweep, point, trial, seed)`` replay coordinates, after a warning
  that quotes the replay seed.
* **Interrupts** (Ctrl-C): the journal is flushed to its last consistent
  checkpoint and the pool is shut down with ``cancel_futures`` before
  the ``KeyboardInterrupt`` propagates — a killed campaign resumes from
  the journal with no recompute beyond the in-flight leases.

The progress dict carries ``{completed, total, cached, retries,
redispatches, pool_rebuilds, last_checkpoint}``.  Deterministic fault
injection for testing all of the above lives in :mod:`repro.stats.chaos`
(``REPRO_CHAOS``).
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional

from repro.stats.chaos import ChaosConfig
from repro.stats.executor import default_jobs
from repro.stats.lease import LeaseExecutor, run_chunk
from repro.stats.store import ResultStore


class ResilientExecutor(LeaseExecutor):
    """Process-pool executor with worker-death recovery, lease timeouts,
    bounded retry and journal-backed resume.  See the module docstring;
    ``journal``, ``chaos``, ``max_retries``, ``backoff_base_s`` and
    ``on_progress`` are the frame's
    (:class:`~repro.stats.lease.LeaseExecutor`).

    ``jobs``
        worker processes.  An explicit count is honoured verbatim (0 or
        less: one per CPU); None resolves ``REPRO_JOBS`` through
        :func:`~repro.stats.executor.default_jobs`.  At one job the tasks
        run in process.
    ``chunk_size``
        tasks per lease (default: four leases per worker).
    ``chunk_timeout_s``
        straggler deadline per lease; ``None`` disables re-dispatch.
    ``max_pool_rebuilds``
        worker-pool deaths tolerated per ``map`` before giving up (the
        journal is checkpointed first either way).

    The pool is created lazily on the first dispatched ``map`` and reused
    across calls; call :meth:`close` (or use the executor as a context
    manager) to release the workers.
    """

    progress_counters = ("retries", "redispatches", "pool_rebuilds")

    def __init__(self, jobs: Optional[int] = None,
                 chunk_size: Optional[int] = None, *,
                 journal: Optional[ResultStore] = None,
                 chaos: Optional[ChaosConfig] = None,
                 chunk_timeout_s: Optional[float] = None,
                 max_retries: int = 2,
                 backoff_base_s: float = 0.25,
                 max_pool_rebuilds: int = 4,
                 on_progress: Optional[Callable[[dict], None]] = None):
        if jobs is None:
            jobs = default_jobs()
        elif jobs <= 0:
            jobs = max(1, os.cpu_count() or 1)
        super().__init__(int(jobs), chunk_size, journal=journal, chaos=chaos,
                         max_retries=max_retries,
                         backoff_base_s=backoff_base_s,
                         on_progress=on_progress)
        self.chunk_timeout_s = chunk_timeout_s
        self.max_pool_rebuilds = max_pool_rebuilds
        self._pool = None

    # -- the frame's hooks ------------------------------------------------

    def _in_process(self, n_pending: int) -> bool:
        return self.jobs <= 1 or n_pending <= 1

    def _dispatch(self, fn, leases, journal, counters, complete) -> None:
        remaining = len(leases)
        future_map: dict = {}

        def _submit(lease) -> None:
            lease.retry_at = None
            if self.chunk_timeout_s is not None:
                lease.deadline = time.monotonic() + self.chunk_timeout_s
            future = self._ensure_pool().submit(
                run_chunk, fn, lease.items, lease.keys, self.chaos)
            future_map[future] = lease

        def _rebuild_pool() -> None:
            counters["pool_rebuilds"] += 1
            if counters["pool_rebuilds"] > self.max_pool_rebuilds:
                raise BrokenProcessPool(
                    f"worker pool died {counters['pool_rebuilds']} times "
                    f"(budget {self.max_pool_rebuilds}); journal "
                    "checkpointed — rerun to resume from it")
            self._abort_pool()
            future_map.clear()  # every outstanding future died with the pool
            for lease in leases:
                if not lease.done and lease.retry_at is None:
                    _submit(lease)

        try:
            for lease in leases:
                _submit(lease)
            while remaining:
                if future_map:
                    done_set, _ = wait(list(future_map), timeout=0.05,
                                       return_when=FIRST_COMPLETED)
                else:
                    done_set = set()
                    time.sleep(0.005)
                broken = False
                for future in done_set:
                    lease = future_map.pop(future)
                    if lease.done:
                        continue  # a duplicate already won this lease
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken = True
                    except Exception as error:
                        lease.fail(error, self.max_retries,
                                   self.backoff_base_s, counters)
                    else:
                        lease.done = True
                        remaining -= 1
                        complete(lease, payload)
                if broken:
                    _rebuild_pool()
                    continue
                now = time.monotonic()
                for lease in leases:
                    if lease.done:
                        continue
                    if lease.retry_at is not None and now >= lease.retry_at:
                        _submit(lease)
                    elif (lease.deadline is not None
                          and lease.retry_at is None
                          and now >= lease.deadline):
                        # straggler: re-lease to another worker; first
                        # completion wins, the loser is discarded
                        lease.attempts += 1
                        if lease.attempts > self.max_retries:
                            raise TimeoutError(
                                f"chunk over its {self.chunk_timeout_s}s "
                                f"deadline {lease.attempts} times; journal "
                                "checkpointed — rerun to resume")
                        counters["redispatches"] += 1
                        _submit(lease)
        except BaseException:
            # the clean-kill path: drop the pool so nothing keeps
            # computing results nobody will collect (the frame
            # checkpoints the journal on the way out)
            self._abort_pool()
            raise

    # -- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # prefer fork where available: workers inherit the parent's
            # in-memory module state, so runtime-patched experiment
            # constants (test fixtures, notebooks) behave identically in
            # and out of process — spawn/forkserver re-import and would
            # silently diverge from the sequential path
            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:
                warnings.warn(
                    "fork start method unavailable; spawn workers re-import "
                    "modules, so runtime-patched experiment state will not "
                    "reach them and parallel results may diverge from the "
                    "sequential path", RuntimeWarning, stacklevel=3)
            self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                             mp_context=context)
        return self._pool

    def _abort_pool(self) -> None:
        """Drop the pool without waiting: cancel queued work, leave no
        reference behind so the next submit builds a fresh pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
