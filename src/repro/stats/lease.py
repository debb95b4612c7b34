"""The lease frame: the one keyed map behind every fault-tolerant run.

A **chunk lease** is the unit of recoverable work: a contiguous slice of
the flattened task queue, addressed by its ``(sweep, point, trial, seed)``
journal keys, with the retry bookkeeping a recovery loop needs.
:class:`LeaseExecutor` is the frame.  By itself it runs every task in
the calling process; :class:`~repro.stats.fabric.FabricExecutor`, its
one dispatching subclass, leases chunks to TCP workers instead — the
``jobs`` local fork workers of a parallel run on one host, or workers
on any host.  The frame owns every part of a map that does not depend on
how a lease reaches a worker:

* synthetic journal keys for a plain :meth:`~LeaseExecutor.map`;
* the journal-hit scan — journalled keys are never recomputed;
* ordered ``progress`` callbacks and the journal-backed progress dict;
* record-and-flush per completed lease, and a flush on any escape;
* the in-process path — chaos injection and bounded backoff retry per
  task — of a ``jobs=1`` run that is journalled, chaos-scheduled or
  progress-reporting, and of an unpicklable trial function.

The dispatching backend keeps only its counters and
:meth:`~LeaseExecutor._dispatch`, the loop that moves leases to workers
and back.  It shares the lease record, the lease sizes
(:func:`make_leases`) and the worker-side chunk body (:func:`run_chunk`)
with this module, so a task journalled in process resumes on workers
and back, and chaos injection behaves identically in process and in a
worker.
"""

from __future__ import annotations

import math
import tempfile
import time
import warnings
from typing import Any, Callable, Optional, Sequence

from repro.options import current
from repro.stats.chaos import (
    FAULT_KINDS,
    NET_FAULT_KINDS,
    ChaosConfig,
    ChaosError,
    maybe_inject,
)
from repro.stats.executor import Executor
from repro.stats.montecarlo import TrialExecutionError

#: Target number of leases handed to each worker; >1 keeps the workers
#: busy when per-trial wall-clock varies (high-BER trials run longer).
_CHUNKS_PER_JOB = 4


class ChunkLease:
    """One chunk of the task queue: its item indices and retry state.

    The fabric also tracks which workers hold the lease (``owners``),
    when it was last assigned (``assigned_at``) and how many duplicate
    assignments were stolen onto idle workers (``steals``).  First
    completion wins — duplicates are byte-identical because trials are
    pure functions of their seeds.
    """

    __slots__ = ("lease_id", "indices", "items", "keys", "attempts",
                 "retry_at", "done", "owners", "assigned_at", "steals")

    def __init__(self, indices: list, items: list, keys: list,
                 lease_id: int = 0):
        self.lease_id = lease_id
        self.indices = indices
        self.items = items
        self.keys = keys
        self.attempts = 0       # failed attempts so far
        self.retry_at = None    # monotonic backoff gate (failed leases)
        self.done = False
        self.owners: set = set()    # worker ids currently holding the lease
        self.assigned_at = None     # monotonic time of the last assignment
        self.steals = 0             # duplicate assignments so far

    def fail(self, error: BaseException, max_retries: int,
             backoff_base_s: float, counters: dict) -> None:
        """Count one failed attempt and gate the retry behind an
        exponential backoff (``retry_at``).  Past ``max_retries`` failed
        attempts ``error`` is raised instead — after a warning quoting
        the replay seed when a trial failed."""
        self.attempts += 1
        if self.attempts > max_retries:
            if isinstance(error, TrialExecutionError):
                warnings.warn(
                    f"lease failed {self.attempts} times; giving up — "
                    f"replay the failing trial with seed "
                    f"{error.seed:#018x}", RuntimeWarning, stacklevel=3)
            raise error
        counters["retries"] += 1
        self.retry_at = time.monotonic() + \
            backoff_base_s * (2 ** (self.attempts - 1))


def make_leases(items: Sequence, keys: Sequence, pending: Sequence[int],
                jobs: int, chunk_size: Optional[int] = None) -> list:
    """Slice the pending indices of ``items``/``keys`` into leases, in
    queue order, of ``chunk_size`` tasks — by default the load-balancing
    size that gives each of ``jobs`` workers ``_CHUNKS_PER_JOB`` leases."""
    if chunk_size is None:
        chunk_size = math.ceil(len(pending) / (max(1, jobs) * _CHUNKS_PER_JOB))
    size = max(1, chunk_size)
    return [
        ChunkLease(indices=list(pending[lo:lo + size]),
                   items=[items[i] for i in pending[lo:lo + size]],
                   keys=[keys[i] for i in pending[lo:lo + size]],
                   lease_id=lease_id)
        for lease_id, lo in enumerate(range(0, len(pending), size))
    ]


def run_chunk(fn: Callable[[Any], Any], chunk: list, keys: list,
              chaos: Optional[ChaosConfig]) -> list:
    """Worker-side chunk body: chaos injection + coordinate-tagged errors.

    Injection happens *before* the trial function runs, so trial outcomes
    are never perturbed — a completed chaos campaign stays byte-identical
    to a clean one.  Any exception escaping the trial is wrapped with its
    journal key so the parent can quote the replay seed.  Run by every
    fabric worker, local or remote.
    """
    results = []
    for item, key in zip(chunk, keys):
        maybe_inject(chaos, key[3])
        try:
            results.append(fn(item))
        except (TrialExecutionError, ChaosError, KeyboardInterrupt,
                SystemExit):
            raise
        except Exception as error:
            raise TrialExecutionError(key[0], key[1], key[2], key[3],
                                      repr(error)) from error
    return results


class LeaseExecutor(Executor):
    """The keyed-map frame (see the module docstring): every task runs in
    the calling process, with journal resume, chaos injection and
    bounded backoff retry.  A dispatching subclass names the counters
    its progress dict reports (``progress_counters``) and overrides
    :meth:`_dispatch`.  The parameters:

    ``journal``
        default :class:`~repro.stats.store.ResultStore` for :meth:`map` /
        :meth:`map_keyed`; completed leases are recorded and fsynced as
        they arrive, already-journalled keys are never recomputed.
    ``chaos``
        fault-injection schedule (default: the run options' ``chaos``,
        from ``REPRO_CHAOS``; see :mod:`repro.options`).
        A schedule without a ledger directory gets one allocated, so each
        fault fires once across every worker the campaign touches.
    ``max_retries``
        failed attempts tolerated per lease before the error surfaces.
    ``backoff_base_s``
        exponential backoff base between retry attempts.
    ``on_progress``
        callback receiving the journal-backed progress dict after every
        completed lease.
    """

    #: Counters of a map reported in its progress dict, in order, between
    #: ``cached`` and ``last_checkpoint``.
    progress_counters: tuple = ("retries",)

    def __init__(self, *, journal=None,
                 chaos: Optional[ChaosConfig] = None,
                 max_retries: int = 2,
                 backoff_base_s: float = 0.25,
                 on_progress: Optional[Callable[[dict], None]] = None):
        if chaos is None:
            chaos = current().chaos
        if chaos is not None:
            if chaos.state_dir is None and any(
                    getattr(chaos, kind) > 0
                    for kind in FAULT_KINDS + NET_FAULT_KINDS):
                # a durable fire-once ledger, not just crash insurance:
                # retried leases migrate between worker processes
                # (respawned or surviving fabric workers), and a
                # process-local ledger would re-fire the same fault in
                # each of them
                chaos = chaos.with_state_dir(
                    tempfile.mkdtemp(prefix="repro-chaos-"))
            # a campaign start, not a resume of this executor's own run:
            # expire stale fire-once claims left by earlier campaigns so
            # the schedule is live again (see ChaosConfig.begin_run)
            chaos.begin_run()
        self.journal = journal
        self.chaos = chaos
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.on_progress = on_progress
        #: counters of the most recent ``map`` (see :meth:`_new_counters`).
        self.counters: dict = self._new_counters()
        #: journal-backed progress of the most recent ``map``; None
        #: before one ran.
        self.last_progress: Optional[dict] = None

    def _new_counters(self) -> dict:
        """A fresh counter dict for one map."""
        return dict.fromkeys(self.progress_counters, 0)

    # -- public entry points ------------------------------------------------

    def map(self, fn, items, progress=None) -> list:
        """Ordered map with synthetic journal keys ``(0, 0, i, seed)``.

        ``seed`` is the item itself when it is an integer (the common
        seed-list case), else the index — enough for chaos scheduling and
        single-campaign journals.  Prefer :meth:`map_keyed` with real
        ``(sweep, point, trial, seed)`` coordinates for campaign grids.
        """
        items = list(items)
        keys = [(0, 0, index, item if isinstance(item, int) else index)
                for index, item in enumerate(items)]
        return self.map_keyed(fn, items, keys, progress=progress)

    def map_keyed(self, fn, items: Sequence, keys: Sequence,
                  progress=None, journal=None) -> list:
        """Ordered map over keyed tasks with journal resume + recovery.

        ``keys[i]`` is ``items[i]``'s ``(sweep, point, trial, seed)``
        journal address (``journal`` defaults to the executor's own);
        results already journalled are returned without recompute, and
        fresh completions are recorded and checkpointed lease by lease in
        completion order.  Byte-identical to the sequential backend for
        any job count, chunk size or fault schedule.
        """
        items = list(items)
        keys = [tuple(key) for key in keys]
        if len(items) != len(keys):
            raise ValueError(f"{len(items)} items but {len(keys)} keys")
        if journal is None:
            journal = self.journal

        total = len(items)
        results: list = [None] * total
        have: set = set()
        if journal is not None:
            for index, key in enumerate(keys):
                hit = journal.get(key)
                if hit is not None:
                    results[index] = hit
                    have.add(index)
        cached = len(have)
        pending = [index for index in range(total) if index not in have]
        self.counters = counters = self._new_counters()
        next_emit = 0

        def _advance_progress() -> None:
            nonlocal next_emit
            while next_emit < total and next_emit in have:
                if progress is not None:
                    progress(next_emit, results[next_emit])
                next_emit += 1

        def _note_progress() -> None:
            self.last_progress = {
                "completed": len(have),
                "total": total,
                "cached": cached,
                **{name: counters[name] for name in self.progress_counters},
                "last_checkpoint":
                    journal.last_checkpoint if journal is not None else None,
            }
            if self.on_progress is not None:
                self.on_progress(dict(self.last_progress))

        def _complete(lease: ChunkLease, payload: list) -> None:
            for key, index, result in zip(lease.keys, lease.indices,
                                          payload):
                results[index] = result
                have.add(index)
                if journal is not None:
                    journal.record(key, result)
            if journal is not None:
                journal.flush()  # the checkpoint: this lease is durable
            _advance_progress()
            _note_progress()

        _advance_progress()
        if cached:
            _note_progress()  # surface "resumed at cached/total" up front
        if not pending:
            return results

        # any escape checkpoints the journal first, so a death anywhere —
        # in process, in a worker, or an interrupt — is resumable
        try:
            self._dispatch(fn, items, keys, pending, journal, counters,
                           _complete)
        except BaseException:
            if journal is not None:
                journal.flush()
            raise
        return results

    def _dispatch(self, fn, items: list, keys: list, pending: list,
                  journal, counters: dict, complete: Callable) -> None:
        """Run the ``pending`` tasks, calling ``complete(lease, payload)``
        exactly once per lease, in completion order, from the calling
        thread.  Here: each task in this process as a one-task lease,
        under the same fault story as a dispatched one — chaos injection
        precedes the trial (a jobs=1 campaign under ``REPRO_CHAOS`` dies
        and resumes like a parallel one) and transient faults get the
        bounded backoff retry of :meth:`ChunkLease.fail`."""
        for index in pending:
            lease = ChunkLease([index], [items[index]], [keys[index]])
            while True:
                try:
                    maybe_inject(self.chaos, keys[index][3])
                    result = fn(items[index])
                    break
                except Exception as error:
                    lease.fail(error, self.max_retries, self.backoff_base_s,
                               counters)
                    time.sleep(max(0.0, lease.retry_at - time.monotonic()))
            complete(lease, [result])
