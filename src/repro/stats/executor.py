"""The executor interface and the sequential reference backend.

Every trial in this codebase is a pure function of its derived seed, so a
batch of trials can run on one core or many and must produce *the same*
ordered outcome list either way.  :class:`Executor` is that contract, an
ordered map; this module also holds its reference implementation:

* :class:`SequentialExecutor` — a plain ordered loop on the calling
  process, the backend of every plain ``jobs=1`` run.

Fault-tolerant and parallel work goes through the lease frame
(:mod:`repro.stats.lease`): :class:`~repro.stats.lease.LeaseExecutor`
runs its tasks in process, with journal resume and chaos retry, and
:class:`~repro.stats.fabric.FabricExecutor` leases them to local fork
workers or workers on other hosts.

Determinism contract: for any picklable ``fn`` and item list, every
executor returns ``[fn(item) for item in items]`` — same values, same
order, independent of the job count.  The equivalence suite
(``tests/stats/test_executor_equivalence.py``) enforces this for every
registered experiment.

The job count is resolved like trial counts: the ``REPRO_JOBS``
environment variable (mirroring ``REPRO_TRIALS``) overrides whatever the
caller requested, and the CLI exposes ``--jobs``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional, Sequence

#: Environment knob: fan trials out over this many local fabric workers.
JOBS_ENV_VAR = "REPRO_JOBS"


def default_jobs(requested: Optional[int] = None) -> int:
    """Resolve the worker count: ``REPRO_JOBS`` overrides ``requested``.

    Returns 1 (sequential) when neither is set.  A value of 0 or ``"auto"``
    in the environment means "one job per CPU"; anything else that is not
    an integer raises a ``ValueError`` naming the variable.
    """
    override = os.environ.get(JOBS_ENV_VAR, "").strip()
    if override.lower() == "auto":
        requested = 0
    elif override:
        try:
            requested = int(override)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV_VAR}={override!r} is not a job count; expected "
                "an integer, or 0 / 'auto' for one job per CPU") from None
    if requested is None:
        return 1
    return requested if requested > 0 else max(1, os.cpu_count() or 1)


class Executor:
    """Interface: an ordered, deterministic map over trial inputs."""

    jobs: int = 1

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            progress: Optional[Callable[[int, Any], None]] = None) -> list:
        """Return ``[fn(item) for item in items]`` (order guaranteed).

        ``progress(index, result)`` is invoked in index order; under a
        worker backend it fires as ordered results become available, not
        as workers finish.  Note the batching this implies: the lease
        backends (:mod:`repro.stats.lease`) deliver whole leases, so
        ``progress`` fires in lease-sized bursts — and a lease that
        completes before an earlier one fires nothing until the gap
        before it closes.  Callers needing liveness rather than ordered
        streaming (monitoring, checkpoint telemetry) should use the lease
        backends' journal-backed ``on_progress`` hook, which reports
        completed/total counts after every lease, in completion order.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker processes); idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequentialExecutor(Executor):
    """The reference backend: run every trial in the calling process."""

    jobs = 1

    def map(self, fn, items, progress=None) -> list:
        results = []
        for index, item in enumerate(items):
            result = fn(item)
            results.append(result)
            if progress is not None:
                progress(index, result)
        return results
