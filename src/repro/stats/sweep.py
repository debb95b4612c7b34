"""Parameter sweeps: a batch of seeded trials per x-axis point.

``Sweep.run`` derives every (point, trial) task of the ``n_points x
trials_per_point`` grid up front and sends the whole grid to the executor
as **one work queue**.  Leases span point boundaries, so the workers
stay busy end-to-end instead of idling at the tail of every x point.
Seeds use two-level ``derive_seed`` coordinates (a per-point master seed,
then the trial index), so outcomes are byte-identical at any job count.

:func:`run_flattened` generalises this to *several* sweeps in one queue
(e.g. Fig. 8 runs its inquiry and page sweeps as a single grid), so not
even the boundary between sweeps is a barrier.  The queue's tasks double
as result-journal keys: with a journal, the queue goes through the lease
frame's ``map_keyed`` (:mod:`repro.stats.lease`), which skips journalled
tasks and records fresh ones as they complete.  Which executor runs the
queue — sequential, the in-process lease frame or the fabric's workers —
is the caller's choice (:mod:`repro.experiments.common` makes it per
campaign).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.options import RunOptions, current, installed
from repro.stats.estimators import MeanEstimate, ProportionEstimate, mean_with_ci, wilson_interval
from repro.stats.executor import Executor, SequentialExecutor
from repro.stats.lease import LeaseExecutor
from repro.stats.montecarlo import (
    TrialExecutionError,
    TrialOutcome,
    derive_seed,
)
from repro.stats.store import ResultStore

#: Stream tag separating per-point master seeds from trial seeds.
SWEEP_POINT_STREAM = 0x53574545  # "SWEE"


@dataclass
class _FlatTrial:
    """Picklable dispatcher for one flattened (sweep, point, trial) task.

    Tasks are ``(sweep_index, point_index, trial_index, seed)`` tuples —
    exactly the journal keys of :class:`~repro.stats.store.ResultStore` —
    and the dispatcher carries each sweep's trial function and x values,
    so a worker process can evaluate any task of any sweep in the queue.

    It installs the run options current where it was built (the
    campaign's) around each trial, so any worker runs those options.

    Any exception escaping the trial function is re-raised as a
    :class:`~repro.stats.montecarlo.TrialExecutionError` carrying the
    task's coordinates, so a failure anywhere in a million-trial campaign
    is replayable with one call at the quoted seed.
    """

    trial_fns: list
    xs: list
    options: RunOptions = field(default_factory=current)

    def __call__(self, task) -> TrialOutcome:
        sweep_index, point_index, trial_index, seed = task
        try:
            with installed(self.options):
                return self.trial_fns[sweep_index](
                    self.xs[sweep_index][point_index], seed)
        except (TrialExecutionError, KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            raise TrialExecutionError(sweep_index, point_index, trial_index,
                                      seed, repr(error)) from error


@dataclass
class SweepPoint:
    """Aggregated results at one x value."""

    x: float
    label: str
    mean: MeanEstimate
    success: ProportionEstimate
    extra: Any = None

    @property
    def failure_rate(self) -> float:
        return 1.0 - self.success.p


@dataclass
class Sweep:
    """A one-dimensional parameter sweep with per-point Monte Carlo.

    ``trial_fn(x, seed)`` must return a :class:`TrialOutcome`.
    """

    master_seed: int
    trials_per_point: int
    points: list[SweepPoint] = field(default_factory=list)

    def point_master_seed(self, point_index: int) -> int:
        """The master seed of the trials at ``point_index``: trial ``t``
        there runs at ``derive_seed(point_master_seed(point_index), t)``."""
        return derive_seed(self.master_seed, point_index,
                           stream=SWEEP_POINT_STREAM)

    def run(self, xs: list[tuple[float, str]],
            trial_fn: Callable[[float, int], TrialOutcome],
            executor: Optional[Executor] = None,
            store: Optional[ResultStore] = None) -> list[SweepPoint]:
        """Run the sweep; ``xs`` is a list of (value, label) pairs.

        ``executor`` fans trials out over worker processes; results are
        independent of the job count (see module docstring).

        ``store`` resumes from (and journals into) an on-disk result
        journal: already-completed (point, trial) tasks are skipped and a
        killed run restarts where it stopped, byte-identical to a clean
        one.
        """
        return run_flattened([(self, xs, trial_fn)], executor,
                             store=store)[0]


def _aggregate_point(x: float, label: str,
                     outcomes: list[TrialOutcome]) -> SweepPoint:
    """Fold one point's ordered outcome list into its aggregates.

    A point with **zero successful trials** (every page failed under
    interference, say) is a legitimate campaign result, not an error: the
    conditional mean degrades to the flagged-NaN estimate
    (``mean_with_ci([])`` — NaN mean, NaN half-width, ``n=0``, rendered
    ``±?`` by ``ci_cell``) while the success proportion stays a proper
    Wilson interval at 0/n.  Regression-tested in
    ``tests/stats/test_stats.py::TestSweep``.
    """
    successes = sum(1 for o in outcomes if o.success)
    return SweepPoint(
        x=x,
        label=label,
        mean=mean_with_ci([o.value for o in outcomes if o.success]),
        success=wilson_interval(successes, len(outcomes)),
        extra=outcomes,
    )


def flat_tasks(
    sweeps: Sequence[tuple["Sweep", list[tuple[float, str]], Callable]],
) -> tuple[list[tuple[int, int, int, int]], list[list[tuple[int, int]]]]:
    """The flattened ``(sweep, point, trial, seed)`` task queue of
    ``sweeps`` plus the per-sweep, per-point (lo, hi) result slices.

    Tasks double as the journal keys of
    :class:`~repro.stats.store.ResultStore` — derived up front, so a
    resumed campaign addresses exactly the tasks the killed one did.
    """
    tasks: list[tuple[int, int, int, int]] = []
    slices: list[list[tuple[int, int]]] = []  # per sweep: per point (lo, hi)
    for sweep_index, (sweep, xs, _trial_fn) in enumerate(sweeps):
        point_slices = []
        for point_index in range(len(xs)):
            point_seed = sweep.point_master_seed(point_index)
            lo = len(tasks)
            tasks.extend((sweep_index, point_index, trial,
                          derive_seed(point_seed, trial))
                         for trial in range(sweep.trials_per_point))
            point_slices.append((lo, len(tasks)))
        slices.append(point_slices)
    return tasks, slices


def callable_name(fn: Callable) -> str:
    """``module.qualname`` of a trial callable — falling back to its class
    for callable *instances* (picklable trial wrappers), which carry no
    ``__qualname__`` of their own."""
    qualname = getattr(fn, "__qualname__", None)
    if qualname is not None:
        return f"{fn.__module__}.{qualname}"
    return f"{type(fn).__module__}.{type(fn).__qualname__}"


def campaign_spec(
    sweeps: Sequence[tuple["Sweep", list[tuple[float, str]], Callable]],
) -> dict:
    """The JSON-serialisable identity of a flattened campaign.

    Everything that determines the task queue: per sweep, the master
    seed, trial count, x grid and trial-function name (the campaign
    runner of :mod:`repro.experiments.common` adds the run options that
    change outcomes).  :func:`~repro.stats.store.campaign_digest` of
    that dict is the binding a result journal's header carries — change
    any of it and a stale journal is refused instead of silently mixing
    campaigns.  Version 2 dropped the per-sweep seed-formula flag and
    version 3 the simulation engine, so journals written under an older
    version are refused rather than resumed.
    """
    return {
        "version": 3,
        "sweeps": [
            {
                "master_seed": sweep.master_seed,
                "trials_per_point": sweep.trials_per_point,
                "xs": [[float(x), str(label)] for x, label in xs],
                "trial_fn": callable_name(trial_fn),
            }
            for sweep, xs, trial_fn in sweeps
        ],
    }


def run_flattened(
    sweeps: Sequence[tuple["Sweep", list[tuple[float, str]], Callable]],
    executor: Optional[Executor] = None,
    store: Optional[ResultStore] = None,
) -> list[list[SweepPoint]]:
    """Run several sweeps as **one flattened work queue**.

    ``sweeps`` is a list of ``(sweep, xs, trial_fn)`` triples.  All
    ``(sweep, point, trial)`` seeds are derived up front with each sweep's
    own coordinates, the flat task list is dispatched through a single
    ``executor.map`` call, and the ordered results are sliced back into
    per-point :class:`SweepPoint` aggregates — so no per-point (or
    per-sweep) join barrier exists anywhere in the run.

    ``store`` is the resume path: tasks whose keys the journal already
    holds are served from it without recompute, and every fresh outcome
    is journalled as it completes, so a campaign killed at any moment
    restarts from its last checkpoint (see :mod:`repro.stats.store`).
    A journalled queue runs through ``executor.map_keyed``, so it needs
    a lease-frame executor; the default is then the in-process
    :class:`~repro.stats.lease.LeaseExecutor`.

    Returns one ``list[SweepPoint]`` per input sweep, byte-identical to
    running each sweep on its own — with or without a store, at any job
    count.
    """
    if executor is None:
        executor = SequentialExecutor() if store is None else LeaseExecutor()
    tasks, slices = flat_tasks(sweeps)

    flat_fn = _FlatTrial(trial_fns=[fn for _, _, fn in sweeps],
                         xs=[[x for x, _ in xs] for _, xs, _ in sweeps])
    if store is None:
        outcomes = executor.map(flat_fn, tasks)
    else:
        outcomes = executor.map_keyed(flat_fn, tasks, tasks, journal=store)

    results: list[list[SweepPoint]] = []
    for (sweep, xs, _trial_fn), point_slices in zip(sweeps, slices):
        points = [
            _aggregate_point(x, label, outcomes[lo:hi])
            for (x, label), (lo, hi) in zip(xs, point_slices)
        ]
        sweep.points = points
        results.append(points)
    return results
