"""Seeded Monte Carlo trial runner.

Each trial gets a deterministic seed derived from (master seed, trial
index), so any individual trial — including a failing one — can be replayed
in isolation, and a batch can be fanned out over worker processes (see
:mod:`repro.stats.executor`) without changing a single outcome.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.stats.executor import Executor, SequentialExecutor

#: Environment knob: scale trial counts in benches without editing code.
TRIALS_ENV_VAR = "REPRO_TRIALS"

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / phi, the splitmix64 increment


def default_trials(requested: int) -> int:
    """Apply the REPRO_TRIALS override, if set."""
    override = os.environ.get(TRIALS_ENV_VAR)
    if override:
        return max(1, int(override))
    return requested


def _mix64(value: int) -> int:
    """The splitmix64 finalizer (Steele et al. 2014); bijective on 64 bits."""
    value &= MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & MASK64
    return value ^ (value >> 31)


def derive_seed(master_seed: int, index: int, stream: int = 0) -> int:
    """Derive the seed for trial ``index`` of ``master_seed`` (64-bit).

    The legacy formula ``master_seed * 10_000 + index`` aliases
    *structurally*: (master 3, trial 10 000) equals (master 4, trial 0), so
    any run beyond 10 000 trials — or two sweep points with nearby master
    seeds — silently reuses seeds.  Here each coordinate is diffused
    through the splitmix64 finalizer (a 64-bit bijection) before being
    folded in, so distinct ``(master_seed, stream, index)`` triples have no
    structural collisions and accidental ones occur with probability
    ~2**-64 per pair.  ``stream`` namespaces independent consumers (e.g.
    the per-point master seeds of a sweep) away from trial seeds.
    """
    state = _mix64((master_seed & MASK64) + _GOLDEN)
    state = _mix64(state ^ _mix64((stream & MASK64) + 2 * _GOLDEN))
    state = _mix64(state ^ _mix64((index & MASK64) + 3 * _GOLDEN))
    return state


@dataclass
class TrialOutcome:
    """One trial's result.

    Attributes:
        seed: the trial's derived seed (replay handle).
        success: trial-defined success flag.
        value: trial-defined scalar (e.g. slots to complete).
        extra: any additional payload.
    """

    seed: int
    success: bool
    value: float
    extra: Any = None


class TrialExecutionError(RuntimeError):
    """A trial raised mid-campaign, tagged with its replay coordinates.

    Wraps any exception escaping a trial function (e.g. ``page_up_pair``'s
    ``RuntimeError: page failed``) with the ``(sweep_index, point_index,
    trial_index, seed)`` of the task that raised it, so the failure is
    replayable in isolation with one call: ``trial_fn(x, seed)`` at the
    quoted seed.  The cause is carried as its ``repr`` (picklable across
    worker-process boundaries even when the original exception is not).
    """

    def __init__(self, sweep_index: int, point_index: int, trial_index: int,
                 seed: int, cause_repr: str):
        self.sweep_index = sweep_index
        self.point_index = point_index
        self.trial_index = trial_index
        self.seed = seed
        self.cause_repr = cause_repr
        super().__init__(
            f"trial (sweep {sweep_index}, point {point_index}, trial "
            f"{trial_index}) raised {cause_repr}; replay with "
            f"trial_fn(x, seed={seed:#018x})")

    @property
    def key(self) -> tuple:
        """The task's journal key, ``(sweep, point, trial, seed)``."""
        return (self.sweep_index, self.point_index, self.trial_index,
                self.seed)

    def __reduce__(self):
        return (type(self), (self.sweep_index, self.point_index,
                             self.trial_index, self.seed, self.cause_repr))


@dataclass
class MonteCarlo:
    """Runs ``trial_fn(seed) -> TrialOutcome`` over derived seeds.

    Attributes:
        master_seed: base seed; trial i uses :func:`derive_seed`.
        trials: number of trials.
    """

    master_seed: int
    trials: int
    outcomes: list[TrialOutcome] = field(default_factory=list)

    def seed_for(self, index: int) -> int:
        """The replay seed of trial ``index``."""
        return derive_seed(self.master_seed, index)

    def seeds(self) -> list[int]:
        """All trial seeds in index order (what a flattened dispatcher
        enqueues; identical to the seeds :meth:`run` evaluates)."""
        return [self.seed_for(index) for index in range(self.trials)]

    def run(self, trial_fn: Callable[[int], TrialOutcome],
            progress: Optional[Callable[[int, TrialOutcome], None]] = None,
            executor: Optional[Executor] = None,
            ) -> list[TrialOutcome]:
        """Execute all trials; outcome order is by trial index.

        ``executor`` selects the backend (default sequential).  Because
        each trial is a pure function of its derived seed, the outcome
        list is identical at any job count.
        """
        if executor is None:
            executor = SequentialExecutor()
        seeds = self.seeds()
        self.outcomes.clear()  # a failing run must not leave stale results
        self.outcomes[:] = executor.map(trial_fn, seeds, progress=progress)
        return self.outcomes

    # -- aggregation -----------------------------------------------------

    @property
    def successes(self) -> int:
        return sum(1 for o in self.outcomes if o.success)

    @property
    def failure_rate(self) -> float:
        if not self.outcomes:
            return float("nan")
        return 1.0 - self.successes / len(self.outcomes)

    def successful_values(self) -> list[float]:
        """Values of successful trials (the paper's conditional means)."""
        return [o.value for o in self.outcomes if o.success]
