"""Seeded Monte Carlo trials: seed derivation, outcomes and failures.

Each trial gets a deterministic seed derived from (master seed, trial
index), so any individual trial — including a failing one — can be replayed
in isolation, and a campaign can be fanned out over workers (see
:mod:`repro.stats.sweep`) without changing a single outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.options import current

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / phi, the splitmix64 increment


def default_trials(requested: int) -> int:
    """Apply the run options' ``trials`` override (``REPRO_TRIALS``), if
    set."""
    override = current().trials
    return requested if override is None else override


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

