"""Run options: every ``REPRO_*`` environment value, read once at an entry.

:meth:`RunOptions.from_env` is the one reader of the environment.  The CLI
and :func:`~repro.experiments.run_experiment` resolve it before any
experiment runs and install it (:func:`installed`); the trial dispatchers
every worker receives carry the campaign's options and install them around
each trial.  Code reads them through :func:`current`, which outside any
entry (a library call, a test) resolves the environment at call time.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from repro.stats.chaos import ChaosConfig

#: The variables, one per :class:`RunOptions` field.
TRIALS_ENV_VAR = "REPRO_TRIALS"
JOBS_ENV_VAR = "REPRO_JOBS"
BIT_ACCURATE_ENV_VAR = "REPRO_BIT_ACCURATE"
TIMELINE_DIR_ENV_VAR = "REPRO_TIMELINE_DIR"
RESUME_DIR_ENV_VAR = "REPRO_RESUME_DIR"
PROGRESS_ENV_VAR = "REPRO_PROGRESS"
CHAOS_ENV_VAR = "REPRO_CHAOS"
FABRIC_ENV_VAR = "REPRO_FABRIC"

#: Status-line cadence an on spelling of ``REPRO_PROGRESS`` selects.
DEFAULT_PROGRESS_INTERVAL_S = 2.0

#: Spellings of an off / on switch value (case-insensitive).
_OFF = ("", "0", "false", "off", "no")
_ON = ("1", "true", "on", "yes")
_SWITCHES = ", ".join(repr(v) for v in _OFF + _ON)


def _number(name: str, value: str, cast, expected: str):
    """``cast(value)``, or a ValueError naming the variable ``name``."""
    try:
        return cast(value)
    except ValueError:
        raise ValueError(f"{name}={value!r} {expected}") from None


@dataclass(frozen=True)
class RunOptions:
    """The ``REPRO_*`` settings of one run, checked and frozen; None (or
    False) where a variable is unset.

    Attributes:
        trials: ``REPRO_TRIALS``, overriding every experiment's trials.
        jobs: ``REPRO_JOBS``, overriding the worker count (0 = per CPU).
        bit_accurate: ``REPRO_BIT_ACCURATE``, the channel mode.
        timeline_dir: ``REPRO_TIMELINE_DIR``, the trials' timeline archive.
        resume_dir: ``REPRO_RESUME_DIR``, the journal directory.
        progress_s: ``REPRO_PROGRESS``, the status line's cadence.
        chaos: ``REPRO_CHAOS``, the fault schedule.
        fabric: ``REPRO_FABRIC``, the fabric spec.
    """

    trials: Optional[int] = None
    jobs: Optional[int] = None
    bit_accurate: bool = False
    timeline_dir: Optional[str] = None
    resume_dir: Optional[str] = None
    progress_s: Optional[float] = None
    chaos: Optional["ChaosConfig"] = None
    fabric: Optional[str] = None

    @classmethod
    def from_env(cls, resume_dir: Optional[str] = None,
                 fabric: Optional[str] = None,
                 progress: Optional[str] = None) -> "RunOptions":
        """The options the process environment's ``REPRO_*`` variables
        select; the values of ``--resume-dir``, ``--fabric`` and
        ``--progress``, when given, win over their variables'.  Every
        value is checked here: a malformed one raises a ``ValueError``
        naming its variable.  ``REPRO_*`` names this module does not know
        are ignored."""
        from repro.stats.chaos import ChaosConfig
        from repro.stats.fabric import FabricExecutor

        flags = {RESUME_DIR_ENV_VAR: resume_dir, FABRIC_ENV_VAR: fabric,
                 PROGRESS_ENV_VAR: progress}

        def value(name: str) -> str:
            flag = flags.get(name)
            return (os.environ.get(name, "") if flag is None else flag).strip()

        trials = value(TRIALS_ENV_VAR) or None
        if trials is not None:
            trials = max(1, _number(TRIALS_ENV_VAR, trials, int,
                                    "is not a trial count; expected an "
                                    "integer"))
        jobs = value(JOBS_ENV_VAR) or None
        if jobs is not None:
            jobs = 0 if jobs.lower() == "auto" else _number(
                JOBS_ENV_VAR, jobs, int, "is not a job count; expected an "
                "integer, or 0 / 'auto' for one job per CPU")
        switch = value(BIT_ACCURATE_ENV_VAR).lower()
        if switch not in _OFF + _ON:
            raise ValueError(f"{BIT_ACCURATE_ENV_VAR}={switch!r} is not a "
                             f"switch; expected one of {_SWITCHES}")
        timeline = value(TIMELINE_DIR_ENV_VAR) or None
        if timeline and os.path.exists(timeline) \
                and not os.path.isdir(timeline):
            raise ValueError(
                f"{TIMELINE_DIR_ENV_VAR}={timeline!r} is not a directory")
        cadence = value(PROGRESS_ENV_VAR)
        progress_s = None
        if cadence.lower() in _ON[1:]:
            progress_s = DEFAULT_PROGRESS_INTERVAL_S
        elif cadence.lower() not in _OFF:
            progress_s = max(0.0, _number(
                PROGRESS_ENV_VAR, cadence, float, "is neither seconds nor "
                f"a switch; expected a number or one of {_SWITCHES}"))
        spec = value(FABRIC_ENV_VAR) or None
        FabricExecutor.spec_fields(spec)  # a malformed spec fails here
        return cls(trials=trials, jobs=jobs, bit_accurate=switch in _ON,
                   timeline_dir=timeline,
                   resume_dir=value(RESUME_DIR_ENV_VAR) or None,
                   progress_s=progress_s,
                   chaos=ChaosConfig.from_spec(value(CHAOS_ENV_VAR)),
                   fabric=spec)


_installed: ContextVar[Optional[RunOptions]] = ContextVar(
    "repro_run_options", default=None)


def current() -> RunOptions:
    """The options installed for the running entry, or the environment's,
    read now, outside any."""
    options = _installed.get()
    return options if options is not None else RunOptions.from_env()


@contextmanager
def installed(options: RunOptions) -> Iterator[RunOptions]:
    """Make ``options`` what :func:`current` returns in this thread until
    the block exits."""
    token = _installed.set(options)
    try:
        yield options
    finally:
        _installed.reset(token)
