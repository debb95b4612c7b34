"""Shared experiment plumbing: configs, BER grids, result containers."""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import units
from repro.config import SimulationConfig
from repro.link.page import PageTarget
from repro.options import RunOptions, current, installed
from repro.stats.executor import Executor, SequentialExecutor, default_jobs
from repro.stats.fabric import FabricExecutor
from repro.stats.lease import LeaseExecutor
from repro.stats.montecarlo import TrialOutcome
from repro.stats.store import ResultStore, campaign_digest
from repro.stats.sweep import (
    Sweep,
    SweepPoint,
    callable_name,
    campaign_spec,
    run_flattened,
)
from repro.stats.tables import format_table

#: The paper's BER grid (Figs. 6-8): 1/100 to 1/30, plus a zero-noise point.
PAPER_BER_GRID: list[tuple[float, str]] = [
    (0.0, "0"),
    (1 / 100, "1/100"),
    (1 / 90, "1/90"),
    (1 / 80, "1/80"),
    (1 / 70, "1/70"),
    (1 / 60, "1/60"),
    (1 / 50, "1/50"),
    (1 / 40, "1/40"),
    (1 / 30, "1/30"),
]


def _store_name(fn: Callable) -> str:
    """A stable journal filename stem for ``fn``'s campaign (module tail
    plus qualname, filesystem-safe)."""
    stem = callable_name(fn).rsplit(".", 2)[-2:]
    return "".join(ch if ch.isalnum() or ch in "-_" else "_"
                   for ch in "__".join(stem))


def campaign_store(name: str, spec, directory: Optional[str]
                   ) -> Optional[ResultStore]:
    """The result journal of campaign ``name``/``spec`` in ``directory``,
    or None when journalling is off (``directory`` None).  The journal
    file is ``<dir>/<name>.jsonl``, its header bound to
    ``campaign_digest(spec)`` — resuming with a changed spec (different
    seed, trial count, grid or trial function) is refused rather than
    silently mixed.
    """
    if directory is None:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.jsonl")
    return ResultStore(path, campaign_digest(spec), meta={"campaign": name})


def _progress_printer(interval_s: float) -> Callable[[dict], None]:
    """A rate-limited stderr renderer of the journal-backed progress dict
    (``completed/total`` plus whatever counters the backend reports —
    retries, redispatches, fabric workers, stolen leases, missed
    heartbeats, respawns).  The final ``completed == total`` line always
    prints, so a finished campaign never ends on a stale count."""
    last_emit = [0.0]

    def _print(progress: dict) -> None:
        now = time.monotonic()
        done = progress.get("completed") == progress.get("total")
        if not done and now - last_emit[0] < interval_s:
            return
        last_emit[0] = now
        counters = " ".join(
            f"{key}={value}" for key, value in progress.items()
            if key not in ("completed", "total", "cached", "last_checkpoint")
            and value)
        line = (f"[repro] {progress.get('completed')}/{progress.get('total')}"
                f" trials (cached {progress.get('cached', 0)})")
        if counters:
            line += " " + counters
        print(line, file=sys.stderr, flush=True)

    return _print


def _campaign_executor(jobs: int, journalled: bool) -> Executor:
    """The execution backend for one campaign run at the resolved job
    count ``jobs`` (see :func:`~repro.stats.executor.default_jobs`).

    Every parallel campaign runs on the fabric
    (:class:`~repro.stats.fabric.FabricExecutor`): ``jobs`` local fork
    workers on an ephemeral loopback port, or whatever the run options'
    ``fabric`` spec configures, which selects the fabric at any job count.
    A ``jobs=1`` campaign runs on the in-process lease frame
    (:class:`~repro.stats.lease.LeaseExecutor`) as soon as a result journal
    is active (``journalled``) or the options schedule chaos or want the
    status line; only a plain ``jobs=1`` run stays sequential.
    """
    options = current()
    chaos = options.chaos
    on_progress = (_progress_printer(options.progress_s)
                   if options.progress_s is not None else None)
    if options.fabric is not None:
        return FabricExecutor.from_spec(options.fabric, chaos=chaos,
                                        on_progress=on_progress)
    if jobs > 1:
        return FabricExecutor(workers=jobs, chaos=chaos,
                              on_progress=on_progress)
    if journalled or chaos is not None or on_progress is not None:
        return LeaseExecutor(chaos=chaos, on_progress=on_progress)
    return SequentialExecutor()


@contextmanager
def _campaign(name: str, spec, jobs: Optional[int], resume: Optional[str],
              executor: Optional[Executor] = None):
    """The ``(executor, journal)`` of one campaign run, under one
    resolution of the run options, which the trial dispatchers built
    inside it carry to every worker.  A caller's ``executor`` is used as
    is; otherwise the job count resolves (``REPRO_JOBS`` wins) and
    :func:`_campaign_executor` picks the backend, closed on exit like the
    journal (None when off).  The journal binds ``spec`` with the channel
    mode (``REPRO_BIT_ACCURATE``) added, so a journal of one mode is
    refused under the other."""
    with installed(current()) as options:
        if executor is None:
            jobs = default_jobs(jobs)
        directory = resume if resume is not None else options.resume_dir
        with (nullcontext(executor) if executor is not None
              else _campaign_executor(jobs, directory is not None)) as chosen:
            spec = dict(spec, bit_accurate=options.bit_accurate)
            store = campaign_store(name, spec, directory)
            try:
                yield chosen, store
            finally:
                if store is not None:
                    store.close()


def archive_timeline(session, experiment_id: str, label: str) -> Optional[str]:
    """Write ``session``'s captured timeline to the archive directory
    (the run options' ``timeline_dir``, ``REPRO_TIMELINE_DIR``).

    One JSONL file per call, named ``<experiment_id>__<label>.jsonl`` —
    replayable offline with :class:`repro.sim.capture.TimelineEvent` or
    any JSON tooling.  No-op (returns None) when archiving is off or the
    session ran without a capture.
    """
    directory = current().timeline_dir
    if directory is None or session.capture is None:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{experiment_id}__{label}.jsonl")
    with open(path, "w", encoding="utf-8") as stream:
        session.capture.to_jsonl(stream)
    return path


def paper_config(ber: float = 0.0, seed: int = 0,
                 sync_threshold: Optional[int] = None,
                 bit_accurate: Optional[bool] = None,
                 **link_overrides) -> SimulationConfig:
    """A SimulationConfig matching the paper's setup.

    ``sync_threshold``: None keeps the library default (7, the spec's
    57-of-64 sliding correlator); the page-phase reproductions pass 0
    because the paper's behavioural receiver compares access codes
    bit-exactly — that is what makes its page phase collapse at high BER
    (see the ``ablation_correlator`` experiment, benched in
    ``benchmarks/bench_ablations.py``).

    ``bit_accurate``: None takes the run options' channel mode
    (``REPRO_BIT_ACCURATE``; default off, the statistical per-stage
    channel).
    """
    if bit_accurate is None:
        bit_accurate = current().bit_accurate
    config = SimulationConfig(seed=seed, bit_accurate=bit_accurate).with_ber(ber)
    overrides = dict(link_overrides)
    if sync_threshold is not None:
        overrides["sync_threshold"] = sync_threshold
    if overrides:
        config = dataclasses.replace(
            config, link=dataclasses.replace(config.link, **overrides))
    return config


def page_up(session, master, slave, label: str) -> None:
    """Page ``slave``, already scanning, into ``master``'s piconet under a
    4096-slot guard (polled in 16-slot steps) — the one bring-up of the
    experiments, so their scenarios stay protocol-identical.  Raises
    ``RuntimeError`` tagged with ``label`` when the page cannot complete.
    """
    box = []
    master.start_page(PageTarget(addr=slave.addr,
                                 clock_estimate=slave.clock),
                      on_complete=box.append)
    guard = session.sim.now + 4096 * units.SLOT_NS
    while not box and session.sim.now < guard:
        session.run_slots(16)
    if not box or not box[0].success:
        raise RuntimeError(f"{label}: page failed")


def page_up_pair(session, index: int = 0, label: str = "experiment"):
    """Add one ``m{index}``/``s{index}`` master/slave pair to ``session``
    and page it up (:func:`page_up`); the bring-up of the campaign
    builders (``ext_interference``, ``ext_afh``)."""
    master = session.add_device(f"m{index}")
    slave = session.add_device(f"s{index}")
    slave.start_page_scan()
    page_up(session, master, slave, label)
    return master, slave


def run_sweep(seed: int, trials: int, xs: list[tuple[float, str]],
              trial_fn: Callable[[float, int], TrialOutcome],
              jobs: Optional[int] = None,
              executor: Optional[Executor] = None,
              resume: Optional[str] = None,
              store_name: Optional[str] = None) -> list[SweepPoint]:
    """Run the standard Monte-Carlo sweep of an experiment.

    ``jobs`` picks the execution backend (``REPRO_JOBS`` overrides, 1 =
    sequential); the outcome lists are identical at any job count because
    every trial is a pure function of its derived seed.  Pass ``executor``
    instead to share one executor across several sweeps (the caller then
    owns its lifetime).

    ``resume`` (or the ``REPRO_RESUME_DIR`` environment variable) makes
    the run **kill-and-resume safe**: completed trials are journalled to
    ``<dir>/<store_name>.jsonl`` as they finish, already-journalled ones
    are skipped on restart, and the journal header refuses a campaign
    spec that differs from the one that wrote it.  Every journalled run
    goes through the lease frame, and every parallel one through the
    fabric (:class:`~repro.stats.fabric.FabricExecutor`), which also
    survives worker deaths in place.  Aggregates stay byte-identical to
    a clean sequential run throughout.
    """
    sweep = Sweep(master_seed=seed, trials_per_point=trials)
    spec = campaign_spec([(sweep, xs, trial_fn)])
    with _campaign(store_name or _store_name(trial_fn), spec, jobs, resume,
                   executor) as (runner, store):
        return sweep.run(xs, trial_fn, executor=runner, store=store)


def run_sweeps(specs: list[tuple[int, int, list[tuple[float, str]],
                                 Callable[[float, int], TrialOutcome]]],
               jobs: Optional[int] = None,
               executor: Optional[Executor] = None,
               resume: Optional[str] = None,
               store_name: Optional[str] = None,
               ) -> list[list[SweepPoint]]:
    """Run several sweeps as one flattened work queue.

    ``specs`` is a list of ``(seed, trials, xs, trial_fn)`` tuples.  All
    sweeps' (point, trial) tasks go to the executor as one ordered grid,
    so neither point boundaries nor sweep boundaries act as join barriers
    (Fig. 8 uses this for its inquiry + page pair).  Results are
    byte-identical to running each sweep separately.

    ``resume``/``REPRO_RESUME_DIR`` journal the combined queue into one
    file (keys carry the sweep index, so the sweeps never collide) with
    the same kill-and-resume semantics as :func:`run_sweep`.
    """
    sweeps = [(Sweep(master_seed=seed, trials_per_point=trials), xs, trial_fn)
              for seed, trials, xs, trial_fn in specs]
    name = store_name or "__".join(
        _store_name(trial_fn) for _, _, _, trial_fn in specs)
    with _campaign(name, campaign_spec(sweeps), jobs, resume,
                   executor) as (runner, store):
        return run_flattened(sweeps, runner, store=store)


@dataclass
class _StarCall:
    """Picklable star-apply: turns ``fn(a, b)`` into a one-argument
    callable over task tuples, so grid experiments need no per-module
    unpacking wrappers; like ``_FlatTrial`` it runs each call under the
    run options current where it was built."""

    fn: Callable
    options: RunOptions = field(default_factory=current)

    def __call__(self, task):
        with installed(self.options):
            return self.fn(*task)


def _task_fingerprint(task) -> int:
    """A stable 64-bit id of one grid task (its repr digested) — the seed
    slot of a :func:`map_points` journal key, since these grids have no
    derived seeds of their own."""
    import hashlib

    digest = hashlib.blake2b(repr(task).encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def map_points(fn: Callable, tasks: list, jobs: Optional[int] = None,
               resume: Optional[str] = None,
               store_name: Optional[str] = None) -> list:
    """Ordered, optionally parallel starmap for experiment grids that
    are not trial sweeps (activity/goodput points): ``fn(*task)`` per task
    tuple.  ``fn`` must be a module-level callable for process fan-out.

    ``resume``/``REPRO_RESUME_DIR`` journal completed points keyed by
    ``(0, index, 0, fingerprint)`` — the same kill-and-resume contract as
    :func:`run_sweep`, with the task list itself digest-bound so a grid
    change refuses the stale journal.  Its version follows
    :func:`campaign_spec`'s.
    """
    spec = {"version": 3, "map": callable_name(fn),
            "tasks": [repr(task) for task in tasks]}
    with _campaign(store_name or _store_name(fn), spec, jobs,
                   resume) as (executor, store):
        if store is None:
            return executor.map(_StarCall(fn), tasks)
        keys = [(0, index, 0, _task_fingerprint(task))
                for index, task in enumerate(tasks)]
        return executor.map_keyed(_StarCall(fn), tasks, keys, journal=store)


@dataclass
class ExperimentResult:
    """Tabular output of one experiment, paper-comparable.

    Attributes:
        experiment_id: registry key ('fig06', ...).
        title: human title including the paper artefact.
        headers: column names.
        rows: table rows (x value first).
        paper_expectation: what the paper reports for the same artefact.
        notes: methodology notes / deviations.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    paper_expectation: str = ""
    notes: str = ""

    def to_table(self) -> str:
        """Render as the bench-output table."""
        text = format_table(self.headers, self.rows, title=self.title)
        parts = [text]
        if self.paper_expectation:
            parts.append(f"paper: {self.paper_expectation}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)
