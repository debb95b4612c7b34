"""One pass of one workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per measured pass, so that
``ru_maxrss`` and ``RUSAGE_CHILDREN`` cover that pass alone.  Modes:

* ``run`` — untimed import, then the workload's ``run_experiment`` calls
  under a wall clock and CPU accounting (``--engine soa`` for the SoA pass,
  ``--gc`` to time garbage collection through ``gc.callbacks``);
* ``trace`` — the same calls at ``jobs=1`` under ``cProfile``, reduced to
  per-layer self time and entry-point counts;
* ``setup`` — import ``repro.experiments`` and build one world of the
  workload's kind, then exit (``run.py`` times the whole process).

Counters wrap only ``Simulator.run``, ``Session.__init__``,
``Executor.map`` and ``SlotEngine.run``: entry points called by the
program's own code, never callbacks that enter the event queue (the SoA
engine identifies queued callbacks by identity) and never signal
subscriptions (a subscriber makes the SoA engine decline every window).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import mmap
import multiprocessing
import pstats
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from workloads import WORKLOADS, experiment_calls  # noqa: E402

#: Counter slots.
SLOT_NS, WORLDS, TASKS, SOA_ABSORBED, SOA_DECLINED = range(5)


class Counters:
    """64-bit counters in an anonymous shared mapping: the program's pool
    forks its workers, which inherit the mapping and add to the parent's
    totals.  Needs no file, only the semaphore the pool needs anyway."""

    def __init__(self, slots: int):
        self._view = memoryview(mmap.mmap(-1, 8 * slots)).cast("q")
        self._lock = multiprocessing.get_context("fork").Lock()

    def add(self, slot: int, amount: int) -> None:
        with self._lock:
            self._view[slot] += amount

    def __getitem__(self, slot: int) -> int:
        return self._view[slot]


def _install_counters(counters: Counters) -> None:
    """Wrap the program's entry points so they add to ``counters``."""
    from repro.api import Session
    from repro.sim.simulator import Simulator
    from repro.sim.soa import SlotEngine
    from repro.stats.executor import Executor

    add = counters.add
    simulator_run = Simulator.run

    def run(self, *args, **kwargs):
        start = self.now
        try:
            return simulator_run(self, *args, **kwargs)
        finally:
            add(SLOT_NS, self.now - start)

    Simulator.run = run

    session_init = Session.__init__

    def init(self, *args, **kwargs):
        session_init(self, *args, **kwargs)
        add(WORLDS, 1)

    Session.__init__ = init

    engine_run = SlotEngine.run

    def engine(self, until_ns):
        absorbed = engine_run(self, until_ns)
        add(SOA_ABSORBED if absorbed else SOA_DECLINED, 1)
        return absorbed

    SlotEngine.run = engine

    # a pool falls back to the sequential executor for one-item maps, so
    # only the outermost map of a nest counts its items
    depth = [0]

    def counted(method):
        def map_items(self, fn, items, progress=None):
            items = list(items)
            if depth[0] == 0:
                add(TASKS, len(items))
            depth[0] += 1
            try:
                return method(self, fn, items, progress)
            finally:
                depth[0] -= 1
        return map_items

    pending = [Executor]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "map" in vars(cls):
            cls.map = counted(vars(cls)["map"])


def _gc_timer() -> dict:
    """Attach a ``gc.callbacks`` timer; returns its running totals."""
    totals = {"seconds": 0.0, "collections": 0, "_start": 0.0}

    def callback(phase, info):
        if phase == "start":
            totals["_start"] = time.perf_counter()
        else:
            totals["seconds"] += time.perf_counter() - totals["_start"]
            totals["collections"] += 1

    gc.callbacks.append(callback)
    return totals


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def result_digest(result) -> str:
    """sha256 of an ``ExperimentResult``'s rendered table."""
    return hashlib.sha256(result.to_table().encode("utf-8")).hexdigest()


def _measure(calls, counters: Counters,
             profile: cProfile.Profile | None = None) -> dict:
    """Run ``calls`` one by one under the clocks (and ``profile``).  The
    CPU window lies inside the wall window, so a single process never
    reads more CPU than wall time; digests are taken after both."""
    from repro.experiments import run_experiment

    outcomes = []
    start = time.perf_counter()
    cpu_self = _cpu_s(resource.RUSAGE_SELF)
    cpu_children = _cpu_s(resource.RUSAGE_CHILDREN)
    for label, experiment_id, kwargs in calls:
        worlds_before = counters[WORLDS]
        result, error = None, None
        if profile is not None:
            profile.enable()
        try:
            result = run_experiment(experiment_id, **kwargs)
        except Exception as exc:  # a raising experiment fails its trials
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if profile is not None:
                profile.disable()
        outcomes.append((label, result, error,
                         counters[WORLDS] - worlds_before))
    cpu_self = _cpu_s(resource.RUSAGE_SELF) - cpu_self
    cpu_children = _cpu_s(resource.RUSAGE_CHILDREN) - cpu_children
    wall = time.perf_counter() - start
    experiments = [{
        "label": label,
        "digest": None if result is None else result_digest(result),
        "rows": 0 if result is None else len(result.rows),
        "worlds": worlds,
        "error": error,
    } for label, result, error, worlds in outcomes]
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    children_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "wall_s": wall,
        "cpu_self_s": cpu_self,
        "cpu_children_s": cpu_children,
        # Linux reports kilobytes
        "peak_rss_mb": max(self_usage.ru_maxrss,
                           children_usage.ru_maxrss) / 1024,
        "slots": counters[SLOT_NS] / 625_000,
        "worlds": counters[WORLDS],
        "tasks": counters[TASKS],
        "soa_absorbed": counters[SOA_ABSORBED],
        "soa_declined": counters[SOA_DECLINED],
        "experiments": experiments,
    }


def _profile_summary(profile: cProfile.Profile) -> dict:
    table = pstats.Stats(profile).stats
    summary = {"self_s": layers.layer_self_times(table)}
    for name, targets in layers.ENTRY_POINTS.items():
        summary[name] = layers.entry_calls(table, targets)
    summary["transmit_cum_s"] = layers.cumulative_time(
        table, layers.ENTRY_POINTS["transmits"])
    summary["world_build_cum_s"] = layers.cumulative_time(
        table, layers.ENTRY_POINTS["world_builds"])
    return summary


def setup_world(kind: str, seed: int) -> None:
    """Build (do not run) one world like the workload's trials build."""
    from repro.api import Session
    from repro.experiments.common import paper_config
    from repro.power.rf_activity import RfActivityProbe

    if kind == "pair":  # a fig08 page/inquiry trial at the paper's BER grid
        session = Session(config=paper_config(ber=1 / 50, seed=seed,
                                              sync_threshold=0))
        session.add_device("master")
        session.add_device("slave")
    elif kind == "dense":  # the 20-piconet ext_interference point
        session = Session(config=paper_config(seed=seed, t_poll_slots=4000))
        for index in range(20):
            session.add_device(f"m{index}")
            session.add_device(f"s{index}")
    elif kind == "probed_pair":  # a low-power pair with its RF probe
        session = Session(config=paper_config(seed=seed, t_poll_slots=4000))
        session.add_device("master")
        RfActivityProbe(session.add_device("slave"))
    else:
        raise ValueError(f"unknown world kind {kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "trace", "setup"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--gc", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    # before any clock of this process starts; setup mode is timed whole
    import repro.experiments  # noqa: F401

    if args.mode == "setup":
        setup_world(workload.world, args.seed)
        return 0

    counters = Counters(5)
    _install_counters(counters)
    jobs = 1 if args.mode == "trace" else args.jobs
    calls = experiment_calls(workload, args.seed, jobs=jobs)
    gc_totals = _gc_timer() if args.gc else None
    profile = cProfile.Profile() if args.mode == "trace" else None
    record = _measure(calls, counters, profile)
    record["jobs"] = jobs if jobs is not None else workload.jobs
    if gc_totals is not None:
        record["gc_s"] = gc_totals["seconds"]
        record["gc_collections"] = gc_totals["collections"]
    if profile is not None:
        record["profile"] = _profile_summary(profile)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
