"""Bench: flattened sweep work queue scaling + simulation-kernel throughput.

Measures the Fig. 8 sweep workload (inquiry + page trials over the paper's
BER grid, flattened into one work queue) at jobs ∈ {1, 2, 4, 8} (local
fabric workers above one job), records
the worker utilization of each parallel run (worker CPU over wall time x
jobs, as perfbench's ``stats.worker_utilization``), and the
event-dispatch throughput of a 7-slave piconet in connection state.  The dense-deployment
interference campaign rides along: its piconet-count sweep runs flattened
at jobs ∈ {1, 4} (byte-identical, with the same no-regression guard).  A
20-piconet dense point is measured on the SoA slot engine, which every
session offers its windows, against the object kernel (the same world
with the slot engine detached) — paired rounds, outcomes asserted
identical, the speedup archived in the ``soa`` section.  The AFH
workload rides along too: an 8-piconet
deployment next to a 20-channel static interferer, measured with AFH off
and on — the archived entry pins that the adaptive hop set recovers the
goodput the fixed sequence keeps losing.  The timeline-capture overhead
guard rides along as well: the dense point is re-measured with the
:mod:`repro.sim.capture` timeline on vs off (paired rounds), asserting
capture-on stays within 5 % of capture-off and changes no outcome.
Results are archived in ``BENCH_sweep.json`` at the repo root, next to
``BENCH_codec.json``, so the perf trajectory of the execution layer is
pinned alongside the codec's.

The ``baseline_pre_flatten`` section of that file is pinned (measured on
the per-point-barrier codebase, commit 7bf1f7a) and preserved across runs;
only ``current`` is rewritten.

Invariants asserted on every run:

* sweep results are byte-identical across every measured job count;
* on hosts with >= 2 CPUs, ``jobs=4`` must not be slower than ``jobs=1``
  (the CI smoke guard — scheduling noise aside, the flattened queue keeps
  every worker busy end-to-end, so a slowdown means a dispatch regression).

Scale the workload with ``REPRO_TRIALS`` (CI smoke uses a tiny count).
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import pickle
import resource
import time

from repro.api import Session
from repro.experiments import ext_afh, ext_interference
from repro.experiments.common import PAPER_BER_GRID, paper_config
from repro.experiments.fig08_failure_probability import inquiry_trial, page_trial
from repro.stats.executor import SequentialExecutor
from repro.stats.fabric import FabricExecutor
from repro.stats.sweep import Sweep, run_flattened

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

JOB_COUNTS = (1, 2, 4, 8)
PICONET_SLAVES = 7
PICONET_SLOTS = 4000

#: Dense-deployment interference workload: piconet-count grid dispatched
#: as one flattened (count, trial) queue at jobs 1 and 4 (the CI smoke's
#: no-regression pair), and the 20-piconet point the engine, spatial and
#: timeline comparisons measure.
INTERFERENCE_COUNTS = (2.0, 6.0, 12.0)
INTERFERENCE_OBSERVE_SLOTS = 1200
INTERFERENCE_JOBS = (1, 4)
DENSE_PICONETS = 20
DENSE_OBSERVE_SLOTS = 800

#: Spatial workload: the same 20-piconet dense point with the piconets
#: spread on a deployment ring and the log-distance PHY resolving every
#: (transmitter, listener) pair — the per-pair link-budget price tag,
#: measured against the flat dense point.  2 m keeps the deployment
#: dense (neighbouring pairs inside each other's capture zone), so the
#: spatial resolver does real work rather than fast-pathing empties.
SPATIAL_BENCH_RADIUS_M = 2.0

#: AFH workload: 8 co-located piconets next to a 20-channel static
#: interferer, measured with AFH off and on (same seed, identical
#: bring-up).  The archived entry pins the recovery — AFH-on aggregate
#: goodput must not lose to AFH-off — alongside the timing rows.
AFH_PICONETS = 8
AFH_JAM_CHANNELS = 20
AFH_LEARN_SLOTS = 1200
AFH_OBSERVE_SLOTS = 1200
AFH_SEED = 909


def _sweep_specs(trials: int):
    """The Fig. 8 workload: two figure sweeps flattened into one queue."""
    return [
        (Sweep(master_seed=3, trials_per_point=trials),
         PAPER_BER_GRID, inquiry_trial),
        (Sweep(master_seed=4, trials_per_point=trials),
         PAPER_BER_GRID, page_trial),
    ]


def _children_cpu_s() -> float:
    """CPU seconds of every reaped child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run_sweep_workload(trials: int, jobs: int
                        ) -> tuple[float, float | None, bytes]:
    """Wall-clock, worker utilization and result digest of one flattened
    run.  Utilization is the fabric workers' CPU seconds over wall time x
    jobs; the workers' CPU is read from ``RUSAGE_CHILDREN`` once the
    map has reaped them, so the wall window spans the workers' start-up
    and shutdown.  The sequential run has no workers."""
    if jobs == 1:
        start = time.perf_counter()
        results = run_flattened(_sweep_specs(trials), SequentialExecutor())
        return time.perf_counter() - start, None, pickle.dumps(results)
    children_cpu = _children_cpu_s()
    start = time.perf_counter()
    with FabricExecutor(workers=jobs) as executor:
        results = run_flattened(_sweep_specs(trials), executor)
    wall = time.perf_counter() - start
    utilization = (_children_cpu_s() - children_cpu) / (wall * jobs)
    return wall, utilization, pickle.dumps(results)


def _interference_specs(trials: int):
    """The dense-deployment workload: one sweep over the piconet counts."""
    xs = [(count, str(int(count))) for count in INTERFERENCE_COUNTS]
    return [(Sweep(master_seed=22, trials_per_point=trials), xs,
             ext_interference.run_trial)]


def _run_interference_workload(trials: int, jobs: int) -> tuple[float, bytes]:
    """Wall-clock and result digest of one flattened interference run."""
    if jobs == 1:
        start = time.perf_counter()
        results = run_flattened(_interference_specs(trials),
                                SequentialExecutor())
        return time.perf_counter() - start, pickle.dumps(results)
    with FabricExecutor(workers=jobs) as executor:
        start = time.perf_counter()
        results = run_flattened(_interference_specs(trials), executor)
        wall = time.perf_counter() - start
    return wall, pickle.dumps(results)


def _measure_engine_dense_point(engine: str) -> tuple[float, int, tuple]:
    """Wall clock, kernel events dispatched and physical outcome of the
    dense point run on one simulation engine: ``"object"`` detaches the
    slot engine once the world is built, so the object kernel runs the
    observed window."""
    session, pairs = ext_interference.build_campaign_session(
        DENSE_PICONETS, seed=606)
    if engine == "object":
        session.sim._slot_engine = None
    before = session.sim.events_dispatched
    gc.collect()
    start = time.perf_counter()
    session.run_slots(DENSE_OBSERVE_SLOTS)
    wall = time.perf_counter() - start
    events = session.sim.events_dispatched - before
    outcome = (
        session.channel.collisions,
        session.channel.transmissions,
        tuple(slave.rx_buffer.total_bytes for _, slave in pairs),
    )
    return wall, events, outcome


def _run_soa_engine_bench(rounds: int = 3) -> dict:
    """The dense point on the SoA slot engine vs the object kernel.

    Both engines are measured adjacently within each round and the best
    paired ratio is archived: on loaded single-CPU runners the host's
    speed drifts between blocks, and pairing cancels that drift out of
    the comparison.  The two
    engines dispatch *different* event streams over the same physical
    window (the SoA micro-kernel absorbs and coalesces events), so both
    rates are expressed in object-kernel events per second — object
    events over each engine's wall clock — which makes the ratio a pure
    wall-clock speedup on identical simulated work.  Physical outcomes
    must be identical: byte equivalence is the engine contract.
    """
    best: dict = {}
    outcomes: set = set()
    for _ in range(rounds):
        obj_wall, obj_events, obj_outcome = \
            _measure_engine_dense_point("object")
        soa_wall, soa_events, soa_outcome = _measure_engine_dense_point("soa")
        outcomes.update((obj_outcome, soa_outcome))
        ratio = obj_wall / soa_wall
        if not best or ratio > best["speedup_soa_vs_object"]:
            best = {
                "object": {"wall_s": round(obj_wall, 4),
                           "events_per_s": round(obj_events / obj_wall)},
                "soa": {"wall_s": round(soa_wall, 4),
                        "events_per_s": round(obj_events / soa_wall),
                        "micro_events": soa_events},
                "speedup_soa_vs_object": ratio,
            }
    best["speedup_soa_vs_object"] = round(best["speedup_soa_vs_object"], 2)
    return {
        "piconets": DENSE_PICONETS,
        "observe_slots": DENSE_OBSERVE_SLOTS,
        "rounds": rounds,
        **best,
        "outcomes_identical": len(outcomes) == 1,
    }


def _run_capture_overhead(chunk_slots: int = 50) -> dict:
    """The dense-interference point with the timeline capture off vs on.

    The capture hooks are supposed to cost one attribute test per hook
    site when off and a cheap append per record when on — this measures
    the real price on the heaviest committed workload and archives it,
    and the bench assertion demands capture-on stays within 5 % of
    capture-off.  Hosted runners drift (frequency scaling, co-tenants)
    by more than the budget being guarded, so the two sides are **one
    pair of lockstep worlds advanced in alternating ~50-slot chunks**:
    adjacent chunks see near-identical host speed, each chunk pair's
    wall ratio cancels the drift, and a pass's ratio is the median over
    all chunk pairs — a GC pause or migration landing in one chunk
    perturbs one sample, not the estimate.  Two full passes run (fresh
    worlds each: heap-layout luck is per-process-lifetime) and the
    *better* median is archived — a real hook regression slows every
    pass, while one unluckily-laid-out pass must not fail the build.
    Outcomes must be byte-identical: capture is purely observational.
    Both worlds take the default path, on which the slot engine absorbs
    every observed window.
    """
    best: dict = {}
    outcomes: set = set()
    for _ in range(2):
        session_off, pairs_off = ext_interference.build_campaign_session(
            DENSE_PICONETS, seed=606)
        session_on, pairs_on = ext_interference.build_campaign_session(
            DENSE_PICONETS, seed=606, capture=True)
        events_before = (session_off.sim.events_dispatched,
                         session_on.sim.events_dispatched)
        gc.collect()
        off_wall = on_wall = 0.0
        ratios: list = []
        for _ in range(DENSE_OBSERVE_SLOTS // chunk_slots):
            start = time.perf_counter()
            session_off.run_slots(chunk_slots)
            off = time.perf_counter() - start
            start = time.perf_counter()
            session_on.run_slots(chunk_slots)
            on = time.perf_counter() - start
            off_wall += off
            on_wall += on
            # events/s on ÷ events/s off == wall off ÷ wall on (the two
            # worlds dispatch identical event streams)
            ratios.append(off / on)
        ratios.sort()
        ratio = ratios[len(ratios) // 2]
        for session, pairs in ((session_off, pairs_off),
                               (session_on, pairs_on)):
            outcomes.add((session.channel.collisions,
                          session.channel.transmissions,
                          tuple(slave.rx_buffer.total_bytes
                                for _, slave in pairs)))
        if not best or ratio > best["ratio_on_vs_off"]:
            events_off = session_off.sim.events_dispatched - events_before[0]
            events_on = session_on.sim.events_dispatched - events_before[1]
            best = {
                "capture_off": {"wall_s": round(off_wall, 4),
                                "events_per_s": round(events_off / off_wall)},
                "capture_on": {"wall_s": round(on_wall, 4),
                               "events_per_s": round(events_on / on_wall),
                               "timeline_events":
                                   sum(session_on.capture.counts().values())},
                "ratio_on_vs_off": round(ratio, 3),
            }
    return {
        "piconets": DENSE_PICONETS,
        "observe_slots": DENSE_OBSERVE_SLOTS,
        "chunk_slots": chunk_slots,
        "passes": 2,
        **best,
        "outcomes_identical": len(outcomes) == 1,
    }


def _measure_spatial_dense_point(engine: str) -> tuple[float, int, tuple]:
    """Wall clock, kernel events and physical outcome of the dense point
    deployed on a ``SPATIAL_BENCH_RADIUS_M`` ring with the log-distance
    PHY (same seed and window as the flat dense point), on one engine as
    in :func:`_measure_engine_dense_point`."""
    session, pairs = ext_interference.build_spatial_session(
        DENSE_PICONETS, SPATIAL_BENCH_RADIUS_M, seed=606)
    if engine == "object":
        session.sim._slot_engine = None
    before = session.sim.events_dispatched
    gc.collect()
    start = time.perf_counter()
    session.run_slots(DENSE_OBSERVE_SLOTS)
    wall = time.perf_counter() - start
    events = session.sim.events_dispatched - before
    outcome = (
        session.channel.collisions,
        session.channel.transmissions,
        tuple(slave.rx_buffer.total_bytes for _, slave in pairs),
    )
    return wall, events, outcome


def _run_spatial_bench(rounds: int = 3) -> dict:
    """The dense point geometry-on vs flat, plus the engine-identity
    check on the spatial world.

    Flat and spatial are measured adjacently within each round (the same
    pairing discipline as the other dense comparisons) and the best
    paired ratio is archived — the per-pair link-budget resolution has a
    price, and this pins how much of the flat rate survives it.  The
    spatial point additionally runs on the SoA engine each round; its
    outcomes must be byte-identical to the object kernel's (the engine
    contract extends to spatial worlds)."""
    best: dict = {}
    engine_outcomes: set = set()
    for _ in range(rounds):
        flat_wall, flat_events, _ = _measure_engine_dense_point("object")
        geo_wall, geo_events, geo_outcome = \
            _measure_spatial_dense_point("object")
        _, _, soa_outcome = _measure_spatial_dense_point("soa")
        engine_outcomes.update((geo_outcome, soa_outcome))
        flat_rate = flat_events / flat_wall
        geo_rate = geo_events / geo_wall
        ratio = geo_rate / flat_rate
        if not best or ratio > best["ratio_geometry_vs_flat"]:
            best = {
                "flat": {"wall_s": round(flat_wall, 4),
                         "events_per_s": round(flat_rate)},
                "geometry": {"wall_s": round(geo_wall, 4),
                             "events_per_s": round(geo_rate)},
                "ratio_geometry_vs_flat": ratio,
            }
    best["ratio_geometry_vs_flat"] = round(best["ratio_geometry_vs_flat"], 3)
    return {
        "piconets": DENSE_PICONETS,
        "observe_slots": DENSE_OBSERVE_SLOTS,
        "radius_m": SPATIAL_BENCH_RADIUS_M,
        "rounds": rounds,
        **best,
        "outcomes_identical_across_engines": len(engine_outcomes) == 1,
    }


def _run_afh_workload() -> dict:
    """The 8-piconet AFH workload: aggregate goodput next to a 20-channel
    static interferer with AFH off vs on (same seed, identical bring-up).
    Archived so the recovery is pinned in BENCH_sweep.json and guarded by
    the bench-sweep-smoke CI job."""
    rows: dict[str, dict] = {}
    for label, enabled in (("off", False), ("on", True)):
        start = time.perf_counter()
        goodput, hop_sets = ext_afh.measure_aggregate_goodput(
            AFH_PICONETS, AFH_JAM_CHANNELS, enabled, AFH_SEED,
            AFH_LEARN_SLOTS, AFH_OBSERVE_SLOTS)
        rows[label] = {
            "wall_s": round(time.perf_counter() - start, 3),
            "goodput_kbps": round(goodput, 1),
            "mean_hop_set": round(sum(hop_sets) / len(hop_sets), 1),
        }
    # a dead AFH-off link would make the on>=off recovery guards vacuous
    # (and put an Infinity token into the JSON archive)
    assert rows["off"]["goodput_kbps"] > 0, \
        "AFH-off workload delivered nothing; recovery comparison is void"
    ratio = rows["on"]["goodput_kbps"] / rows["off"]["goodput_kbps"]
    return {
        "workload": {
            "experiment": "ext_afh",
            "piconets": AFH_PICONETS,
            "jammed_channels": AFH_JAM_CHANNELS,
            "learn_slots": AFH_LEARN_SLOTS,
            "observe_slots": AFH_OBSERVE_SLOTS,
        },
        "off": rows["off"],
        "on": rows["on"],
        "goodput_ratio_on_vs_off": round(ratio, 2),
    }


def _run_piconet_kernel() -> dict:
    """Events/sec of a 7-slave piconet in steady connection state."""
    session = Session(config=paper_config(seed=2))
    master = session.add_device("master")
    slaves = [session.add_device(f"slave{i}") for i in range(PICONET_SLAVES)]
    session.build_piconet(master, slaves)
    before = session.sim.events_dispatched
    start = time.perf_counter()
    session.run_slots(PICONET_SLOTS)
    wall = time.perf_counter() - start
    events = session.sim.events_dispatched - before
    return {
        "slaves": PICONET_SLAVES,
        "slots": PICONET_SLOTS,
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_s": round(events / wall),
    }


def _run_interference_bench(trials: int) -> dict:
    """The interference workload at jobs 1/4.  Observation windows are
    bench-scaled (workers inherit the patched module attribute via the
    executor's fork start method)."""
    interference_trials = max(2, trials // 3)
    saved_slots = ext_interference.OBSERVE_SLOTS
    ext_interference.OBSERVE_SLOTS = INTERFERENCE_OBSERVE_SLOTS
    try:
        rows: dict[str, dict] = {}
        digests = set()
        wall_by_jobs: dict[int, float] = {}
        for jobs in INTERFERENCE_JOBS:
            wall, digest = _run_interference_workload(interference_trials,
                                                      jobs)
            digests.add(digest)
            wall_by_jobs[jobs] = wall
            row = {"wall_s": round(wall, 3)}
            if jobs > 1:
                row["speedup_vs_1"] = round(wall_by_jobs[1] / wall, 2)
            rows[str(jobs)] = row
    finally:
        ext_interference.OBSERVE_SLOTS = saved_slots
    return {
        "workload": {
            "experiment": "ext_interference",
            "piconet_counts": [int(count) for count in INTERFERENCE_COUNTS],
            "trials_per_point": interference_trials,
            "observe_slots": INTERFERENCE_OBSERVE_SLOTS,
        },
        "jobs": rows,
        "identical_across_jobs": len(digests) == 1,
    }


def _run_bench() -> dict:
    trials = int(os.environ.get("REPRO_TRIALS", "12"))
    sweep_rows: dict[str, dict] = {}
    digests = set()
    wall_by_jobs: dict[int, float] = {}
    for jobs in JOB_COUNTS:
        wall, utilization, digest = _run_sweep_workload(trials, jobs)
        digests.add(digest)
        wall_by_jobs[jobs] = wall
        row = {"wall_s": round(wall, 3)}
        if jobs > 1:
            row["speedup_vs_1"] = round(wall_by_jobs[1] / wall, 2)
            row["utilization"] = round(utilization, 3)
        sweep_rows[str(jobs)] = row
    host: dict = {"cpu_count": os.cpu_count()}
    if (os.cpu_count() or 1) < 4:
        host["note"] = (
            "host has fewer than 4 CPUs: wall-clock speedup at jobs=4 is "
            "bounded by the hardware, not the dispatcher; the utilization "
            "figure shows whether the flattened queue kept every pool slot "
            "occupied")
    return {
        "host": host,
        "workload": {
            "figure": "fig08",
            "sweeps": 2,
            "points_per_sweep": len(PAPER_BER_GRID),
            "trials_per_point": trials,
        },
        "sweep": {
            "jobs": sweep_rows,
            "identical_across_jobs": len(digests) == 1,
        },
        "kernel": _run_piconet_kernel(),
        "interference": _run_interference_bench(trials),
        "soa": _run_soa_engine_bench(),
        "spatial": _run_spatial_bench(),
        "afh": _run_afh_workload(),
        "timeline": _run_capture_overhead(),
    }


#: Keys every archived ``current`` section must carry (the CI smoke job
#: regenerates the file and relies on this check).
_SCHEMA_KEYS = {
    "host": ("cpu_count",),
    "workload": ("figure", "sweeps", "points_per_sweep", "trials_per_point"),
    "sweep": ("jobs", "identical_across_jobs"),
    "kernel": ("slaves", "slots", "events", "wall_s", "events_per_s"),
    "interference": ("workload", "jobs", "identical_across_jobs"),
    "soa": ("piconets", "observe_slots", "object", "soa",
            "speedup_soa_vs_object", "outcomes_identical"),
    "spatial": ("piconets", "observe_slots", "radius_m", "flat", "geometry",
                "ratio_geometry_vs_flat",
                "outcomes_identical_across_engines"),
    "afh": ("workload", "off", "on", "goodput_ratio_on_vs_off"),
    "timeline": ("piconets", "capture_off", "capture_on", "ratio_on_vs_off",
                 "outcomes_identical"),
}


def _check_schema(current: dict) -> None:
    for section, keys in _SCHEMA_KEYS.items():
        assert section in current, f"BENCH_sweep.json missing {section!r}"
        for key in keys:
            assert key in current[section], \
                f"BENCH_sweep.json missing {section}.{key}"
    for jobs in JOB_COUNTS:
        assert str(jobs) in current["sweep"]["jobs"]
    for jobs in INTERFERENCE_JOBS:
        assert str(jobs) in current["interference"]["jobs"]
    for engine in ("object", "soa"):
        for key in ("wall_s", "events_per_s"):
            assert key in current["soa"][engine], \
                f"BENCH_sweep.json missing soa.{engine}.{key}"
    assert "micro_events" in current["soa"]["soa"], \
        "BENCH_sweep.json missing soa.soa.micro_events"
    for side in ("flat", "geometry"):
        for key in ("wall_s", "events_per_s"):
            assert key in current["spatial"][side], \
                f"BENCH_sweep.json missing spatial.{side}.{key}"
    for mode in ("off", "on"):
        for key in ("wall_s", "goodput_kbps", "mean_hop_set"):
            assert key in current["afh"][mode], \
                f"BENCH_sweep.json missing afh.{mode}.{key}"
    assert "timeline_events" in current["timeline"]["capture_on"], \
        "BENCH_sweep.json missing timeline.capture_on.timeline_events"


def _archive(results: dict) -> None:
    payload = {}
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
    payload.setdefault("schema", 1)
    payload["current"] = {
        "generated_by": "benchmarks/bench_sweep.py",
        **results,
    }
    _check_schema(payload["current"])
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def bench_sweep_scaling(benchmark, capsys):
    results = benchmark.pedantic(_run_bench, rounds=1, iterations=1,
                                 warmup_rounds=0)
    with capsys.disabled():
        print()
        print(f"[fig08 workload: 2 sweeps x {len(PAPER_BER_GRID)} points x "
              f"{results['workload']['trials_per_point']} trials, "
              f"{results['host']['cpu_count']} CPU(s)]")
        print(f"{'jobs':<6}{'wall s':>10}{'speedup':>10}{'util':>8}")
        for jobs in JOB_COUNTS:
            row = results["sweep"]["jobs"][str(jobs)]
            speedup = row.get("speedup_vs_1", 1.0)
            util = row.get("utilization")
            print(f"{jobs:<6}{row['wall_s']:>10.2f}{speedup:>10.2f}"
                  f"{util if util is not None else '':>8}")
        kernel = results["kernel"]
        print(f"piconet ({kernel['slaves']} slaves): "
              f"{kernel['events_per_s']:,} events/s")
        interference = results["interference"]
        walls = {jobs: interference["jobs"][str(jobs)]["wall_s"]
                 for jobs in INTERFERENCE_JOBS}
        print(f"interference sweep ({interference['workload']['piconet_counts']}"
              f" piconets x {interference['workload']['trials_per_point']}"
              f" trials): " + ", ".join(f"jobs={jobs} {wall:.2f}s"
                                        for jobs, wall in walls.items()))
        soa = results["soa"]
        print(f"soa engine ({soa['piconets']} piconets): "
              f"{soa['soa']['events_per_s']:,} obj-events/s vs "
              f"{soa['object']['events_per_s']:,} object kernel "
              f"({soa['speedup_soa_vs_object']}x best paired round)")
        spatial = results["spatial"]
        print(f"spatial ({spatial['piconets']} piconets, "
              f"{spatial['radius_m']:g} m ring): "
              f"{spatial['geometry']['events_per_s']:,} events/s geometry vs "
              f"{spatial['flat']['events_per_s']:,} flat "
              f"({spatial['ratio_geometry_vs_flat']}x best paired round)")
        afh = results["afh"]
        print(f"afh ({afh['workload']['piconets']} piconets, "
              f"{afh['workload']['jammed_channels']} jammed): "
              f"{afh['off']['goodput_kbps']} kb/s off vs "
              f"{afh['on']['goodput_kbps']} kb/s on "
              f"({afh['goodput_ratio_on_vs_off']}x, mean hop set "
              f"{afh['on']['mean_hop_set']})")
        timeline = results["timeline"]
        print(f"timeline capture ({timeline['piconets']} piconets): "
              f"{timeline['capture_on']['events_per_s']:,} events/s on vs "
              f"{timeline['capture_off']['events_per_s']:,} off "
              f"({timeline['ratio_on_vs_off']}x, "
              f"{timeline['capture_on']['timeline_events']:,} records)")
    _archive(results)

    # determinism is non-negotiable at any job count
    assert results["sweep"]["identical_across_jobs"]
    assert results["interference"]["identical_across_jobs"]
    # the SoA slot engine's whole contract is "identical bytes, faster":
    # any outcome divergence is a correctness bug, and a dense point run
    # slower than the object kernel means the engine stopped paying for
    # itself (the archived speedup tracks the actual gain, ~3x locally)
    soa = results["soa"]
    assert soa["outcomes_identical"], \
        "SoA engine diverged from the object kernel on the dense point"
    assert soa["speedup_soa_vs_object"] >= 1.0, (
        f"SoA engine slower than the object kernel on the dense point "
        f"({soa['speedup_soa_vs_object']}x)")
    # the engine contract extends to spatial worlds: the SoA micro-kernel
    # must produce the object kernel's bytes with per-pair link budgets
    # in play; the recorded geometry-vs-flat ratio tracks what the
    # per-pair resolution costs (no floor asserted — it is a price tag,
    # not an optimization — but the measurement must be non-degenerate)
    spatial = results["spatial"]
    assert spatial["outcomes_identical_across_engines"], \
        "SoA engine diverged from the object kernel on the spatial point"
    assert spatial["geometry"]["events_per_s"] > 0
    assert spatial["ratio_geometry_vs_flat"] > 0
    # AFH must pay for itself under a static interferer: the adaptive hop
    # set recovers goodput the fixed 79-channel sequence keeps losing
    afh = results["afh"]
    assert afh["on"]["goodput_kbps"] >= afh["off"]["goodput_kbps"], (
        f"AFH-on aggregate goodput ({afh['on']['goodput_kbps']} kb/s) lost "
        f"to AFH-off ({afh['off']['goodput_kbps']} kb/s) under a "
        f"{AFH_JAM_CHANNELS}-channel static interferer")
    assert afh["on"]["mean_hop_set"] >= 20  # spec N_min respected
    # timeline capture must be observational and near-free: identical
    # outcomes, and the capture-on dense point within 5% of capture-off
    # (best pass of lockstep chunk pairs — drift cancels per pair)
    timeline = results["timeline"]
    assert timeline["outcomes_identical"], \
        "timeline capture changed the dense campaign point's outcomes"
    assert timeline["capture_on"]["timeline_events"] > 0, \
        "capture-on dense point recorded no timeline events"
    assert timeline["ratio_on_vs_off"] >= 0.95, (
        f"timeline capture costs more than 5% on the dense point "
        f"({timeline['ratio_on_vs_off']}x vs capture-off)")
    # CI smoke guard: with real cores, the flattened queue at jobs=4 must
    # beat (or at worst match) the sequential run; on a single-CPU host
    # there is no parallelism to measure, so only determinism is checked
    cpus = os.cpu_count() or 1
    if cpus >= 2:
        wall1 = results["sweep"]["jobs"]["1"]["wall_s"]
        wall4 = results["sweep"]["jobs"]["4"]["wall_s"]
        # 10% headroom absorbs scheduling jitter on loaded shared runners;
        # a real dispatch regression (idle workers, serialized chunks)
        # shows up as wall4 ~= wall1, far outside this margin
        assert wall4 <= wall1 * 1.1, (
            f"jobs=4 ({wall4:.2f}s) slower than jobs=1 ({wall1:.2f}s) "
            f"on a {cpus}-CPU host: flattened dispatch regression")
        iwall1 = results["interference"]["jobs"]["1"]["wall_s"]
        iwall4 = results["interference"]["jobs"]["4"]["wall_s"]
        assert iwall4 <= iwall1 * 1.1, (
            f"interference workload at jobs=4 ({iwall4:.2f}s) slower than "
            f"jobs=1 ({iwall1:.2f}s) on a {cpus}-CPU host")
