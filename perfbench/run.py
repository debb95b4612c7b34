"""Benchmark entry point: one workload, end-to-end or per-layer.

    python3 perfbench/run.py --workload piconet_creation --seed 0 \\
        --seconds 25 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
``--trace 0`` times fresh-interpreter set-up and repeats the workload, each
repeat in a fresh interpreter, until ``--seconds`` have passed; it reports
medians.  ``--trace 1`` makes the per-layer passes (untraced, cProfile and
SoA) once each.  Every pass checks the result digests.  Human-readable
lines go first; the last line of standard output is the JSON result.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Timed fresh-interpreter set-up starts before each workload repeat, so
#: the set-up samples spread over the whole run as the repeats do (one
#: more, untimed, warms the bytecode cache first).
SETUP_STARTS_PER_REPEAT = 3

#: Every run must end within 180 s; child passes get what is left of this.
RUN_BUDGET_S = 170.0

#: Digests of every experiment's ``ExperimentResult.to_table()`` at
#: workload seed 0, per workload.
DIGESTS_FILE = HERE / "digests.json"


class Run:
    """Child-process bookkeeping of one benchmark run: the deadline, the
    trial accounting and the correctness verdict."""

    def __init__(self, workload: Workload, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        recorded = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
        #: label -> expected digest; seeds without a record adopt the
        #: first digest seen, so every later pass must reproduce it
        self.expected: dict[str, str] = \
            dict(recorded.get(workload.name, {})) if seed == 0 else {}

    def env(self, engine: str = "object") -> dict:
        """The child environment: no inherited ``REPRO_*`` knobs, the
        checkout's ``src`` on the path, the chosen engine."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_ENGINE"] = engine
        return env

    def child(self, mode: str, *extra: str, engine: str = "object"):
        """Run ``measure.py`` once; returns ``(record, seconds)``, record
        None when the child failed or ran out of time."""
        command = [sys.executable, str(HERE / "measure.py"), mode,
                   "--workload", self.workload.name, "--seed", str(self.seed),
                   *extra]
        remaining = self.deadline - time.monotonic()
        start = time.perf_counter()
        # its own session, so a timeout kills its pool workers with it
        with subprocess.Popen(command, cwd=self.root, env=self.env(engine),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, start_new_session=True) as child:
            try:
                stdout, stderr = child.communicate(timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
                self.problem(f"{mode} pass ran past the run budget")
                return None, time.perf_counter() - start
        seconds = time.perf_counter() - start
        if child.returncode != 0:
            self.problem(f"{mode} pass exited {child.returncode}: "
                         f"{stderr.strip()[-400:]}")
            return None, seconds
        if mode == "setup":
            return {}, seconds
        return json.loads(stdout.strip().splitlines()[-1]), seconds

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"problem: {message}", file=sys.stderr)

    def account(self, record: dict | None, name: str) -> None:
        """Count a pass's trials (one per world built) and fail those of
        every experiment that raised or produced an unexpected digest."""
        if record is None:
            self.attempted += 1
            self.failed += 1
            return
        for experiment in record["experiments"]:
            trials = max(experiment["worlds"], 1)
            self.attempted += trials
            label, digest = experiment["label"], experiment["digest"]
            if experiment["error"] is not None:
                self.failed += trials
                self.problem(f"{name}: {label} raised {experiment['error']}")
                continue
            expected = self.expected.setdefault(label, digest)
            if digest != expected or experiment["rows"] == 0:
                self.failed += trials
                self.problem(f"{name}: {label} digest {digest} != {expected}")

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problem(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def end_to_end(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    """Set-up starts and workload repeats until ``seconds`` have passed."""
    run.child("setup")
    setup, repeats = [], []
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        for _ in range(SETUP_STARTS_PER_REPEAT):
            record, elapsed = run.child("setup")
            if record is not None:
                setup.append(elapsed)
        record, _ = run.child("run")
        run.account(record, f"repeat {len(repeats) + 1}")
        if record is None:
            break
        repeats.append(record)
    if not repeats or not setup:
        return {}
    slots = {record["slots"] for record in repeats}
    run.check(len(slots) == 1, f"simulated slots differ across repeats: {slots}")
    wall = statistics.median(record["wall_s"] for record in repeats)
    print(f"repeats: {len(repeats)}; wall_s per repeat: "
          + " ".join(f"{record['wall_s']:.3f}" for record in repeats))
    return {
        "wall_s": (wall, "s"),
        "sim_slots_per_s": (repeats[0]["slots"] / wall, "slots/s"),
        "cpu_s": (statistics.median(record["cpu_self_s"]
                                    + record["cpu_children_s"]
                                    for record in repeats), "s"),
        "peak_rss_mb": (statistics.median(record["peak_rss_mb"]
                                          for record in repeats), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """The pooled, untraced, traced and SoA passes, combined."""
    workload = run.workload
    passes = {}
    if workload.jobs > 1:
        passes["pooled"], _ = run.child("run", "--jobs", str(workload.jobs))
    passes["untraced"], _ = run.child("run", "--jobs", "1", "--gc")
    passes["traced"], _ = run.child("trace")
    passes["soa"], _ = run.child("run", "--jobs", "1", engine="soa")
    for name, record in passes.items():
        run.account(record, f"{name} pass")
    if any(record is None for record in passes.values()):
        return {}
    base, traced, soa = passes["untraced"], passes["traced"], passes["soa"]
    pooled = passes.get("pooled", base)
    profile = traced["profile"]
    run.check(base["slots"] == traced["slots"],
              f"traced slots {traced['slots']} != untraced {base['slots']}")
    slots = base["slots"]
    events = profile["events"]
    polls = profile["polls"]
    transmits = profile["transmits"]
    absorbed, declined = soa["soa_absorbed"], soa["soa_declined"]
    jobs = pooled["jobs"]
    worker_cpu = pooled["cpu_children_s"] if jobs > 1 else pooled["cpu_self_s"]
    utilization = layers.worker_utilization(worker_cpu, pooled["wall_s"], jobs)

    metrics = {
        "sim.events": (events, "count"),
        "sim.events_per_slot": (layers.ratio(events, slots), "events/slot"),
        "sim.host_ns_per_event": (layers.ratio(base["wall_s"] * 1e9, events),
                                  "ns/event"),
        "sim.signal_writes": (profile["signal_writes"], "count"),
        "sim.soa.wall_ratio": (layers.ratio(soa["wall_s"], base["wall_s"]),
                               "ratio"),
        "sim.soa.absorb_ratio": (layers.ratio(absorbed, absorbed + declined),
                                 "ratio"),
        "sim.soa.windows_declined": (declined, "count"),
        "phy.transmits": (transmits, "count"),
        "phy.us_per_transmit": (
            layers.ratio(profile["transmit_cum_s"] * 1e6, transmits), "us/tx"),
        "phy.retunes_per_transmit": (
            layers.ratio(profile["retunes"], transmits), "retunes/tx"),
        "link.polls_per_slot": (layers.ratio(polls, slots), "polls/slot"),
        "link.tx_per_poll": (layers.ratio(profile["poll_tx"], polls),
                             "tx/poll"),
        "link.procedures": (profile["procedures"], "count"),
        "lm.requests": (profile["lm_requests"], "count"),
        "baseband.hop_lookups": (profile["hop_lookups"], "count"),
        "baseband.hop_fill_ratio": (
            layers.ratio(profile["hop_fills"], profile["hop_lookups"]),
            "fills/lookup"),
        "baseband.stage_draws": (profile["stage_draws"], "count"),
        "power.samples": (profile["power_samples"], "count"),
        "api.worlds": (profile["worlds"], "count"),
        "api.world_build_ms": (
            layers.ratio(profile["world_build_cum_s"] * 1e3,
                         profile["worlds"]), "ms/world"),
        "stats.tasks": (pooled["tasks"], "count"),
        "stats.worker_utilization": (utilization, "ratio"),
        "stats.dispatch_us_per_task": (
            layers.ratio(pooled["cpu_self_s"] * 1e6, pooled["tasks"]),
            "us/task"),
        "runtime.gc_share": (layers.ratio(base["gc_s"], base["wall_s"]),
                             "share"),
        "runtime.gc_collections": (base["gc_collections"], "count"),
        "runtime.trace_overhead": (
            layers.ratio(traced["wall_s"], base["wall_s"]), "ratio"),
    }
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_share"] = (
            layers.ratio(profile["self_s"][layer], traced["wall_s"]), "share")

    run.check(0 < utilization <= 1,
              f"worker utilization {utilization:.4f} outside (0, 1]")
    run.check((absorbed > 0) == workload.soa_absorbs,
              f"SoA absorbed {absorbed} windows on {workload.name}")
    for name in ("lm.requests", "power.samples"):
        run.check((metrics[name][0] > 0) == workload.reaches_power_layers,
                  f"{name} = {metrics[name][0]} on {workload.name}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {root / 'src' / 'repro'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed, root)
    if args.trace:
        metrics = per_layer(run)
    else:
        metrics = end_to_end(run, args.seconds)
    run.check(bool(metrics), "no pass completed")

    for label, digest in sorted(run.expected.items()):
        print(f"digest {label} {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} trial_error_frac = "
          f"{layers.ratio(run.failed, run.attempted):.6g} fraction "
          f"({run.failed}/{run.attempted} trials)")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
