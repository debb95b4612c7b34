"""The benchmark's workloads and how a workload seed reaches each experiment.

A workload is a fixed list of ``run_experiment`` calls.  The workload seed
``n`` shifts every experiment's ``seed=`` by ``n * SEED_STRIDE`` from the
experiment's own default, so seed 0 runs the registry defaults and
different workload seeds never share an experiment seed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Distance between the experiment seeds of consecutive workload seeds;
#: larger than any per-workload seed repeat, so seed ranges never overlap.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` name.
        experiments: ``(experiment_id, default_seed, extra kwargs)`` per
            experiment, in run order.
        jobs: the ``jobs=`` every call runs at (1 = sequential).
        seed_repeats: each experiment runs once per seed
            ``base, base + 1, ...`` this many times.
        world: the setup probe's world kind (see ``setup_world``).
        reaches_power_layers: the only workload whose worlds negotiate
            sniff/hold over LMP and sample RF activity.
        soa_absorbs: the only workload the SoA slot engine takes over.
    """

    name: str
    experiments: tuple[tuple[str, int, tuple[tuple[str, int], ...]], ...]
    jobs: int
    seed_repeats: int
    world: str
    reaches_power_layers: bool
    soa_absorbs: bool


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="piconet_creation",
            experiments=(("fig08", 3, (("trials", 24),)),),
            jobs=2, seed_repeats=1, world="pair",
            reaches_power_layers=False, soa_absorbs=False),
        Workload(
            name="dense_interference",
            experiments=(("ext_interference", 22, (("trials", 1),)),),
            jobs=1, seed_repeats=1, world="dense",
            reaches_power_layers=False, soa_absorbs=True),
        Workload(
            name="low_power",
            experiments=(("fig10", 10, ()), ("fig11", 11, ()),
                         ("fig12", 12, ()), ("ext_power", 21, ())),
            jobs=1, seed_repeats=3, world="probed_pair",
            reaches_power_layers=True, soa_absorbs=False),
    )
}


def experiment_calls(workload: Workload, seed: int,
                     jobs: int | None = None) -> list[tuple[str, str, dict]]:
    """The ``(label, experiment_id, kwargs)`` calls of ``workload`` at
    workload seed ``seed``; ``jobs`` overrides the workload's job count
    (the traced and SoA passes run at 1)."""
    if seed < 0:
        raise ValueError(f"workload seed must be >= 0, got {seed}")
    calls = []
    for experiment_id, default_seed, extra in workload.experiments:
        for repeat in range(workload.seed_repeats):
            experiment_seed = default_seed + seed * SEED_STRIDE + repeat
            kwargs = dict(extra, seed=experiment_seed,
                          jobs=workload.jobs if jobs is None else jobs)
            calls.append((f"{experiment_id}@{experiment_seed}",
                          experiment_id, kwargs))
    return calls
