"""Profile arithmetic of the traced pass, and the statistics the runner
reports.  Pure functions over ``pstats`` data, unit-tested on their own.

A ``pstats`` table maps ``(filename, lineno, funcname)`` to
``(primitive_calls, calls, tottime, cumtime, callers)``, where ``callers``
maps each calling function to the ``(primitive_calls, calls, tottime,
cumtime)`` of that one edge.
"""

from __future__ import annotations

import statistics
from pathlib import PurePath
from typing import Iterable, Mapping

#: The program's packages under ``src/repro/``; ``api.py`` is its own layer.
LAYERS = ("sim", "phy", "link", "lm", "baseband", "power", "api", "stats",
          "experiments")

#: Time that no layer owns: ``repro`` top-level modules other than
#: ``api.py`` (config, units, errors) and code called from none of them.
OTHER = "other"

#: Public entry points the per-layer counts read, as
#: ``(path under src/repro, function name)``.
ENTRY_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "events": (("sim/scheduler.py", "push"),),
    "signal_writes": (("sim/signal.py", "write"),),
    "transmits": (("phy/channel.py", "transmit"),),
    "retunes": (("phy/channel.py", "listener_retuned"),),
    "polls": (("link/polling.py", "choose"),),
    "poll_tx": (("link/connection.py", "_transmit_action"),),
    "procedures": (("link/device.py", "start_inquiry"),
                   ("link/device.py", "start_page")),
    "lm_requests": (("lm/lmp.py", "request_sniff"),
                    ("lm/lmp.py", "request_hold")),
    "hop_lookups": (("baseband/hop.py", "connection"),),
    "hop_fills": (("baseband/hop.py", "connection_many"),
                  ("baseband/hop.py", "connection_windows_many")),
    "stage_draws": tuple(("baseband/errormodel.py", name) for name in (
        "sample_sync", "sample_header", "sample_payload", "sample_stages",
        "sample_sync_batch", "sample_stages_batch")),
    "power_samples": (("power/rf_activity.py", "sample"),),
    "world_builds": (("api.py", "__init__"), ("api.py", "add_device")),
    "worlds": (("api.py", "__init__"),),
}


def repro_path(filename: str) -> str | None:
    """The part of ``filename`` below ``src/repro/`` (``"sim/soa.py"``), or
    None for code outside the program (builtins, stdlib, numpy, the
    benchmark itself)."""
    parts = PurePath(filename.replace("\\", "/")).parts
    for index in range(len(parts) - 2, 0, -1):
        if parts[index] == "repro" and parts[index - 1] == "src":
            return "/".join(parts[index + 1:])
    return None


def layer_of(filename: str) -> str | None:
    """The layer that owns code in ``filename``: the package directly under
    ``src/repro/``, ``api`` for ``api.py``, :data:`OTHER` for the other
    top-level modules, None outside the program."""
    path = repro_path(filename)
    if path is None:
        return None
    head = path.split("/", 1)[0]
    if head == "api.py":
        return "api"
    if "/" in path and head in LAYERS:
        return head
    return OTHER


def layer_self_times(table: Mapping) -> dict[str, float]:
    """Self time per layer, in the table's time unit.

    A function of the program counts for its own layer.  A function
    outside it (a C builtin such as ``heapq.heappush`` or ``dict.get``,
    or library Python code) is charged to the layers of its callers, in
    proportion to the self time each caller edge recorded, recursively
    through callers that are themselves outside the program.  What
    reaches no program frame is :data:`OTHER`.
    """
    memo: dict[tuple, dict[str, float]] = {}

    def shares(func, visiting: frozenset) -> dict[str, float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = table[func][4] if func in table else {}
        total = sum(edge[2] for edge in callers.values())
        if total <= 0 or func in visiting:
            return {OTHER: 1.0}
        result: dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[2] / total
            for owner, share in shares(caller, visiting | {func}).items():
                result[owner] = result.get(owner, 0.0) + weight * share
        memo[func] = result
        return result

    totals = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    for func, (_, _, tottime, _, _) in table.items():
        for owner, share in shares(func, frozenset()).items():
            totals[owner] += tottime * share
    return totals


def _matching(table: Mapping, targets: Iterable[tuple[str, str]]) -> set:
    wanted = set(targets)
    return {func for func in table
            if (repro_path(func[0]), func[2]) in wanted}


def entry_calls(table: Mapping, targets: Iterable[tuple[str, str]]) -> int:
    """Calls into the group of functions ``targets`` from outside the
    group, so a sampler that delegates to another sampler, or an override
    calling ``super()``, counts once."""
    group = _matching(table, targets)
    calls = 0
    for func in group:
        _, total_calls, _, _, callers = table[func]
        internal = sum(edge[1] for caller, edge in callers.items()
                       if caller in group)
        calls += total_calls - internal
    return calls


def cumulative_time(table: Mapping, targets: Iterable[tuple[str, str]]) -> float:
    """Summed cumulative time of ``targets`` (for groups that do not call
    each other)."""
    return sum(table[func][3] for func in _matching(table, targets))


def worker_utilization(worker_cpu_s: float, wall_s: float, jobs: int) -> float:
    """Share of the ``jobs`` workers' wall-clock capacity spent computing."""
    if wall_s <= 0 or jobs <= 0:
        raise ValueError("wall_s and jobs must be positive")
    return worker_cpu_s / (wall_s * jobs)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles`` exclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
