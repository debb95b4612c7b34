"""Unit tests of the benchmark's profile arithmetic and statistics."""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402

HEAP = ("~", 0, "<built-in method _heapq.heappush>")
GET = ("~", 0, "<method 'get' of 'dict' objects>")
PUSH = ("/x/src/repro/sim/scheduler.py", 32, "push")
TRANSMIT = ("/x/src/repro/phy/channel.py", 377, "transmit")
SCAN = ("/x/src/repro/phy/channel.py", 500, "_scan")
HOP = ("/x/src/repro/baseband/hop.py", 392, "connection")


def entry(calls, tottime, cumtime=0.0, callers=None):
    return (calls, calls, tottime, cumtime, callers or {})


def edge(calls, tottime):
    return (calls, calls, tottime, tottime)


@pytest.mark.parametrize("filename, layer", [
    ("/home/user/checkout/src/repro/sim/soa.py", "sim"),
    ("src/repro/phy/channel.py", "phy"),
    ("/a/src/repro/baseband/hop.py", "baseband"),
    ("/a/src/repro/api.py", "api"),
    ("/a/src/repro/config.py", layers.OTHER),
    ("/a/src/repro/__init__.py", layers.OTHER),
    ("/a/src/repro/experiments/registry.py", "experiments"),
    ("~", None),
    ("/usr/lib/python3.11/heapq.py", None),
    ("/a/site-packages/repro/sim/soa.py", None),
    ("/a/perfbench/measure.py", None),
])
def test_layer_of_maps_paths_under_src_repro(filename, layer):
    assert layers.layer_of(filename) == layer


def test_c_calls_are_charged_to_the_calling_layer():
    table = {
        PUSH: entry(10, 1.0),
        SCAN: entry(5, 2.0),
        HOP: entry(4, 0.5),
        # heappush: 3 s of self time, 2 s of it under push, 1 s under scan
        HEAP: entry(15, 3.0, callers={PUSH: edge(10, 2.0),
                                      SCAN: edge(5, 1.0)}),
        # dict.get called only from the hop selector
        GET: entry(8, 0.25, callers={HOP: edge(8, 0.25)}),
    }
    self_s = layers.layer_self_times(table)
    assert self_s["sim"] == pytest.approx(1.0 + 2.0)
    assert self_s["phy"] == pytest.approx(2.0 + 1.0)
    assert self_s["baseband"] == pytest.approx(0.5 + 0.25)
    assert sum(self_s.values()) == pytest.approx(6.75)


def test_external_chains_and_orphans_resolve():
    wrapper = ("/usr/lib/python3.11/functools.py", 1, "wrapper")
    table = {
        PUSH: entry(1, 1.0),
        wrapper: entry(2, 0.5, callers={PUSH: edge(2, 0.5)}),
        HEAP: entry(2, 1.0, callers={wrapper: edge(2, 1.0)}),
        GET: entry(1, 0.5),  # no caller recorded: nobody's layer
    }
    self_s = layers.layer_self_times(table)
    assert self_s["sim"] == pytest.approx(2.5)
    assert self_s[layers.OTHER] == pytest.approx(0.5)


def test_entry_calls_count_calls_from_outside_the_group():
    sample = ("/x/src/repro/baseband/errormodel.py", 135, "sample_sync")
    batch = ("/x/src/repro/baseband/errormodel.py", 178, "sample_sync_batch")
    table = {
        TRANSMIT: entry(7, 0.1),
        batch: entry(3, 0.1, callers={TRANSMIT: edge(3, 0.1)}),
        sample: entry(6, 0.1, callers={TRANSMIT: edge(4, 0.1),
                                       batch: edge(2, 0.0)}),
    }
    group = (("baseband/errormodel.py", "sample_sync"),
             ("baseband/errormodel.py", "sample_sync_batch"))
    assert layers.entry_calls(table, group) == 3 + 4
    assert layers.entry_calls(table, (("phy/channel.py", "transmit"),)) == 7
    assert layers.entry_calls(table, (("phy/channel.py", "absent"),)) == 0


def test_cumulative_time_sums_the_group():
    table = {TRANSMIT: entry(2, 0.1, cumtime=0.75),
             SCAN: entry(1, 0.1, cumtime=0.5)}
    assert layers.cumulative_time(
        table, (("phy/channel.py", "transmit"),)) == 0.75


def test_worker_utilization():
    assert layers.worker_utilization(14.8, 8.4, 2) == pytest.approx(
        14.8 / 16.8)
    assert layers.worker_utilization(5.0, 5.0, 1) == 1.0
    with pytest.raises(ValueError):
        layers.worker_utilization(1.0, 0.0, 2)


def test_ratio_guards_an_empty_denominator():
    assert layers.ratio(3, 4) == 0.75
    assert layers.ratio(3, 0) == 0.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 9.9]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert median == statistics.median(values)
    assert layers.quartile_spread(values) == pytest.approx((q3 - q1) / median)
    assert layers.quartile_spread([5.0] * 4) == 0.0
