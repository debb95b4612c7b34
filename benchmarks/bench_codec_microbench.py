"""Bench: baseband codec microbenchmarks (encode/decode/whitening/FEC)
and the connection hop kernel.

Measures single-thread throughput of the table-driven fast paths and
archives the numbers in ``BENCH_codec.json`` at the repo root, so future
PRs have a perf trajectory to compare against.  The ``baseline_pre_refactor``
section of that file is pinned (measured on the bit-serial codebase,
commit b683d58) and is preserved across runs; only ``current`` is rewritten.

The hop cases time one connection-memo miss (every call asks for a clock
no earlier call has covered), :meth:`HopSelector.connection_many` over 64
slots, and the slot engine's whole-world prefill
(:func:`connection_windows_many`, 20 piconets x 504 slots).
"""

from __future__ import annotations

import itertools
import json
import pathlib
import time

import numpy as np

from repro.baseband.access_code import sync_word, _sync_word_cached
from repro.baseband.codec import decode_packet, encode_packet
from repro.baseband.crc import crc16_compute
from repro.baseband.fec import fec13_decode, fec13_encode, fec23_decode, fec23_encode
from repro.baseband.hec import hec_compute
from repro.baseband.hop import HopRegistry, HopSelector, connection_windows_many
from repro.baseband.packets import Packet, PacketType, packet_air_bits
from repro.baseband.whitening import whitening_sequence

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_codec.json"

#: A max-payload DM5/DH5 body is ~2745 bits — the paper's worst-case frame.
STREAM_BITS = 2744

#: The slot engine's prefill shape on ext_interference's densest point: 20
#: piconets, a 512-slot fill less its 8-slot margin.
PREFILL_PICONETS = 20
PREFILL_SLOTS = 504


def _per_op_us(fn, reps: int) -> float:
    fn()  # warm caches/tables outside the timed region
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps * 1e6


def _run_microbench() -> dict:
    rng = np.random.default_rng(0)
    stream = rng.integers(0, 2, STREAM_BITS, dtype=np.uint8)
    fec23_coded = fec23_encode(stream)
    fec13_coded = fec13_encode(stream)
    dm5 = Packet(ptype=PacketType.DM5, lap=0x123456,
                 payload=bytes(rng.integers(0, 256, 224, dtype=np.uint8)))
    dh5 = Packet(ptype=PacketType.DH5, lap=0x123456,
                 payload=bytes(rng.integers(0, 256, 339, dtype=np.uint8)))
    id_packet = Packet(ptype=PacketType.ID, lap=0x9E8B33)
    null_packet = Packet(ptype=PacketType.NULL, lap=0x123456, am_addr=3)
    bits_dm5 = encode_packet(dm5, 0x47, 0x155)
    bits_dh5 = encode_packet(dh5, 0x47, 0x155)

    cases = {
        "whitening_sequence": (
            lambda: whitening_sequence(0x2A, STREAM_BITS), 200, STREAM_BITS),
        "fec13_encode": (lambda: fec13_encode(stream), 200, STREAM_BITS),
        "fec13_decode": (lambda: fec13_decode(fec13_coded), 200, STREAM_BITS),
        "fec23_encode": (lambda: fec23_encode(stream), 200, STREAM_BITS),
        "fec23_decode": (lambda: fec23_decode(fec23_coded), 100, STREAM_BITS),
        "crc16_compute": (lambda: crc16_compute(stream, 0x47), 100, STREAM_BITS),
        "hec_compute": (lambda: hec_compute(stream[:10], 0x47), 500, 10),
        "sync_word_cold": (
            lambda: (_sync_word_cached.cache_clear(), sync_word(0x123456)),
            100, 64),
        "sync_word_cached": (lambda: sync_word(0x123456), 500, 64),
        "encode_id": (
            lambda: encode_packet(id_packet, 0x47, 0x155), 500,
            packet_air_bits(PacketType.ID)),
        "encode_null": (
            lambda: encode_packet(null_packet, 0x47, 0x155), 500,
            packet_air_bits(PacketType.NULL)),
        "encode_dm5": (
            lambda: encode_packet(dm5, 0x47, 0x155), 100, len(bits_dm5)),
        "encode_dh5": (
            lambda: encode_packet(dh5, 0x47, 0x155), 100, len(bits_dh5)),
        "decode_dm5": (
            lambda: decode_packet(bits_dm5, 0x123456, 0x47, 0x155), 100,
            len(bits_dm5)),
        "decode_dh5": (
            lambda: decode_packet(bits_dh5, 0x123456, 0x47, 0x155), 100,
            len(bits_dh5)),
    }
    results = {}
    for name, (fn, reps, bits) in cases.items():
        us = _per_op_us(fn, reps)
        results[name] = {
            "us_per_op": round(us, 3),
            "bits_per_s": round(bits / (us * 1e-6)),
        }
    for name, (fn, reps, slots) in _hop_cases(rng).items():
        us = _per_op_us(fn, reps)
        results[name] = {
            "us_per_op": round(us, 3),
            "slots_per_s": round(slots / (us * 1e-6)),
        }
    return results


def _hop_cases(rng: np.random.Generator) -> dict:
    """``name -> (fn, reps, slots per call)`` of the hop kernel cases."""
    selector = HopSelector(0x2A96EF25, HopRegistry())
    # 4,096 CLK ticks apart: no call's clock is in a slot an earlier one
    # could have memoized, so each is a miss
    fresh_clocks = itertools.count(0, 4096)
    clks = 4096 + 2 * np.arange(64, dtype=np.int64)
    world = HopRegistry()
    selectors = [HopSelector(int(address), world) for address in
                 rng.integers(0, 1 << 28, size=PREFILL_PICONETS)]
    starts = [int(clk) & ~1 for clk in
              rng.integers(0, 1 << 27, size=PREFILL_PICONETS)]
    return {
        "hop_connection_miss": (
            lambda: selector.connection(next(fresh_clocks)), 2000, 1),
        "hop_connection_many_64": (
            lambda: selector.connection_many(clks), 500, 64),
        "hop_connection_windows_many_20x504": (
            lambda: connection_windows_many(selectors, starts, PREFILL_SLOTS),
            50, PREFILL_PICONETS * PREFILL_SLOTS),
    }


def _archive(results: dict) -> None:
    payload = {}
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
    payload.setdefault("schema", 1)
    payload["current"] = {
        "generated_by": "benchmarks/bench_codec_microbench.py",
        "micro": results,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def bench_codec_microbench(benchmark, capsys):
    results = benchmark.pedantic(_run_microbench, rounds=1, iterations=1,
                                 warmup_rounds=0)
    with capsys.disabled():
        print()
        print(f"{'kernel':<36}{'us/op':>12}{'M/s':>12}")
        for name, row in results.items():
            rate = row.get("bits_per_s", row.get("slots_per_s"))
            print(f"{name:<36}{row['us_per_op']:>12.2f}{rate / 1e6:>12.1f}")
    _archive(results)
    # fast-path floor: the bit-serial whitening generator ran at ~5 Mbit/s;
    # the table path must clear it by an order of magnitude even on slow CI
    assert results["whitening_sequence"]["bits_per_s"] > 50e6
    assert results["fec23_encode"]["bits_per_s"] > 20e6
    assert results["encode_id"]["us_per_op"] < 100
    # a connection-memo miss computes its one slot: the 64-slot numpy
    # window it replaced cost ~220 us
    assert results["hop_connection_miss"]["us_per_op"] < 50
