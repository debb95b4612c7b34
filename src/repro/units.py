"""Time units and Bluetooth timing constants.

All simulation time is kept in **integer nanoseconds** so that the Bluetooth
half-slot of 312.5 microseconds is exactly representable and no floating point
drift can accumulate over long simulations.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Generic unit multipliers (to nanoseconds)
# ---------------------------------------------------------------------------

NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# ---------------------------------------------------------------------------
# Bluetooth timing (spec v1.2, Baseband)
# ---------------------------------------------------------------------------

#: One TDD time slot: 625 microseconds.
SLOT_NS = 625 * US

#: Half a slot; the native clock CLKN ticks once per half slot (3.2 kHz).
HALF_SLOT_NS = SLOT_NS // 2

#: Period of one CLKN tick (== half slot).
TICK_NS = HALF_SLOT_NS

#: A master/slave slot pair (master TX slot + slave TX slot).
SLOT_PAIR_NS = 2 * SLOT_NS

#: Symbol (bit) duration at the 1 Mbit/s raw rate.
BIT_NS = 1 * US

#: Number of RF channels in the 79-hop system.
NUM_CHANNELS = 79

#: Nominal hop rate (hops per second) in connection state.
HOP_RATE_HZ = 1600

#: CLKN is a 28-bit counter; wraps roughly once a day.
CLKN_BITS = 28
CLKN_WRAP = 1 << CLKN_BITS

#: The inquiry-scan / page-scan frequency is derived from CLKN bits 16..12,
#: so it changes every 2**12 ticks = 1.28 s.
SCAN_FREQ_PERIOD_TICKS = 1 << 12
SCAN_FREQ_PERIOD_NS = SCAN_FREQ_PERIOD_TICKS * TICK_NS


def ns_to_slots(duration_ns: int) -> float:
    """Convert a duration in nanoseconds to (possibly fractional) time slots."""
    return duration_ns / SLOT_NS


def slots_to_ns(slots: float) -> int:
    """Convert a duration in time slots to integer nanoseconds."""
    return round(slots * SLOT_NS)


def format_time(time_ns: int) -> str:
    """Render a simulation time compactly for logs and waveforms.

    >>> format_time(312_500)
    '312.5us'
    >>> format_time(2_000_000_000)
    '2.000s'
    """
    if time_ns >= SEC:
        return f"{time_ns / SEC:.3f}s"
    if time_ns >= MS:
        return f"{time_ns / MS:.3f}ms"
    if time_ns >= US:
        value = time_ns / US
        text = f"{value:.1f}".rstrip("0").rstrip(".")
        return f"{text}us"
    return f"{time_ns}ns"
