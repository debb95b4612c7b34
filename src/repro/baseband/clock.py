"""Bluetooth clocks.

Every device free-runs a 28-bit native clock CLKN ticking every 312.5 µs
(two ticks per slot). In our simulator CLKN is *derived* from simulation
time plus a per-device phase, so it never needs events of its own:

    CLKN(t) = ((t + phase_ns) // 312.5 µs) mod 2^28

* The master's piconet clock CLK is its own CLKN.
* A slave in a piconet keeps an integer tick offset so that
  CLK = CLKN + offset; the offset is learned from the FHS packet during
  page and refreshed on every reception (the paper's UPDATE_OFFSET /
  SYNCHRO_CLK processes).
* A pager's clock estimate CLKE of the target is modelled the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units

_TICK_NS = units.TICK_NS
_CLK_MASK = units.CLKN_WRAP - 1


@dataclass
class BtClock:
    """A derived (time-function) Bluetooth clock.

    Attributes:
        phase_ns: offset of the tick grid against simulation time; a device
            powered up at a random instant has a random phase in
            [0, 1250 µs).
        offset_ticks: ticks added to the native count to obtain this clock's
            value (0 for CLKN; the learned piconet offset for CLK).
    """

    phase_ns: int = 0
    offset_ticks: int = 0

    def ticks(self, now_ns: int) -> int:
        """Monotonic (unwrapped) tick count at ``now_ns``."""
        return (now_ns + self.phase_ns) // _TICK_NS + self.offset_ticks

    def clk(self, now_ns: int) -> int:
        """The 28-bit clock value at ``now_ns``."""
        return ((now_ns + self.phase_ns) // _TICK_NS
                + self.offset_ticks) & _CLK_MASK

    def time_at_tick(self, tick: int) -> int:
        """Simulation time at which (unwrapped) ``tick`` begins."""
        return (tick - self.offset_ticks) * units.TICK_NS - self.phase_ns

    def next_tick_time(self, now_ns: int, modulo: int = 1, residue: int = 0) -> int:
        """Earliest time strictly after ``now_ns`` where
        ``ticks % modulo == residue``.

        Used to schedule on the device's own slot grid, e.g.
        ``modulo=4, residue=0`` is the start of the device's even
        (master-to-slave) slots.
        """
        tick = self.ticks(now_ns) + 1
        remainder = (tick - residue) % modulo
        if remainder:
            tick += modulo - remainder
        return self.time_at_tick(tick)

    def synchronise_to(self, other: "BtClock", now_ns: int) -> None:
        """Adopt ``other``'s value *and grid* by adjusting our offset.

        After this call ``self.clk(t) == other.clk(t)`` whenever t lies on a
        common tick boundary; our phase also snaps to the other grid so that
        slot boundaries coincide (the paper's piconet synchronisation).
        """
        self.phase_ns = other.phase_ns
        self.offset_ticks = other.offset_ticks

    def with_offset(self, extra_ticks: int) -> "BtClock":
        """A copy shifted by ``extra_ticks`` (e.g. a CLKE estimate)."""
        return BtClock(phase_ns=self.phase_ns, offset_ticks=self.offset_ticks + extra_ticks)
