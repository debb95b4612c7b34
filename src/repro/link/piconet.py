"""Piconet membership and addressing (the paper's PICONET module)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.baseband.address import BdAddr
from repro.baseband.hop import HopRegistry, HopSelector
from repro.errors import ProtocolError
from repro.link.states import ConnectionMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.link.device import BluetoothDevice


@dataclass
class SniffParams:
    """Negotiated sniff-mode parameters.

    Attributes:
        t_sniff_slots: anchor-point period in slots (even).
        n_attempt_slots: master slots the slave listens at each anchor.
        d_sniff_slots: offset of the first anchor within the period.
    """

    t_sniff_slots: int
    n_attempt_slots: int = 2
    d_sniff_slots: int = 0


@dataclass
class HoldParams:
    """Negotiated hold-mode parameters."""

    hold_slots: int
    start_slot: int = 0  # piconet slot index at which the hold begins


@dataclass
class ParkParams:
    """Negotiated park-mode parameters."""

    beacon_interval_slots: int
    pm_addr: int = 1


@dataclass
class SlaveLink:
    """The master's per-slave bookkeeping."""

    am_addr: int
    addr: BdAddr
    mode: ConnectionMode = ConnectionMode.ACTIVE
    sniff: Optional[SniffParams] = None
    hold: Optional[HoldParams] = None
    park: Optional[ParkParams] = None
    last_poll_slot: int = -(10 ** 9)
    connected_since_ns: int = 0


class Piconet:
    """Membership table kept by the master (AM_ADDR allocation, modes)."""

    MAX_ACTIVE_SLAVES = 7

    def __init__(self, master_addr: BdAddr,
                 registry: Optional[HopRegistry] = None):
        self.master_addr = master_addr
        self.hop_registry = registry
        self.slaves: dict[int, SlaveLink] = {}
        self._parked: dict[int, SlaveLink] = {}
        self._hop_selector: Optional[HopSelector] = None

    @property
    def cac_lap(self) -> int:
        """Channel access code LAP — the master's LAP."""
        return self.master_addr.lap

    @property
    def hop_selector(self) -> HopSelector:
        """The piconet's channel-hopping kernel (master's hop address);
        shares the per-address connection memo with every member device
        through the world's hop registry."""
        if self._hop_selector is None:
            self._hop_selector = HopSelector(self.master_addr.hop_address,
                                             self.hop_registry)
        return self._hop_selector

    def hop_sequence(self, clk_start: int, slots: int) -> np.ndarray:
        """The piconet's hop frequencies over a window of ``slots`` slots
        starting at clock ``clk_start`` (stride 2 CLK ticks per slot),
        computed in one vectorized pass — including the AFH remap whenever
        an adaptive hop set is installed (see :meth:`set_channel_map`).
        Dense-deployment diagnostics use this to predict co-channel
        overlap between piconets without stepping the scalar kernel slot
        by slot."""
        clks = clk_start + 2 * np.arange(slots, dtype=np.int64)
        return self.hop_selector.connection_many(clks)

    def set_channel_map(self, used_mask: Optional[np.ndarray]) -> None:
        """Install (or clear, with ``None``) the piconet's adaptive hop
        set.  Every member's selector is bound to the master's hop
        address, so the new map takes effect for master and slaves in
        lockstep (the model's stand-in for the LMP_set_AFH exchange)."""
        self.hop_selector.set_afh_map(used_mask)

    @property
    def channel_map(self) -> Optional[np.ndarray]:
        """The installed used-channel mask, or ``None`` when the piconet
        hops over all 79 channels."""
        afh = self.hop_selector.afh_map
        return None if afh is None else afh.used_mask

    def allocate_am_addr(self) -> int:
        """Lowest free AM_ADDR (1..7)."""
        for candidate in range(1, self.MAX_ACTIVE_SLAVES + 1):
            if candidate not in self.slaves:
                return candidate
        raise ProtocolError("piconet full: 7 active slaves")

    def add_slave(self, addr: BdAddr, am_addr: Optional[int] = None) -> SlaveLink:
        """Register a newly paged slave."""
        if am_addr is None:
            am_addr = self.allocate_am_addr()
        if am_addr in self.slaves:
            raise ProtocolError(f"AM_ADDR {am_addr} already in use")
        link = SlaveLink(am_addr=am_addr, addr=addr)
        self.slaves[am_addr] = link
        return link

    def remove_slave(self, am_addr: int) -> None:
        """Detach a slave."""
        if am_addr not in self.slaves:
            raise ProtocolError(f"no slave with AM_ADDR {am_addr}")
        del self.slaves[am_addr]

    def park_slave(self, am_addr: int, params: ParkParams) -> None:
        """Move a slave to the parked list, freeing its AM_ADDR."""
        link = self.slaves.pop(am_addr, None)
        if link is None:
            raise ProtocolError(f"no slave with AM_ADDR {am_addr}")
        link.mode = ConnectionMode.PARK
        link.park = params
        self._parked[params.pm_addr] = link

    def unpark_slave(self, pm_addr: int) -> SlaveLink:
        """Re-activate a parked slave under a fresh AM_ADDR."""
        link = self._parked.pop(pm_addr, None)
        if link is None:
            raise ProtocolError(f"no parked slave with PM_ADDR {pm_addr}")
        link.am_addr = self.allocate_am_addr()
        link.mode = ConnectionMode.ACTIVE
        link.park = None
        self.slaves[link.am_addr] = link
        return link

    @property
    def parked(self) -> dict[int, SlaveLink]:
        """Parked slaves by PM_ADDR."""
        return dict(self._parked)

    def find_by_addr(self, addr: BdAddr) -> Optional[SlaveLink]:
        """Active-slave lookup by BD_ADDR."""
        for link in self.slaves.values():
            if link.addr == addr:
                return link
        return None

    def place(self, topology, center, spread_m: float = 1.0) -> dict:
        """Place the whole piconet in ``topology``: master at ``center``,
        active slaves evenly spread on a ring of ``spread_m`` around it
        (the typical intra-piconet scale is a metre or two; neighbouring
        piconets are what the deployment-level layout helpers separate).
        Returns the ``addr → Position`` mapping."""
        from repro.phy.geometry import ring_layout

        placed = {self.master_addr: topology.place(self.master_addr, center)}
        links = sorted(self.slaves.values(), key=lambda link: link.am_addr)
        if links:
            ring = ring_layout(len(links), spread_m, center)
            for link, position in zip(links, ring):
                placed[link.addr] = topology.place(link.addr, position)
        return placed
