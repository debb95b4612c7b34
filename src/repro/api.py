"""High-level session API — the front door of the library.

A :class:`Session` owns one simulator, one channel and any number of
devices, and exposes the handful of moves every experiment and example
needs: create devices, run the clock, perform inquiry/page synchronously
(from the caller's point of view), build whole piconets, and attach
activity probes / waveform tracers.

Example::

    from repro import Session

    sess = Session(seed=7, ber=0.001)
    master = sess.add_device("master")
    slave = sess.add_device("slave")
    result = sess.run_inquiry(master, slave)
    page = sess.run_page(master, slave, result.discovered[0])
    assert page.success
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import units
from repro.baseband.address import BdAddr
from repro.config import SimulationConfig
from repro.errors import ProtocolError
from repro.link.device import BluetoothDevice
from repro.link.inquiry import InquiryResult
from repro.link.page import PageResult, PageTarget
from repro.lm.hci import HostController
from repro.phy.channel import Channel
from repro.phy.geometry import Position, Topology
from repro.power.rf_activity import RfActivityProbe
from repro.sim.capture import TimelineCapture
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.soa import SlotEngine
from repro.sim.trace import TraceRecorder


@dataclass
class PiconetHandle:
    """A fully formed piconet, as returned by :meth:`Session.build_piconet`.

    Attributes:
        master: the master device.
        slaves: connected slaves in AM_ADDR order (am_addr = index + 1).
    """

    master: BluetoothDevice
    slaves: list[BluetoothDevice]

    def am_addr_of(self, slave: BluetoothDevice) -> int:
        """AM_ADDR assigned to ``slave``."""
        assert slave.connection_slave is not None
        return slave.connection_slave.am_addr


class Session:
    """One simulation world: simulator + channel + devices."""

    def __init__(self, seed: int = 0, ber: float = 0.0,
                 config: Optional[SimulationConfig] = None,
                 trace: bool = False, capture: bool = False):
        if config is None:
            config = SimulationConfig(seed=seed).with_ber(ber)
        self.config = config
        self.sim = Simulator()
        self.rngs = RandomStreams(config.seed)
        self.channel = Channel(self.sim, "channel", config, self.rngs)
        # Shared hop state (per-address connection memos, adaptive hop
        # sets) is world-scoped: the channel owns a HopRegistry, so any
        # number of Sessions may be live in one process without stepping
        # on each other's maps.
        self.hop_registry = self.channel.hop_registry
        #: Unified timeline event sink (``capture=True``); ``None`` keeps
        #: every hook site on its single-attribute-test fast path and the
        #: simulation byte-identical to a capture-less build.
        self.capture: Optional[TimelineCapture] = None
        if capture:
            self.capture = TimelineCapture()
            self.channel.capture = self.capture
        self.devices: list[BluetoothDevice] = []
        self.trace: Optional[TraceRecorder] = TraceRecorder(self.sim) \
            if (trace or config.trace) else None
        #: The SoA slot engine: the simulator offers it every bounded run
        #: and steps the window itself when the engine declines it.
        self.slot_engine = self.sim._slot_engine = SlotEngine(self)

    # ------------------------------------------------------------------
    # World building
    # ------------------------------------------------------------------

    def add_device(self, name: str, addr: Optional[BdAddr] = None,
                   clock_phase_ns: Optional[int] = None) -> BluetoothDevice:
        """Create a device attached to this session's channel."""
        device = BluetoothDevice(self.sim, name, self.channel, self.config,
                                 self.rngs, addr=addr,
                                 clock_phase_ns=clock_phase_ns)
        self.devices.append(device)
        if self.trace is not None:
            self.trace.watch(device.rf.enable_tx)
            self.trace.watch(device.rf.enable_rx)
            self.trace.watch(device.sig_state)
        return device

    def install_topology(self, model=None, mobility=None,
                         cadence_slots: int = 64) -> Topology:
        """Install the world's spatial topology and return it.

        ``model`` is a :class:`~repro.phy.geometry.PathLossModel`
        (default: log-distance); ``mobility`` an optional
        :class:`~repro.phy.geometry.WaypointMobility` whose routes are
        re-resolved every ``cadence_slots`` slots.  With a topology in
        place the channel resolves rx power per (transmitter, listener)
        pair; a :class:`~repro.phy.geometry.FlatLoss` model keeps the
        world byte-identical to an un-placed one (the contract the
        geometry equivalence suite pins)."""
        topology = Topology(model=model, mobility=mobility,
                            cadence_slots=cadence_slots)
        self.channel.set_topology(topology)
        return topology

    @property
    def topology(self) -> Optional[Topology]:
        """The installed topology, or None (flat world)."""
        return self.channel.topology

    def place(self, device, xy) -> Position:
        """Place a device (or a raw topology key) at ``xy`` metres,
        installing a default log-distance topology on first use."""
        key = device.addr if isinstance(device, BluetoothDevice) else device
        return self.channel.ensure_topology().place(key, xy)

    def host(self, device: BluetoothDevice) -> HostController:
        """An HCI-style facade for a device."""
        return HostController(device)

    def probe(self, device: BluetoothDevice) -> RfActivityProbe:
        """Attach an RF-activity probe to a device."""
        return RfActivityProbe(device)

    # ------------------------------------------------------------------
    # Time control
    # ------------------------------------------------------------------

    def run_slots(self, slots: float) -> None:
        """Advance the simulation by a number of 625 µs slots."""
        self.sim.run(until_ns=self.sim.now + round(slots * units.SLOT_NS))

    def run_until(self, time_ns: int) -> None:
        """Advance to an absolute time."""
        self.sim.run(until_ns=time_ns)

    @property
    def now_slots(self) -> float:
        """Current time in slots."""
        return self.sim.now / units.SLOT_NS

    # ------------------------------------------------------------------
    # Synchronous procedure wrappers
    # ------------------------------------------------------------------

    def _run_to_completion(self, box: list, deadline_ns: int) -> None:
        """Advance the simulation until ``box`` is filled or the deadline.

        The completion callback stops the simulator, so time halts at the
        callback's actual event rather than on a polling grid (an earlier
        implementation polled every 64 slots and overshot completion by up
        to 64 slots).  One ``run`` suffices: it returns either stopped by
        the callback or with time at the deadline.
        """
        if not box:
            self.sim.run(until_ns=deadline_ns)

    def _completion(self, box: list):
        """A completion callback that records the result and halts time."""

        def on_complete(result) -> None:
            box.append(result)
            self.sim.stop()

        return on_complete

    def run_inquiry(self, inquirer: BluetoothDevice,
                    scanner: Optional[BluetoothDevice] = None,
                    timeout_slots: Optional[int] = None,
                    num_responses: int = 1) -> InquiryResult:
        """Run an inquiry to completion; optionally put ``scanner`` into
        inquiry scan first. Returns the inquirer's result."""
        box: list[InquiryResult] = []
        scan_proc = None
        if scanner is not None:
            scan_proc = scanner.start_inquiry_scan()
        inquirer.start_inquiry(timeout_slots=timeout_slots,
                               num_responses=num_responses,
                               on_complete=self._completion(box))
        guard_slots = (timeout_slots or self.config.link.inquiry_timeout_slots) + 64
        deadline = self.sim.now + guard_slots * units.SLOT_NS
        self._run_to_completion(box, deadline)
        if scan_proc is not None and scanner is not None:
            scanner.stop_procedure()
        if not box:
            raise ProtocolError("inquiry did not complete within its timeout guard")
        return box[0]

    def run_page(self, master: BluetoothDevice, slave: BluetoothDevice,
                 discovered=None, timeout_slots: Optional[int] = None) -> PageResult:
        """Run a page to completion; puts ``slave`` into page scan. If
        ``discovered`` (a DiscoveredDevice) is omitted, the master is given
        a perfect clock estimate — the 'devices already know each other'
        setup the paper uses for its page-phase statistics."""
        if discovered is not None:
            target = PageTarget(addr=discovered.addr,
                                clock_estimate=discovered.clock_estimate)
        else:
            target = PageTarget(addr=slave.addr, clock_estimate=slave.clock)
        box: list[PageResult] = []
        slave.start_page_scan()
        master.start_page(target, timeout_slots=timeout_slots,
                          on_complete=self._completion(box))
        guard_slots = (timeout_slots or self.config.link.page_timeout_slots) + 64
        deadline = self.sim.now + guard_slots * units.SLOT_NS
        self._run_to_completion(box, deadline)
        if not box:
            raise ProtocolError("page did not complete within its timeout guard")
        result = box[0]
        if not result.success and slave.connection_slave is None:
            slave.stop_procedure()
        return result

    def build_piconet(self, master: BluetoothDevice,
                      slaves: list[BluetoothDevice],
                      timeout_slots: Optional[int] = None) -> PiconetHandle:
        """Page every slave into the master's piconet (sequentially, as the
        paper's Fig. 5 scenario does). Raises if any page fails."""
        for slave in slaves:
            result = self.run_page(master, slave, timeout_slots=timeout_slots)
            if not result.success:
                raise ProtocolError(
                    f"page of {slave.basename} failed; piconet incomplete")
        return PiconetHandle(master=master, slaves=list(slaves))
