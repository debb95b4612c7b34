"""Application-layer traffic generators.

These model the paper's "different algorithms at application layer": a
periodic source (Fig. 11's master sending data to the slave every 100
slots), a duty-cycle source (Fig. 10's x-axis) and a saturated source
(the throughput and interference extensions), all feeding a device's TX
buffer toward a destination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import units
from repro.baseband.packets import PacketType
from repro.errors import ConfigError
from repro.link.buffers import OutboundData

if TYPE_CHECKING:  # pragma: no cover
    from repro.link.device import BluetoothDevice


class TrafficSource:
    """Base class: pushes payloads into ``device``'s buffer for ``am_addr``."""

    def __init__(self, device: "BluetoothDevice", am_addr: int,
                 ptype: PacketType = PacketType.DM1,
                 payload_len: Optional[int] = None):
        self.device = device
        self.am_addr = am_addr
        self.ptype = ptype
        if not ptype.is_data:
            raise ConfigError(f"{ptype.value} cannot carry user data")
        if payload_len is None:
            payload_len = ptype.info.max_payload
        if payload_len > ptype.info.max_payload:
            raise ConfigError(
                f"payload {payload_len}B exceeds {ptype.value} maximum"
            )
        self.payload_len = payload_len
        self._payload = bytes(payload_len)
        self.generated = 0

    def _emit(self) -> None:
        self.device.enqueue_data(self.am_addr, self._payload, self.ptype)
        self.generated += 1

    def start(self) -> None:
        raise NotImplementedError


class PeriodicTraffic(TrafficSource):
    """One payload every ``period_slots`` slots (paper Fig. 11: 100 TS)."""

    def __init__(self, device: "BluetoothDevice", am_addr: int,
                 period_slots: int, **kwargs):
        super().__init__(device, am_addr, **kwargs)
        if period_slots <= 0:
            raise ConfigError("period_slots must be positive")
        self.period_slots = period_slots

    def start(self) -> None:
        self._tick()

    def _tick(self) -> None:
        self._emit()
        self.device.sim.schedule(self.period_slots * units.SLOT_NS, self._tick)


class DutyCycleTraffic(TrafficSource):
    """Uses a fraction ``duty`` of the master's TX slots for data.

    The paper's Fig. 10 x-axis is "the number of time slots used for
    transmission with respect to the maximum time slots available [for
    transmission]" — for a master, one slot per pair. With one single-slot
    packet per payload, emitting a payload every ``1/duty`` slot pairs
    realises that definition.
    """

    def __init__(self, device: "BluetoothDevice", am_addr: int,
                 duty: float, **kwargs):
        super().__init__(device, am_addr, **kwargs)
        if not 0.0 < duty <= 1.0:
            raise ConfigError("duty must lie in (0, 1]")
        self.duty = duty
        self._period_ns = round(units.SLOT_PAIR_NS / duty)

    def start(self) -> None:
        self._tick()

    def _tick(self) -> None:
        self._emit()
        self.device.sim.schedule(self._period_ns, self._tick)


class SaturatedTraffic(TrafficSource):
    """Always keeps the TX buffer non-empty (throughput experiments).

    The buffer is topped up to four payloads on a slot grid anchored at
    :meth:`start`.  It drains only when the receiver acknowledges its
    head, so the refill runs at the first grid slot after each such
    acknowledgement rather than at every slot: the ARQ code arms it
    through :meth:`arm` (the buffer names its source in ``refill``).
    Payloads are stamped with the same ``enqueued_ns`` either way.  The
    source checks its payload once, at construction, and loads the
    buffer directly.
    """

    def start(self) -> None:
        self._anchor = self.device.sim.now
        self._armed = False
        self._buffer = self.device.tx_buffer_for(self.am_addr)
        self._buffer.refill = self
        self._refill()

    def arm(self, now_ns: int) -> Optional[int]:
        """The time of the refill an acknowledgement at ``now_ns`` calls
        for: the next grid slot, or None when one is already armed."""
        if self._armed:
            return None
        self._armed = True
        return now_ns + units.SLOT_NS - (now_ns - self._anchor) % units.SLOT_NS

    def _refill(self) -> None:
        self._armed = False
        buffer = self._buffer
        missing = 4 - len(buffer)
        if missing <= 0:
            return
        device = self.device
        # queued payloads are never mutated: one item fills every gap
        item = OutboundData(self._payload, self.ptype, device.sim.now)
        for _ in range(missing):
            buffer.load(item)
        self.generated += missing
        if device.connection_master is not None:
            device.connection_master.wake()
