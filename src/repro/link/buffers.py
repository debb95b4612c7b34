"""TX/RX buffers between Link Manager and Baseband (paper's BUFFER_TX /
BUFFER_RX modules, with their LOAD/FLUSH/SWITCH operations)."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.baseband.packets import PacketType


@dataclass
class OutboundData:
    """One queued payload.

    Attributes:
        payload: user bytes.
        ptype: requested packet type.
        enqueued_ns: time the payload entered the buffer.
        is_lmp: True for link-manager PDUs (they jump the data queue).
    """

    payload: bytes
    ptype: PacketType
    enqueued_ns: int
    is_lmp: bool = False


class TxBuffer:
    """FIFO of outbound payloads with LMP priority and flush support."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._lmp: deque[OutboundData] = deque()
        self._data: deque[OutboundData] = deque()
        #: the next payload to transmit (LMP first), None when empty
        self.head: Optional[OutboundData] = None
        self.dropped = 0
        #: the source that tops the buffer up after an acknowledged pop
        #: (a :class:`~repro.link.traffic.SaturatedTraffic`), if any
        self.refill = None

    def __len__(self) -> int:
        return len(self._lmp) + len(self._data)

    @property
    def empty(self) -> bool:
        return not self._lmp and not self._data

    def load(self, item: OutboundData) -> bool:
        """Enqueue; returns False (and counts a drop) when full."""
        if item.is_lmp:
            self._lmp.append(item)
            self.head = self._lmp[0]
            return True
        if len(self._lmp) + len(self._data) >= self.capacity:
            self.dropped += 1
            return False
        self._data.append(item)
        if self.head is None:
            self.head = item
        return True

    def pop(self) -> Optional[OutboundData]:
        """Remove and return the next payload."""
        lmp, data = self._lmp, self._data
        if lmp:
            item = lmp.popleft()
        elif data:
            item = data.popleft()
        else:
            return None
        self.head = lmp[0] if lmp else data[0] if data else None
        return item

    def flush(self) -> int:
        """Drop all queued *data* (keeps LMP); returns the number dropped."""
        count = len(self._data)
        self._data.clear()
        self.head = self._lmp[0] if self._lmp else None
        return count


@dataclass
class InboundData:
    """One received payload handed up to L2CAP/host."""

    src_am_addr: int
    payload: bytes
    received_ns: int
    is_lmp: bool = False


class RxBuffer:
    """FIFO of received payloads (the paper's RECEPTION_DATA path)."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._items: deque[InboundData] = deque()
        self.dropped = 0
        self.total_received = 0
        self.total_bytes = 0

    def __len__(self) -> int:
        return len(self._items)

    def load(self, item: InboundData) -> bool:
        """Store a reception; returns False (drop) when full."""
        self.total_received += 1
        self.total_bytes += len(item.payload)
        if len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(item)
        return True

    def drain(self) -> list[InboundData]:
        """Remove and return everything."""
        items = list(self._items)
        self._items.clear()
        return items
