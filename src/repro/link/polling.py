"""Master-side slot scheduling policies.

At every even (master TX) slot it serves, the master picks at most one
action: serve a parked-slave beacon, eagerly poll a slave returning from
hold, serve a sniffing slave at its anchor, send queued data, or
keep-alive poll the active slave whose T_poll deadline is closest. The
policy object makes the choice, and it also tells the master the next
pair at which a choice can be made (:meth:`PollingPolicy.next_due`), so
an idle master sleeps through the pairs in between. The round-robin
policy reproduces the paper's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.link.piconet import SlaveLink
from repro.link.sniff import in_attempt_window, next_attempt_slot
from repro.link.states import ConnectionMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.link.connection import ConnectionMaster


@dataclass(frozen=True)
class SlotAction:
    """What the master does in one TX slot.

    Attributes:
        kind: 'beacon' | 'data' | 'poll'.
        am_addr: target slave (0 for broadcast beacon).
    """

    kind: str
    am_addr: int


# The one SlotAction of each kind toward each AM_ADDR: the policy picks
# one per served pair, and they are immutable, so shared.
_BEACON = SlotAction("beacon", 0)
_DATA = tuple(SlotAction("data", am_addr) for am_addr in range(8))
_POLL = tuple(SlotAction("poll", am_addr) for am_addr in range(8))

# an Enum class attribute lookup is not cached by the interpreter, and the
# policy tests the mode of every slave at every pair
_SNIFF = ConnectionMode.SNIFF


class PollingPolicy:
    """Interface for master slot scheduling."""

    def choose(self, master: "ConnectionMaster", slot_index: int) -> Optional[SlotAction]:
        raise NotImplementedError

    def next_due(self, master: "ConnectionMaster", slot_index: int) -> Optional[int]:
        """The earliest pair >= ``slot_index`` at which :meth:`choose` can
        return an action (or the master's hold bookkeeping can change),
        given the current state; None when no pair can.  The master
        sleeps until then and is woken earlier by any change of that
        state.  The default wakes it at every pair."""
        return slot_index


class RoundRobinPolicy(PollingPolicy):
    """Default: beacons first, hold-returners, sniff anchors, data, T_poll."""

    def choose(self, master: "ConnectionMaster", slot_index: int) -> Optional[SlotAction]:
        # 1. beacon for parked slaves
        if master._beacon_interval_pairs is not None \
                and master.next_beacon(slot_index) == slot_index:
            return _BEACON

        holds = master.hold_schedules
        resyncing = master._resync_needed
        device = master.device
        buffers = device.tx_buffers
        now = device.sim.now
        reachable: list[SlaveLink] = []
        # 2. (in the same pass) queued data, oldest-first across reachable
        # slaves
        best: Optional[SlaveLink] = None
        best_age = -1
        for link in master.piconet.slaves.values():
            # hold bookkeeping is keyed on the schedule + resync set, not on
            # link.mode: a reply in flight when the next hold is scheduled
            # must not make the slave look reachable during that hold
            schedule = holds.get(link.am_addr) if holds else None
            if schedule is not None and schedule.active(slot_index):
                continue  # unreachable during hold
            if resyncing and link.am_addr in resyncing:
                # returned from hold: poll on the resync schedule until heard
                if master.next_resync_poll(slot_index) == slot_index:
                    return _POLL[link.am_addr]
                continue
            if link.mode is _SNIFF and link.sniff is not None:
                if not in_attempt_window(slot_index, link.sniff):
                    continue
            reachable.append(link)
            item = buffers[link.am_addr].head
            if item is not None:
                age = now - item.enqueued_ns
                if age > best_age:
                    best, best_age = link, age
        if best is not None:
            return _DATA[best.am_addr]

        # 3. keep-alive polling by most-overdue T_poll deadline
        # (T_poll is configured in slots; pair indices advance one per 2 slots)
        t_poll = max(1, master.device.cfg.link.t_poll_slots // 2)
        most_overdue: Optional[SlaveLink] = None
        overdue_by = 0
        for link in reachable:
            due_in = link.last_poll_slot + t_poll - slot_index
            if due_in <= 0 and -due_in >= overdue_by:
                most_overdue, overdue_by = link, -due_in
        if most_overdue is not None:
            return _POLL[most_overdue.am_addr]
        return None

    def next_due(self, master: "ConnectionMaster", slot_index: int) -> Optional[int]:
        """The next beacon, or the first pair at which some slave becomes
        due: the end of its hold (where the master expires it), the next
        resync poll, or its data / T_poll deadline moved into the next
        sniff attempt window.  A deadline that falls in a hold which has
        not begun yet waits for the hold's end."""
        due = master.next_beacon(slot_index)
        t_poll = max(1, master.device.cfg.link.t_poll_slots // 2)
        for link in master.piconet.slaves.values():
            schedule = master.hold_schedules.get(link.am_addr)
            if schedule is not None and schedule.start_slot <= slot_index:
                at = max(slot_index, schedule.end_slot)
            else:
                if master.needs_resync(link.am_addr):
                    at = master.next_resync_poll(slot_index)
                else:
                    if master.device.tx_buffers[link.am_addr].empty:
                        at = max(slot_index, link.last_poll_slot + t_poll)
                    else:
                        at = slot_index
                    if link.mode is _SNIFF and link.sniff is not None:
                        at = next_attempt_slot(at, link.sniff)
                if schedule is not None and at >= schedule.start_slot:
                    at = schedule.end_slot
            if due is None or at < due:
                due = at
        return due

