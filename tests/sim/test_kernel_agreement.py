"""Both kernels dispatch the same events.

The slot engine and the object kernel run one copy of each connection
and channel handler, so a world stepped with the engine attached and the
same world with it detached dispatch the same number of events, not just
the same outcomes.  A handler whose two copies drift apart (say, a slot
loop that sleeps on one kernel and polls on the other) shows up here as a
count that differs, even when no outcome moves.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.experiments.common import page_up_pair, paper_config
from repro.experiments.ext_interference import build_campaign_session
from repro.link.connection import ConnectionSlave

from tests.kernels import kernel


def _idle_pair():
    """A paged-up pair with no traffic: the master keep-alive polls every
    T_poll and sleeps in between."""
    session = Session(config=paper_config(seed=9, t_poll_slots=40))
    page_up_pair(session, label="agreement")
    session.run_slots(64)
    return session, 2_000


def _campaign():
    """Three saturated piconets: every buffer refills after each ack."""
    session, _ = build_campaign_session(3, 97)
    return session, 800


@pytest.mark.parametrize("world", [_idle_pair, _campaign],
                         ids=["idle_pair", "campaign_3x97"])
def test_both_kernels_dispatch_the_same_events(world, monkeypatch):
    counts = {}
    listens = {}
    listen = ConnectionSlave.listen
    for engine in ("object", "soa"):
        with kernel(engine):
            session, slots = world()
        events = session.sim.events_dispatched
        transmissions = session.channel.transmissions
        calls = []

        def counted(self, calls=calls):
            calls.append(self)
            return listen(self)

        monkeypatch.setattr(ConnectionSlave, "listen", counted)
        session.run_slots(slots)
        monkeypatch.setattr(ConnectionSlave, "listen", listen)
        counts[engine] = (session.sim.events_dispatched - events,
                          session.channel.transmissions - transmissions)
        listens[engine] = len(calls)
    assert session.slot_engine.windows_absorbed > 0
    assert counts["soa"] == counts["object"]
    if world is _idle_pair:
        # nothing observes the slave, and its master sleeps between polls:
        # the slave dozes through most of the run's pairs on both kernels
        assert all(opened < slots // 2 for opened in listens.values())
