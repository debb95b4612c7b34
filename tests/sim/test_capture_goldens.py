"""Timeline capture streams pinned against recorded digests.

``test_soa_equivalence.py`` compares the two kernels' capture streams
with each other; these tests pin both — the default path, where the slot
engine absorbs what it can, and the object kernel with the slot engine
detached — against sha256 digests of ``TimelineCapture.to_jsonl``
recorded before the kernel stopped dispatching unobserved events, so a
change that moves a record — its time, its order or its fields — fails
here even when both kernels move together.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro import PacketType, Session
from repro.experiments.ext_interference import build_campaign_session

from tests.kernels import kernel

#: (records, sha256 prefix of the JSONL stream) per world
GOLDEN_STREAMS = {
    "campaign_3x97": (4733, "d2a6dbc465848018"),
    "campaign_8x606": (13481, "680dc27eaf62f49e"),
    "inquiry_page": (1536, "8dfce0150e532048"),
}


def _campaign(n_piconets: int, seed: int):
    session, _ = build_campaign_session(n_piconets, seed, capture=True)
    session.run_slots(800)
    return session


def _inquiry_page():
    """Inquiry, page and a short data exchange under a noisy channel."""
    session = Session(seed=7, ber=0.0005, capture=True)
    master = session.add_device("master")
    slave = session.add_device("slave")
    found = session.run_inquiry(master, slave, timeout_slots=8192)
    page = session.run_page(master, slave, found.discovered[0])
    assert page.success
    master.enqueue_data(1, b"hello from the master", PacketType.DM3)
    slave.enqueue_data(0, b"hello back", PacketType.DM1)
    session.run_slots(100)
    return session


WORLDS = {
    "campaign_3x97": lambda: _campaign(3, 97),
    "campaign_8x606": lambda: _campaign(8, 606),
    "inquiry_page": _inquiry_page,
}


@pytest.mark.parametrize("world", sorted(WORLDS))
@pytest.mark.parametrize("engine", ["object", "soa"])
def test_capture_stream_matches_golden(world, engine):
    with kernel(engine):
        session = WORLDS[world]()
    buffer = io.StringIO()
    records = session.capture.to_jsonl(buffer)
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()[:16]
    assert (records, digest) == GOLDEN_STREAMS[world], \
        f"{world} on the {engine} engine: capture stream moved"
