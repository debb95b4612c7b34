"""Running a world on the object kernel alone.

Every :class:`~repro.api.Session` attaches a slot engine to its
simulator, and every bounded ``Simulator.run`` offers it the window
first.  Suites that compare the slot engine with the object kernel, or
that spy on the object kernel's handlers (which an absorbed window never
calls), detach it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

from repro.api import Session


def detach(session: Session) -> Session:
    """Stop ``session``'s simulator offering windows to the slot engine."""
    session.sim._slot_engine = None
    return session


@contextmanager
def object_kernel():
    """Detach the slot engine of every Session built inside the block."""
    init = Session.__init__

    def detached(self, *args, **kwargs):
        init(self, *args, **kwargs)
        detach(self)

    Session.__init__ = detached
    try:
        yield
    finally:
        Session.__init__ = init


def kernel(engine: str):
    """The scope in which to build a world for one side of a comparison:
    ``"object"`` detaches the slot engine of every Session built in it,
    ``"soa"`` leaves it attached."""
    return object_kernel() if engine == "object" else nullcontext()
