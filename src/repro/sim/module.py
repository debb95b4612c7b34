"""Hierarchical simulation modules (SystemC ``sc_module`` analogue)."""

from __future__ import annotations

from typing import Optional, TypeVar

from repro.sim.signal import Signal
from repro.sim.simulator import Simulator

T = TypeVar("T")


class Module:
    """A named node in the design hierarchy.

    Creates child signals whose hierarchical names
    (``top.dev0.rf.enable_rx``) show up in traces.

    Attributes:
        path: full dotted hierarchical name of the module, fixed at
            construction (the timeline capture stamps it on every
            record).
    """

    def __init__(self, sim: Simulator, name: str, parent: Optional["Module"] = None):
        self.sim = sim
        self.basename = name
        self.parent = parent
        self.path = name if parent is None else f"{parent.path}.{name}"

    def signal(self, name: str, initial: T) -> Signal[T]:
        """Create a signal named under this module."""
        return Signal(self.sim, f"{self.path}.{name}", initial)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Module {self.path}>"
