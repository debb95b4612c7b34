"""Hierarchical simulation modules (SystemC ``sc_module`` analogue)."""

from __future__ import annotations

from typing import Generator, Optional, TypeVar

from repro.sim.process import Process
from repro.sim.signal import Signal
from repro.sim.simulator import Simulator

T = TypeVar("T")


class Module:
    """A named node in the design hierarchy.

    Provides helpers for creating child signals and processes whose
    hierarchical names (``top.dev0.rf.enable_rx``) show up in traces.

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
        self.children: list[Module] = []
        if parent is not None:
            parent.children.append(self)

    def signal(self, name: str, initial: T) -> Signal[T]:
        """Create a signal named under this module."""
        return Signal(self.sim, f"{self.path}.{name}", initial)

    def process(self, name: str, generator: Generator, start_ns: int = 0) -> Process:
        """Spawn a process named under this module."""
        return Process(self.sim, f"{self.path}.{name}", generator, start_ns)

    def iter_tree(self):
        """Yield this module and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Module {self.path}>"
