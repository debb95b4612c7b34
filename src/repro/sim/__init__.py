"""SystemC-like discrete-event simulation kernel.

This subpackage is the substrate the paper's SystemC platform provides:
an event scheduler with delta cycles, signals with deferred
(delta-delayed) writes, a module hierarchy, waveform tracing (VCD) and
activity monitors.  Models are callbacks scheduled on the simulator and
subscribed to signals.
"""

from repro.sim.event import EventHandle
from repro.sim.module import Module
from repro.sim.monitor import ActivityMonitor, EdgeCounter
from repro.sim.rng import RandomStreams
from repro.sim.signal import Signal
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.sim.vcd import VcdWriter

__all__ = [
    "ActivityMonitor",
    "EdgeCounter",
    "EventHandle",
    "Module",
    "RandomStreams",
    "Signal",
    "Simulator",
    "TraceRecorder",
    "VcdWriter",
]
