"""Signal tracing: in-memory change logs, ASCII timelines and VCD export.

This is how we reproduce the paper's Figs. 5 and 9, which show the
``enable_rx_RF`` waveforms of every device during piconet creation and in
sniff mode.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.sim.signal import Signal
from repro.sim.simulator import Simulator
from repro.sim.vcd import VcdWriter
from repro import units


@dataclass
class TracedSignal:
    """Change history of one signal: parallel (times, values) lists."""

    name: str
    times: list[int] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)

    def value_at(self, time_ns: int) -> Any:
        """Value the signal held at ``time_ns`` (step interpolation)."""
        from bisect import bisect_right

        index = bisect_right(self.times, time_ns) - 1
        if index < 0:
            return None
        return self.values[index]

    def intervals(self) -> list[tuple[int, int, Any]]:
        """Return (start, end, value) runs; the last run ends at +inf (-1)."""
        runs = []
        for i, (t, v) in enumerate(zip(self.times, self.values)):
            end = self.times[i + 1] if i + 1 < len(self.times) else -1
            runs.append((t, end, v))
        return runs


class TraceRecorder:
    """Records committed changes of subscribed signals.

    Also offers :meth:`to_vcd` and :meth:`ascii_timeline` renderers; the
    latter produces the textual equivalent of the paper's waveform figures.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self.signals: dict[str, TracedSignal] = {}

    def watch(self, signal: Signal) -> TracedSignal:
        """Start recording ``signal`` (initial value is logged at now)."""
        if signal.name in self.signals:
            return self.signals[signal.name]
        traced = TracedSignal(signal.name)
        traced.times.append(self._sim.now)
        traced.values.append(signal.read())
        self.signals[signal.name] = traced

        def _on_change(old: Any, new: Any, traced=traced) -> None:
            traced.times.append(self._sim.now)
            traced.values.append(new)

        signal.subscribe(_on_change)
        return traced

    # ------------------------------------------------------------------
    # Renderers
    # ------------------------------------------------------------------

    def to_vcd(self, stream: Optional[io.TextIOBase] = None) -> str:
        """Serialise every watched signal to VCD; returns the text."""
        own_buffer = stream is None
        buffer = stream if stream is not None else io.StringIO()
        writer = VcdWriter(buffer)
        variables = {}
        for name, traced in self.signals.items():
            scope, _, leaf = name.rpartition(".")
            sample = traced.values[0] if traced.values else False
            if isinstance(sample, bool):
                variables[name] = writer.add_wire(scope, leaf)
            elif isinstance(sample, int):
                variables[name] = writer.add_integer(scope, leaf)
            else:
                variables[name] = writer.add_string(scope, leaf)
        events: list[tuple[int, str, Any]] = []
        for name, traced in self.signals.items():
            events.extend((t, name, v) for t, v in zip(traced.times, traced.values))
        events.sort(key=lambda item: item[0])
        for time_ns, name, value in events:
            writer.change(variables[name], time_ns, value)
        writer.close(end_time_ns=self._sim.now)
        return buffer.getvalue() if own_buffer else ""

    def ascii_timeline(
        self,
        names: Optional[Sequence[str]] = None,
        start_ns: int = 0,
        end_ns: Optional[int] = None,
        columns: int = 100,
    ) -> str:
        """Render boolean signals as rows of '▔'/'▁' characters.

        Each column covers (end-start)/columns nanoseconds; a column shows
        high if the signal was high at any point inside it (so short RX
        windows remain visible, as in the paper's figures).
        """
        if end_ns is None:
            end_ns = self._sim.now
        if end_ns <= start_ns:
            return ""
        selected = names if names is not None else sorted(self.signals)
        span = end_ns - start_ns
        width = max(len(name) for name in selected) if selected else 0
        lines = []
        header = " " * (width + 2) + f"[{units.format_time(start_ns)} .. {units.format_time(end_ns)}]"
        lines.append(header)
        for name in selected:
            traced = self.signals[name]
            row = []
            for col in range(columns):
                t0 = start_ns + span * col // columns
                t1 = start_ns + span * (col + 1) // columns
                high = _any_high(traced, t0, t1)
                row.append("▔" if high else "▁")
            lines.append(f"{name.rjust(width)}  {''.join(row)}")
        return "\n".join(lines)


def _any_high(traced: TracedSignal, t0: int, t1: int) -> bool:
    """True if the (boolean) signal was truthy anywhere in [t0, t1)."""
    from bisect import bisect_left, bisect_right

    value = traced.value_at(t0)
    if value:
        return True
    lo = bisect_left(traced.times, t0)
    hi = bisect_right(traced.times, t1 - 1)
    return any(traced.values[i] for i in range(lo, hi))
