"""Minimal Value Change Dump (VCD) writer.

Produces files loadable by GTKWave & co. Supports 1-bit (bool) wires,
integer buses and string (real-text) variables. Times are written in
nanoseconds.
"""

from __future__ import annotations

import io
from typing import Optional, Union

from repro.errors import TracingError

_IDENT_ALPHABET = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class VcdVariable:
    """One declared VCD variable."""

    def __init__(self, ident: str, name: str, kind: str, width: int):
        self.ident = ident
        self.name = name
        self.kind = kind  # 'wire' | 'integer' | 'string'
        self.width = width
        self.last_emitted: Optional[str] = None


class VcdWriter:
    """Streams value changes to a VCD file (or any text buffer).

    Usage::

        writer = VcdWriter(open("trace.vcd", "w"))
        v = writer.add_wire("top.dev0", "enable_rx")
        writer.change(v, 0, True)
        ...
        writer.close()
    """

    def __init__(self, stream: io.TextIOBase, timescale: str = "1ns", date: str = ""):
        self._stream = stream
        self._vars: list[VcdVariable] = []
        self._header_done = False
        self._closed = False
        self._last_time: Optional[int] = None
        self._timescale = timescale
        self._date = date

    # -- declaration ------------------------------------------------------

    def _next_ident(self) -> str:
        index = len(self._vars)
        chars = []
        base = len(_IDENT_ALPHABET)
        while True:
            chars.append(_IDENT_ALPHABET[index % base])
            index //= base
            if index == 0:
                break
        return "".join(chars)

    def _add(self, scope: str, name: str, kind: str, width: int) -> VcdVariable:
        if self._header_done:
            raise TracingError("cannot declare variables after first change")
        var = VcdVariable(self._next_ident(), f"{scope}.{name}" if scope else name, kind, width)
        self._vars.append(var)
        return var

    def add_wire(self, scope: str, name: str) -> VcdVariable:
        """Declare a 1-bit wire."""
        return self._add(scope, name, "wire", 1)

    def add_integer(self, scope: str, name: str, width: int = 32) -> VcdVariable:
        """Declare an integer bus."""
        return self._add(scope, name, "integer", width)

    def add_string(self, scope: str, name: str) -> VcdVariable:
        """Declare a string variable (GTKWave extension, kind 'real'->text)."""
        return self._add(scope, name, "string", 1)

    # -- emission -----------------------------------------------------------

    def _emit_header(self) -> None:
        out = self._stream
        if self._date:
            out.write(f"$date {self._date} $end\n")
        out.write(f"$timescale {self._timescale} $end\n")
        # group variables by dotted scope
        by_scope: dict[str, list[VcdVariable]] = {}
        for var in self._vars:
            scope, _, leaf = var.name.rpartition(".")
            by_scope.setdefault(scope, []).append(var)
        for scope, variables in by_scope.items():
            scope_parts = scope.split(".") if scope else []
            for part in scope_parts:
                out.write(f"$scope module {part} $end\n")
            for var in variables:
                leaf = var.name.rpartition(".")[2]
                if var.kind == "string":
                    out.write(f"$var string 1 {var.ident} {leaf} $end\n")
                elif var.kind == "integer":
                    out.write(f"$var integer {var.width} {var.ident} {leaf} $end\n")
                else:
                    out.write(f"$var wire 1 {var.ident} {leaf} $end\n")
            for _ in scope_parts:
                out.write("$upscope $end\n")
        out.write("$enddefinitions $end\n")
        self._header_done = True

    @staticmethod
    def _format_value(var: VcdVariable, value: Union[bool, int, str]) -> str:
        if var.kind == "wire":
            return f"{'1' if value else '0'}{var.ident}"
        if var.kind == "integer":
            return f"b{int(value):b} {var.ident}"
        text = str(value).replace(" ", "_") or "_"
        return f"s{text} {var.ident}"

    def change(self, var: VcdVariable, time_ns: int, value: Union[bool, int, str]) -> None:
        """Record that ``var`` took ``value`` at ``time_ns``."""
        if self._closed:
            raise TracingError("writer is closed")
        if not self._header_done:
            self._emit_header()
        if self._last_time is not None and time_ns < self._last_time:
            raise TracingError(
                f"non-monotonic VCD time: {time_ns} after {self._last_time}"
            )
        encoded = self._format_value(var, value)
        if encoded == var.last_emitted:
            return
        if time_ns != self._last_time:
            self._stream.write(f"#{time_ns}\n")
            self._last_time = time_ns
        self._stream.write(encoded + "\n")
        var.last_emitted = encoded

    def close(self, end_time_ns: Optional[int] = None) -> None:
        """Finish the dump (optionally stamping a final time marker)."""
        if self._closed:
            return
        if not self._header_done:
            self._emit_header()
        if end_time_ns is not None and (
            self._last_time is None or end_time_ns > self._last_time
        ):
            self._stream.write(f"#{end_time_ns}\n")
        self._closed = True
        self._stream.flush()
