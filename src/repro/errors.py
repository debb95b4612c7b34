"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Raised for kernel-level faults (scheduling in the past, etc.)."""


class TracingError(SimulationError):
    """Raised for waveform-tracing problems (duplicate ids, closed writer)."""


class EncodingError(ReproError):
    """Raised when a packet cannot be encoded (payload too large, bad field)."""


class DecodingError(ReproError):
    """Raised when an air frame is structurally undecodable.

    Note: *noise-induced* decode failures are normal results, not exceptions;
    this is only for malformed inputs (wrong length, unknown packet type).
    """


class ConfigError(ReproError):
    """Raised for invalid simulation / experiment configuration values."""


class ProtocolError(ReproError):
    """Raised when the link controller is driven illegally.

    Example: asking a device already in a connection to start an inquiry,
    or requesting sniff mode for a slave that is not in the piconet.
    """


class ChannelError(ReproError):
    """Raised for radio-channel misuse (detaching an unknown radio, ...)."""
