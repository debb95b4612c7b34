"""Human-readable power/activity reports for examples and benches."""

from __future__ import annotations

from repro.power.model import PowerReport
from repro.power.rf_activity import RfActivitySample


def format_activity(label: str, sample: RfActivitySample) -> str:
    """One-line summary of an RF activity sample."""
    return (f"{label:<16} TX {sample.tx_activity * 100:6.3f}%   "
            f"RX {sample.rx_activity * 100:6.3f}%   "
            f"total {sample.total_activity * 100:6.3f}%   "
            f"({sample.rx_windows} RX windows)")


def format_power(label: str, report: PowerReport) -> str:
    """One-line summary of a power report."""
    return (f"{label:<16} {report.avg_power_mw:8.2f} mW  "
            f"({report.avg_current_ma:6.2f} mA avg, "
            f"{report.energy_mj:8.3f} mJ)")
