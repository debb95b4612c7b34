"""Monte Carlo harness and estimators for the paper's statistical figures."""

from repro.stats.chaos import ChaosConfig, ChaosError
from repro.stats.estimators import (
    MeanEstimate,
    ProportionEstimate,
    ci_cell,
    mean_with_ci,
    wilson_interval,
)
from repro.stats.executor import Executor, SequentialExecutor, default_jobs
from repro.stats.fabric import (
    FabricCoordinator,
    FabricError,
    FabricExecutor,
    FabricWorker,
    WorkerRefusedError,
)
from repro.stats.lease import LeaseExecutor
from repro.stats.montecarlo import (
    MonteCarlo,
    TrialExecutionError,
    TrialOutcome,
    derive_seed,
)
from repro.stats.store import (
    CorruptJournalError,
    ResultStore,
    SpecMismatchError,
    campaign_digest,
)
from repro.stats.sweep import Sweep, SweepPoint, campaign_spec
from repro.stats.tables import format_table

__all__ = [
    "ChaosConfig",
    "ChaosError",
    "CorruptJournalError",
    "Executor",
    "FabricCoordinator",
    "FabricError",
    "FabricExecutor",
    "FabricWorker",
    "LeaseExecutor",
    "MeanEstimate",
    "MonteCarlo",
    "ProportionEstimate",
    "ResultStore",
    "SequentialExecutor",
    "SpecMismatchError",
    "Sweep",
    "SweepPoint",
    "TrialExecutionError",
    "TrialOutcome",
    "WorkerRefusedError",
    "campaign_digest",
    "campaign_spec",
    "ci_cell",
    "default_jobs",
    "derive_seed",
    "format_table",
    "mean_with_ci",
    "wilson_interval",
]
