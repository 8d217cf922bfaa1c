"""Paper-evaluation experiments: one module per table/figure."""

from .base import (
    DEFAULT,
    FULL,
    QUICK,
    SCALES,
    Experiment,
    ExperimentResult,
    RunRequest,
    RunScale,
    clear_sim_cache,
    speedup_rows,
    speedup_runs,
    use_disk_cache,
)
from .engine import execute_plan
from .registry import available_experiments, get_experiment, plan_runs
from .resilience import RetryPolicy, RunSupervisor, backoff_delay

__all__ = [
    "DEFAULT",
    "Experiment",
    "ExperimentResult",
    "FULL",
    "QUICK",
    "RetryPolicy",
    "RunRequest",
    "RunScale",
    "RunSupervisor",
    "SCALES",
    "available_experiments",
    "backoff_delay",
    "clear_sim_cache",
    "execute_plan",
    "get_experiment",
    "plan_runs",
    "speedup_rows",
    "speedup_runs",
    "use_disk_cache",
]
