"""Experiment harness: runners, sweeps and the full-suite protocol."""

from repro.harness.runner import (
    DEFAULT_DURATION_US,
    DEFAULT_ITERATIONS,
    AppResult,
    SingleRun,
    run_app,
    run_app_once,
)
from repro.harness.cache import ResultCache
from repro.harness.colocate import ColocatedRun, run_colocated
from repro.harness.executor import (
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    make_spec,
)
from repro.harness.suite import SuiteResult, run_suite
from repro.harness.supervisor import (
    FAILURE_KINDS,
    RunFailure,
    SupervisedExecutor,
)
from repro.harness.sweeps import core_scaling_sweep, gpu_swap_sweep, smt_sweep

__all__ = [
    "AppResult",
    "ColocatedRun",
    "DEFAULT_DURATION_US",
    "DEFAULT_ITERATIONS",
    "FAILURE_KINDS",
    "ParallelExecutor",
    "ResultCache",
    "RunFailure",
    "RunSpec",
    "SerialExecutor",
    "SingleRun",
    "SuiteResult",
    "SupervisedExecutor",
    "core_scaling_sweep",
    "gpu_swap_sweep",
    "make_spec",
    "run_app",
    "run_app_once",
    "run_colocated",
    "run_suite",
    "smt_sweep",
]
