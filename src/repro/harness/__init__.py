"""Experiment harness: runners, sweeps and the full-suite protocol."""

from repro.harness.runner import (
    DEFAULT_DURATION_US,
    DEFAULT_ITERATIONS,
    AppResult,
    SingleRun,
    run_app as _run_app_model,
    run_app_once as _run_app_once_model,
)
from repro.harness.cache import ResultCache
from repro.harness.colocate import ColocatedRun, run_colocated
from repro.harness.executor import (
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    make_spec,
    resolve_executor,
)
from repro.harness.suite import SuiteResult, run_suite
from repro.harness.supervisor import (
    FAILURE_KINDS,
    RunFailure,
    SupervisedExecutor,
)
from repro.harness.sweeps import core_scaling_sweep, gpu_swap_sweep, smt_sweep


def _resolve(app, config):
    if isinstance(app, str):
        from repro.apps import create_app

        return create_app(app, **config)
    if config:
        raise ValueError("config kwargs only apply when app is a name")
    return app


def run_app(app, *, config=None, **kwargs):
    """Run an application (model instance or registry name) N times."""
    return _run_app_model(_resolve(app, config or {}), **kwargs)


def run_app_once(app, *, config=None, **kwargs):
    """Run a single traced iteration (model instance or registry name)."""
    return _run_app_once_model(_resolve(app, config or {}), **kwargs)


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
    "resolve_executor",
    "run_app",
    "run_app_once",
    "run_colocated",
    "run_suite",
    "smt_sweep",
]
