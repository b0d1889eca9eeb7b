"""Trace-invariant validation, fault injection and golden fingerprints.

Every number the reproduction reports — Eq.-1 TLP, GPU utilization,
the core-scaling and SMT deltas — is derived from the ETW-style traces
the simulator emits.  This package is the safety net underneath that
pipeline:

* :mod:`repro.validate.invariants` checks that a trace is internally
  consistent (post-hoc on an :class:`~repro.trace.etl.EtlTrace`, or
  online against the live occupancy-edge stream);
* :mod:`repro.validate.faults` deliberately breaks traces in seeded,
  reproducible ways to prove each invariant actually fires — a
  mutation-testing loop for the trace pipeline;
* :mod:`repro.validate.golden` condenses a run into a compact metric
  fingerprint and diffs it against the committed golden suite under
  ``tests/golden/``.

Entry points: ``python -m repro validate`` (CLI), the ``--validate``
flag of ``run``/``suite``, and ``validate=True`` on
:func:`repro.harness.run_app_once`.
"""

from repro.validate.faults import (
    EXEC_FAULTS,
    FAULTS,
    FaultPreconditionError,
    InjectedCrash,
    inject_fault,
    install_exec_fault,
    is_exec_fault,
)
from repro.validate.golden import (
    GOLDEN_CONFIGS,
    GOLDEN_DURATION_US,
    GOLDEN_SEED,
    compare_fingerprints,
    compute_fingerprints,
    config_id,
    default_golden_path,
    fingerprint_run,
    golden_machine,
    golden_spec,
    load_goldens,
    save_goldens,
)
from repro.validate.invariants import (
    INVARIANT_NAMES,
    OnlineValidator,
    TraceValidationError,
    TraceValidator,
    ValidationReport,
    Violation,
    check_single_run,
)

__all__ = [
    "EXEC_FAULTS",
    "FAULTS",
    "FaultPreconditionError",
    "InjectedCrash",
    "GOLDEN_CONFIGS",
    "GOLDEN_DURATION_US",
    "GOLDEN_SEED",
    "INVARIANT_NAMES",
    "OnlineValidator",
    "TraceValidationError",
    "TraceValidator",
    "ValidationReport",
    "Violation",
    "check_single_run",
    "compare_fingerprints",
    "compute_fingerprints",
    "config_id",
    "default_golden_path",
    "fingerprint_run",
    "golden_machine",
    "golden_spec",
    "inject_fault",
    "install_exec_fault",
    "is_exec_fault",
    "load_goldens",
    "save_goldens",
]
