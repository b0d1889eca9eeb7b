"""Unit tests for the trace-invariant catalogue.

Each invariant is exercised on hand-built traces, on both buffer
backings (record lists and columnar stores) — columnar appends skip
dataclass validation, which is exactly the hole the validator plugs.
"""

import pytest

from repro.sim import Environment
from repro.trace import TraceSession
from repro.trace.columns import CswitchColumns, GpuPacketColumns
from repro.trace.etl import EtlTrace
from repro.trace.records import ContextSwitchRecord, GpuPacketRecord
from repro.validate import (
    INVARIANT_NAMES,
    OnlineValidator,
    TraceValidationError,
    TraceValidator,
    check_single_run,
)


def columnar_trace(cswitches=(), gpu=(), start=0, stop=1000):
    """A trace on columnar buffers — rows appended without validation."""
    cs = CswitchColumns()
    for row in cswitches:
        cs.append(*row)
    gp = GpuPacketColumns()
    for row in gpu:
        gp.append(*row)
    return EtlTrace(start, stop, cswitches=cs, gpu_packets=gp)


def record_trace(cswitches=(), gpu=(), start=0, stop=1000):
    """The same trace shape on plain record lists."""
    return EtlTrace(
        start, stop,
        cswitches=[ContextSwitchRecord(*row) for row in cswitches],
        gpu_packets=[GpuPacketRecord(*row) for row in gpu])


CLEAN_CSWITCHES = [
    ("app.exe", 10, 100, "main", 0, 0, 10, 50),
    ("app.exe", 10, 101, "worker", 1, 5, 20, 60),
    ("app.exe", 10, 100, "main", 0, 50, 60, 90),
    ("other.exe", 20, 200, "main", 2, 0, 30, 70),
]
CLEAN_GPU = [
    ("app.exe", 10, "3D", "render", 0, 10, 40),
    ("app.exe", 10, "3D", "render", 30, 40, 80),
    ("app.exe", 10, "Copy", "dma", 0, 5, 25),
]


def violated(report):
    """Names of the invariants ``report`` flags."""
    return {violation.invariant for violation in report.violations}


@pytest.mark.parametrize("factory", [columnar_trace, record_trace])
def test_clean_trace_passes(factory):
    report = TraceValidator(n_logical=4).validate(factory(CLEAN_CSWITCHES, CLEAN_GPU))
    assert report.ok
    assert report.violations == []
    assert tuple(report.checked) == INVARIANT_NAMES


def test_empty_trace_passes():
    assert TraceValidator(n_logical=4).validate(columnar_trace()).ok


def test_thread_monotonic_violation():
    # Thread 100 runs on CPUs 0 and 1 at overlapping times.
    trace = columnar_trace([
        ("app.exe", 10, 100, "main", 0, 0, 10, 50),
        ("app.exe", 10, 100, "main", 1, 0, 30, 70),
    ])
    report = TraceValidator(n_logical=4).validate(trace)
    assert "thread-monotonic" in violated(report)


def test_balanced_edges_row_disorder():
    # switch_out before switch_in — impossible for a real slice.
    trace = columnar_trace([("app.exe", 10, 100, "main", 0, 0, 40, 20)])
    report = TraceValidator(n_logical=4).validate(trace)
    assert "balanced-switch-edges" in violated(report)
    # A negative-duration slice also breaks busy-time conservation
    # against the fused-sweep histogram.
    assert "busy-conservation" in violated(report)


def test_cpu_occupancy_double_booking():
    trace = columnar_trace([
        ("app.exe", 10, 100, "main", 0, 0, 10, 50),
        ("app.exe", 10, 101, "worker", 0, 0, 30, 70),
    ])
    report = TraceValidator(n_logical=4).validate(trace)
    assert "cpu-occupancy" in violated(report)


def test_cpu_occupancy_index_out_of_range():
    trace = columnar_trace([("app.exe", 10, 100, "main", 9, 0, 10, 50)])
    report = TraceValidator(n_logical=4).validate(trace)
    assert "cpu-occupancy" in violated(report)
    # Without a machine bound, per-CPU exclusivity still holds and the
    # index check is skipped.
    assert TraceValidator().validate(trace).ok


def test_gpu_engine_exclusive_violation():
    trace = columnar_trace(gpu=[
        ("app.exe", 10, "3D", "render", 0, 10, 40),
        ("app.exe", 10, "3D", "render", 0, 30, 60),
    ])
    report = TraceValidator(n_logical=4).validate(trace)
    assert "gpu-engine-exclusive" in violated(report)


def test_gpu_different_engines_may_overlap():
    trace = columnar_trace(gpu=[
        ("app.exe", 10, "3D", "render", 0, 10, 40),
        ("app.exe", 10, "Copy", "dma", 0, 30, 60),
    ])
    assert TraceValidator(n_logical=4).validate(trace).ok


def test_window_containment_violation():
    trace = columnar_trace(
        [("app.exe", 10, 100, "main", 0, 0, 10, 50)], stop=30)
    report = TraceValidator(n_logical=4).validate(trace)
    assert "window-containment" in violated(report)


def test_ready_time_before_window_is_legal():
    # A thread may become ready before the recording window opens.
    trace = columnar_trace(
        [("app.exe", 10, 100, "main", 0, 0, 10, 50)], start=5)
    assert TraceValidator(n_logical=4).validate(trace).ok


def test_invariant_subset_selection():
    trace = columnar_trace([("app.exe", 10, 100, "main", 9, 0, 10, 50)])
    report = TraceValidator(
        n_logical=4, invariants=("window-containment",)).validate(trace)
    assert report.ok  # the out-of-range CPU check was not selected
    with pytest.raises(ValueError):
        TraceValidator(invariants=("no-such-invariant",))


def test_max_report_caps_violations():
    rows = [("app.exe", 10, 100, "main", 0, 0, 40, 20)] * 100
    report = TraceValidator(n_logical=4, max_report=3).validate(
        columnar_trace(rows))
    per_invariant = {}
    for violation in report.violations:
        per_invariant[violation.invariant] = \
            per_invariant.get(violation.invariant, 0) + 1
    assert max(per_invariant.values()) <= 3


def test_raise_if_failed():
    trace = columnar_trace([("app.exe", 10, 100, "main", 0, 0, 40, 20)])
    report = TraceValidator(n_logical=4).validate(trace)
    with pytest.raises(TraceValidationError) as excinfo:
        report.raise_if_failed()
    assert "balanced-switch-edges" in str(excinfo.value)
    assert excinfo.value.report is report


class TestOnlineValidator:
    def make(self, n_logical=4):
        env = Environment()
        session = TraceSession(env)
        validator = OnlineValidator(session, n_logical=n_logical)
        return env, session, validator

    def test_clean_stream(self):
        env, session, validator = self.make()
        session.start()
        session.emit_cpu_busy("app.exe", 0)
        env._now = 100  # advance the simulated clock directly
        session.emit_cpu_busy("app.exe", 1)
        env._now = 200
        session.emit_cpu_idle("app.exe", 0)
        env._now = 300
        session.emit_cpu_idle("app.exe", 1)
        session.stop()
        assert validator.report().ok

    def test_double_busy_flagged(self):
        env, session, validator = self.make()
        session.start()
        session.emit_cpu_busy("app.exe", 0)
        session.emit_cpu_busy("app.exe", 0)
        report = validator.report()
        assert "cpu-occupancy" in violated(report)

    def test_idle_without_busy_flagged(self):
        env, session, validator = self.make()
        session.start()
        session.emit_cpu_idle("app.exe", 0)
        assert "balanced-switch-edges" in violated(validator.report())

    def test_occupancy_above_machine_flagged(self):
        env, session, validator = self.make(n_logical=1)
        session.start()
        session.emit_cpu_busy("app.exe", 0)
        session.emit_engine_busy("app.exe", "3D")  # engines don't count
        env._now = 10
        session.emit_cpu_busy("app.exe", 1)  # second CPU on a 1-CPU box
        report = validator.report()
        assert "cpu-occupancy" in violated(report)

    def test_conservation_across_window(self):
        env, session, validator = self.make()
        session.emit_cpu_busy("app.exe", 0)  # opens before the window
        env._now = 50
        session.start()
        env._now = 150
        session.emit_cpu_idle("app.exe", 0)
        env._now = 200
        session.stop()
        assert validator.report().ok
        assert validator._windows_sealed == 1


def test_check_single_run_accepts_real_run():
    from repro.harness import run_app_once
    from repro.sim import SECOND

    run = run_app_once("word", duration_us=SECOND, seed=1)
    assert check_single_run(run, n_logical=12) == []


def test_check_single_run_rejects_corruption():
    from repro.harness import run_app_once
    from repro.sim import SECOND

    run = run_app_once("word", duration_us=SECOND, seed=1)
    run.tlp.fractions = [0.5] * len(run.tlp.fractions)
    assert any("sum" in p for p in check_single_run(run))
    run.tlp.window_us = 0
    assert any("window" in p for p in check_single_run(run))
    assert check_single_run(object()) != []
