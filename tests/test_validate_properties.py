"""Property-based tests of the validation subsystem.

Two properties pin the subsystem from both sides:

1. *Soundness*: any trace that is valid by construction passes the
   full invariant catalogue — the validator never cries wolf.
2. *Completeness over the fault taxonomy*: every registered fault
   class, injected with an arbitrary seed, is detected, and the report
   names the designated invariant — zero silent mutations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.columns import CswitchColumns, GpuPacketColumns
from repro.trace.etl import EtlTrace
from repro.validate import (
    FAULTS,
    FaultPreconditionError,
    TraceValidator,
    inject_fault,
)

N_LOGICAL = 4


# --------------------------------------------------------------------
# Valid-by-construction trace generator.
#
# Each thread is pinned to one CPU and each CPU executes its slices
# back to back with non-negative gaps, so per-CPU exclusivity and
# per-thread monotonicity hold structurally; the window closes after
# the last record, so containment holds too.
# --------------------------------------------------------------------

slice_shape = st.tuples(
    st.integers(min_value=0, max_value=50),    # gap before the slice
    st.integers(min_value=0, max_value=100),   # slice length (0 legal)
    st.integers(min_value=0, max_value=30),    # ready lead time
)

cpu_schedule = st.lists(slice_shape, min_size=0, max_size=8)

packet_shape = st.tuples(
    st.integers(min_value=0, max_value=50),    # gap before the packet
    st.integers(min_value=0, max_value=80),    # execution length
    st.integers(min_value=0, max_value=40),    # submit lead time
)

engine_schedule = st.lists(packet_shape, min_size=0, max_size=6)

valid_trace_parts = st.tuples(
    st.lists(cpu_schedule, min_size=1, max_size=N_LOGICAL),
    st.lists(engine_schedule, min_size=0, max_size=2),
    st.integers(min_value=1, max_value=100),   # window tail
)


def build_valid_trace(parts):
    cpu_schedules, engine_schedules, tail = parts
    cswitches = CswitchColumns()
    last = 0
    for cpu, schedule in enumerate(cpu_schedules):
        clock = 0
        for thread_index, (gap, length, lead) in enumerate(schedule):
            switch_in = clock + gap
            switch_out = switch_in + length
            cswitches.append(
                "app.exe", 10, 1000 * (cpu + 1) + thread_index,
                f"t{cpu}.{thread_index}", cpu,
                max(0, switch_in - lead), switch_in, switch_out)
            clock = switch_out
            last = max(last, switch_out)
    gpu = GpuPacketColumns()
    engines = ("3D", "Copy")
    for engine_index, schedule in enumerate(engine_schedules):
        clock = 0
        for gap, length, lead in schedule:
            start = clock + gap
            finish = start + length
            gpu.append("app.exe", 10, engines[engine_index], "packet",
                       max(0, start - lead), start, finish)
            clock = finish
            last = max(last, finish)
    return EtlTrace(0, last + tail, cswitches=cswitches, gpu_packets=gpu)


@given(valid_trace_parts)
@settings(max_examples=150, deadline=None)
def test_valid_traces_always_pass(parts):
    report = TraceValidator(n_logical=N_LOGICAL).validate(build_valid_trace(parts))
    assert report.ok, str(report)


# --------------------------------------------------------------------
# Fault detection.
#
# The base trace is rich enough to satisfy every injector's
# preconditions: multiple positive-length slices per CPU and per
# thread, disjoint slices of different threads, a positive-span GPU
# packet, and records spread across the window.
# --------------------------------------------------------------------

def rich_base_trace():
    cswitches = CswitchColumns()
    rows = [
        ("app.exe", 10, 100, "main", 0, 0, 10, 50),
        ("app.exe", 10, 101, "worker", 1, 5, 20, 60),
        ("app.exe", 10, 100, "main", 0, 50, 70, 120),
        ("app.exe", 10, 102, "io", 1, 60, 80, 130),
        ("app.exe", 10, 101, "worker", 0, 120, 140, 200),
        ("other.exe", 20, 200, "main", 2, 0, 30, 90),
        ("other.exe", 20, 200, "main", 2, 90, 110, 170),
    ]
    for row in rows:
        cswitches.append(*row)
    gpu = GpuPacketColumns()
    for row in [
        ("app.exe", 10, "3D", "render", 0, 15, 55),
        ("app.exe", 10, "3D", "render", 40, 60, 100),
        ("app.exe", 10, "Copy", "dma", 10, 25, 65),
    ]:
        gpu.append(*row)
    return EtlTrace(0, 250, cswitches=cswitches, gpu_packets=gpu)


def test_rich_base_trace_is_clean():
    assert TraceValidator(n_logical=N_LOGICAL).validate(rich_base_trace()).ok


@given(fault_name=st.sampled_from(sorted(FAULTS)),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_every_fault_is_detected_and_named(fault_name, seed):
    spec = FAULTS[fault_name]
    corrupted = inject_fault(rich_base_trace(), fault_name, seed=seed)
    report = TraceValidator(n_logical=N_LOGICAL).validate(corrupted)
    assert not report.ok, f"{fault_name} seed={seed} went undetected"
    assert spec_violated(fault_name, report), (
        f"{fault_name} seed={seed}: expected {spec.violates!r}, "
        f"got {report.violations}")


@given(parts=valid_trace_parts,
       fault_name=st.sampled_from(sorted(FAULTS)),
       seed=st.integers(min_value=0, max_value=1_000))
@settings(max_examples=150, deadline=None)
def test_faults_on_generated_traces_never_slip_through(
        parts, fault_name, seed):
    """Where a generated trace is rich enough to inject into, the
    fault must still be detected; otherwise the injector must refuse
    loudly rather than return the trace unchanged."""
    trace = build_valid_trace(parts)
    try:
        corrupted = inject_fault(trace, fault_name, seed=seed)
    except FaultPreconditionError:
        return
    report = TraceValidator(n_logical=N_LOGICAL).validate(corrupted)
    assert spec_violated(fault_name, report), (
        f"{fault_name} seed={seed} silent on generated trace")


def spec_violated(fault_name, report):
    return any(violation.invariant == FAULTS[fault_name].violates
               for violation in report.violations)


def test_injection_is_deterministic():
    for fault_name in FAULTS:
        first = inject_fault(rich_base_trace(), fault_name, seed=7)
        second = inject_fault(rich_base_trace(), fault_name, seed=7)
        assert list(first.cswitch_rows()) == list(second.cswitch_rows())
        assert list(first.gpu_rows()) == list(second.gpu_rows())
        assert (first.start_time, first.stop_time) == \
               (second.start_time, second.stop_time)


def test_injection_does_not_mutate_the_input():
    base = rich_base_trace()
    before = (list(base.cswitch_rows()), list(base.gpu_rows()),
              base.start_time, base.stop_time)
    for fault_name in FAULTS:
        inject_fault(base, fault_name, seed=3)
    after = (list(base.cswitch_rows()), list(base.gpu_rows()),
             base.start_time, base.stop_time)
    assert before == after


def test_precondition_errors_are_loud():
    empty = EtlTrace(0, 100, cswitches=CswitchColumns(),
                     gpu_packets=GpuPacketColumns())
    for fault_name in FAULTS:
        try:
            inject_fault(empty, fault_name, seed=0)
        except FaultPreconditionError:
            continue
        raise AssertionError(
            f"{fault_name} silently accepted an empty trace")
