"""Experiment runner: boot machine, run testbench, measure, repeat.

One :func:`run_app_once` call is the paper's Fig. 1 workflow end to
end: start trace -> run testbench -> stop trace -> WPA extraction ->
TLP / GPU-utilization computation.  :func:`run_app` repeats it for N
iterations with derived seeds and reports mean / sigma, exactly like
the three-iteration protocol behind Table II.
"""

from dataclasses import dataclass, field

from repro.automation import AUTOIT, InputDriver
from repro.apps import create_app
from repro.apps.base import AppRuntime
from repro.gpu import GpuDevice
from repro.hardware import paper_machine
from repro.harness.executor import DEFAULT_DURATION_US, SerialExecutor, make_spec
from repro.metrics import (
    FrameStats,
    OnlineMetricsEngine,
    Summary,
    measure_gpu_utilization,
    measure_tlp,
    summarize,
)
from repro.os import Kernel
from repro.sim import Environment
from repro.trace import CpuUsagePreciseTable, GpuUtilizationTable, TraceSession

#: Iterations per measurement, as in the paper.
DEFAULT_ITERATIONS = 3


@dataclass
class SingleRun:
    """Raw artifacts of one traced testbench run."""

    app_name: str
    seed: int
    duration_us: int
    tlp: object                 # metrics.TlpResult
    gpu_util: object            # metrics.GpuUtilResult
    outputs: dict
    process_names: set
    memory_counters: object     # os.ProcessCounters (aggregated)
    energy: object = None       # os.EnergyReport for the app's processes
    #: ``{(work_class, clock_factor): µs}`` for the app's processes —
    #: the exact integral the energy report was computed from, kept so
    #: the DSE engine can re-score this run under other energy
    #: coefficients without re-simulating (see repro.analysis.dse).
    activity: dict = None
    #: Total GPU engine-busy microseconds over the run's window (the
    #: numerator of the energy model's GPU busy fraction).
    gpu_busy_us: int = 0
    trace: object = None        # EtlTrace, only when keep_trace=True
    cpu_table: object = None
    gpu_table: object = None
    frames: list = field(default_factory=list)
    marks: list = field(default_factory=list)
    frame_stats: object = None  # metrics.FrameStats


@dataclass
class AppResult:
    """Mean/sigma across iterations — one row of Table II."""

    app_name: str
    display_name: str
    category: object
    tlp: Summary
    gpu_util: Summary
    fractions: list             # mean c_0..c_n across iterations
    max_instantaneous: int
    gpu_capped: bool
    runs: list
    #: True when some iterations were lost to quarantined failures.
    partial: bool = False

    @property
    def outputs(self):
        """Outputs of the first iteration (deterministic headline run)."""
        return self.runs[0].outputs


def _resolve(app, config):
    """The model ``app`` names, built with ``config``; or ``app``
    itself when it already is a model."""
    if isinstance(app, str):
        return create_app(app, **(config or {}))
    if config:
        raise ValueError("config kwargs only apply when app is a name")
    return app


def run_app_once(app, *, config=None, machine=None,
                 duration_us=DEFAULT_DURATION_US, seed=0,
                 driver_mode=AUTOIT, keep_trace=False,
                 dispatch_policy="spread", quantum=None, streaming=False,
                 validate=False, fault=None, fault_seed=0):
    """Run one traced iteration of ``app`` and measure it.

    ``app`` is a registry name (built with the ``create_app`` keyword
    arguments in ``config``) or a model instance.  Every run follows
    the paper's protocol: turbo on, the background services booted,
    and GPU utilization as §III-B's sum of packet-time ratios.

    ``streaming=True`` computes TLP / GPU utilization / frame stats
    with the in-simulation :class:`OnlineMetricsEngine` instead of
    recording a trace and post-processing it — bit-identical results
    in O(1) memory.  Incompatible with ``keep_trace`` (there is no
    trace to keep); per-record artifacts (``frames``, ``marks``,
    tables) are empty in this mode.

    ``validate=True`` checks the run against the trace-invariant
    catalogue (:mod:`repro.validate`): the live occupancy-edge stream
    is validated online in every mode, and the recorded trace is
    additionally validated post-hoc when one exists.  Violations raise
    :class:`~repro.validate.invariants.TraceValidationError`; the
    checks only observe, so results stay bit-identical.  A run either
    measures its full window or raises: under the supervised executor
    a rejected trace is quarantined as ``invalid-trace`` and a run
    that dies mid-simulation as ``crash``.

    ``fault`` injects a seeded failure for chaos testing: a trace
    fault from :data:`repro.validate.faults.FAULTS` corrupts the
    recorded trace post-hoc (deterministically under ``fault_seed``),
    an execution fault (``worker-crash``, ``worker-hang``,
    ``flaky-…``) detonates inside the simulation itself.
    """
    if streaming and keep_trace:
        raise ValueError("streaming=True does not retain a trace; "
                         "drop keep_trace")
    app = _resolve(app, config)
    machine = machine or paper_machine()
    exec_fault = False
    if fault is not None:
        from repro.validate.faults import FAULTS, is_exec_fault

        exec_fault = is_exec_fault(fault)
        if not exec_fault:
            if fault not in FAULTS:
                raise ValueError(f"unknown fault: {fault!r}")
            if streaming:
                raise ValueError("trace faults corrupt the recorded "
                                 "trace; incompatible with streaming")
    env = Environment()
    session = TraceSession(env, machine_name=machine.cpu.name,
                           retain_records=not streaming)
    kernel = Kernel(env, machine, session=session, seed=seed,
                    dispatch_policy=dispatch_policy, quantum=quantum)
    kernel.start_background_services()
    gpu = GpuDevice(env, machine.gpu, session)
    driver = InputDriver(kernel, mode=driver_mode, seed=seed + 7)
    runtime = AppRuntime(kernel, gpu, driver, duration_us, seed=seed)
    processes = runtime.process_names
    engine = None
    online_validator = None
    if validate:
        from repro.validate import OnlineValidator

        online_validator = OnlineValidator(session, machine.logical_cpus)
    if streaming:
        # The live process-name set stands in for post-hoc filtering:
        # names are registered at spawn, before any thread runs.
        engine = OnlineMetricsEngine(session, machine.logical_cpus,
                                     processes=processes)

    session.start()
    if exec_fault:
        from repro.validate.faults import install_exec_fault

        install_exec_fault(env, duration_us, fault)
    app.build(runtime)
    env.run(until=runtime.end_time)
    trace = session.stop()

    if fault is not None and not exec_fault and not streaming:
        from repro.validate.faults import inject_fault

        trace = inject_fault(trace, fault, seed=fault_seed)

    if validate:
        online_validator.raise_if_failed()
        if not streaming:
            from repro.validate import TraceValidator

            TraceValidator(machine.logical_cpus).validate(
                trace).raise_if_failed()

    if streaming:
        tlp = engine.tlp_result()
        gpu_util = engine.gpu_result()
        frame_stats = engine.frame_stats()
        cpu_table = gpu_table = None
        frames = []
        marks = []
    else:
        cpu_table = CpuUsagePreciseTable.from_trace(trace)
        gpu_table = GpuUtilizationTable.from_trace(trace)
        tlp = measure_tlp(cpu_table, machine.logical_cpus,
                          processes=processes)
        gpu_util = measure_gpu_utilization(gpu_table, processes=processes)
        frames = [f for f in trace.frames if f.process in processes]
        marks = [m for m in trace.marks if m.process in processes]
        frame_stats = FrameStats.from_records(frames)
    # The side models read per-run totals: fold the scheduler's slice
    # histogram into them once.
    kernel.scheduler.fold_slices()
    memory = _aggregate_counters(kernel.memory_model, processes)
    energy = kernel.energy_model.report(duration_us, gpu_device=gpu,
                                        processes=processes)
    return SingleRun(
        app_name=app.name,
        seed=seed,
        duration_us=duration_us,
        tlp=tlp,
        gpu_util=gpu_util,
        outputs=dict(runtime.outputs),
        process_names=set(processes),
        memory_counters=memory,
        energy=energy,
        activity=kernel.energy_model.activity(processes),
        gpu_busy_us=gpu.busy_us(),
        trace=trace if keep_trace else None,
        cpu_table=cpu_table if keep_trace else None,
        gpu_table=gpu_table if keep_trace else None,
        frames=frames,
        marks=marks,
        frame_stats=frame_stats,
    )


def _aggregate_counters(memory_model, processes):
    """Merge per-process memory counters over the app's processes.

    The float counters are summed in sorted process-name order:
    ``processes`` is a set of strings, whose iteration order follows
    the interpreter's hash seed, and a float sum's last bits follow
    its order.
    """
    from repro.os.memmodel import ProcessCounters

    merged = ProcessCounters()
    for name in sorted(processes):
        counters = memory_model.counters(name)
        merged.work_us += counters.work_us
        merged.contended_us += counters.contended_us
        merged.llc_misses += counters.llc_misses
        merged.l1_stall_us += counters.l1_stall_us
        for work_class, amount in counters.by_class.items():
            merged.by_class[work_class] = (
                merged.by_class.get(work_class, 0) + amount)
    return merged


def iteration_specs(app, iterations=DEFAULT_ITERATIONS, base_seed=100,
                    **knobs):
    """The N seed-derived grid points of one ``run_app`` measurement.

    ``knobs`` are :func:`run_app_once`'s (every one but ``seed``);
    :func:`~repro.harness.executor.make_spec` rejects any other name.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    return [make_spec(app, seed=base_seed + 17 * k, **knobs)
            for k in range(iterations)]


def summarize_runs(app, runs):
    """Aggregate per-iteration runs into one Table II row.

    Under the supervised executor some entries of ``runs`` may be
    quarantined :class:`~repro.harness.supervisor.RunFailure` records
    rather than runs; the row is computed over the surviving
    iterations and flagged ``partial``.  A measurement that lost every
    iteration has no row — that raises.
    """
    good = [r for r in runs if isinstance(r, SingleRun)]
    if not good:
        raise RuntimeError(
            f"all {len(runs)} iterations of {app.name} failed")
    n_levels = max(len(r.tlp.fractions) for r in good)
    fractions = [
        sum(r.tlp.fractions[i] if i < len(r.tlp.fractions) else 0.0
            for r in good) / len(good)
        for i in range(n_levels)
    ]
    return AppResult(
        app_name=app.name,
        display_name=app.display_name,
        category=app.category,
        tlp=summarize([r.tlp.tlp for r in good]),
        gpu_util=summarize([r.gpu_util.utilization_pct for r in good]),
        fractions=fractions,
        max_instantaneous=max(r.tlp.max_instantaneous for r in good),
        gpu_capped=any(r.gpu_util.capped for r in good),
        runs=good,
        partial=len(good) < len(runs),
    )


def run_app(app, *, config=None, iterations=DEFAULT_ITERATIONS,
            base_seed=100, executor=None, **knobs):
    """Run ``iterations`` seeded repetitions and summarize them.

    ``app`` is a registry name (built once, with ``config``) or a
    model; ``knobs`` are :func:`iteration_specs`'.  The runs go through
    ``executor`` (a fresh :class:`~repro.harness.executor.SerialExecutor`
    when none is given): pass one with workers, retries or a
    :class:`~repro.harness.cache.ResultCache` to get those.
    """
    app = _resolve(app, config)
    specs = iteration_specs(app, iterations, base_seed, **knobs)
    return summarize_runs(app, (executor or SerialExecutor()).map(specs))
