"""Co-located execution: several applications sharing one machine.

The paper's §VII suggests that "applications exhibiting complementary
TLP characteristics can be scheduled to execute concurrently to
achieve best utilization of the processor" — e.g. filling HandBrake's
serialization troughs with another task.  This harness runs N
application models inside a *single* booted kernel and measures each
application and the machine as a whole, so that suggestion can be
evaluated quantitatively (see ``benchmarks/bench_ext_coscheduling.py``).
"""

from dataclasses import dataclass, field

from repro.apps.base import AppRuntime
from repro.automation import AUTOIT, InputDriver
from repro.gpu import GpuDevice
from repro.hardware import paper_machine
from repro.metrics import measure_gpu_utilization, measure_tlp
from repro.os import Kernel
from repro.sim import Environment
from repro.trace import CpuUsagePreciseTable, GpuUtilizationTable, TraceSession


@dataclass
class ColocatedRun:
    """Results of one multi-application run."""

    #: Per-application TLP results, keyed by app name.
    per_app_tlp: dict
    per_app_gpu: dict
    #: Combined metrics over the union of all application processes.
    combined_tlp: object
    combined_gpu: object
    #: System-wide TLP (every process, incl. background services).
    system_tlp: object
    outputs: dict = field(default_factory=dict)
    #: Per-application trace marks (for responsiveness analysis).
    marks: dict = field(default_factory=dict)


def run_colocated(apps, machine=None, duration_us=60_000_000, seed=0,
                  driver_mode=AUTOIT):
    """Run several app models simultaneously on one machine.

    ``apps`` is an iterable of model instances (each used once).
    Returns a :class:`ColocatedRun`.
    """
    apps = list(apps)
    if not apps:
        raise ValueError("need at least one application")
    names = [app.name for app in apps]
    if len(set(names)) != len(names):
        raise ValueError("each application may appear only once")

    machine = machine or paper_machine()
    env = Environment()
    session = TraceSession(env, machine_name=machine.cpu.name)
    kernel = Kernel(env, machine, session=session, seed=seed)
    kernel.start_background_services()
    gpu = GpuDevice(env, machine.gpu, session)

    session.start()
    runtimes = {}
    end_time = env.now + duration_us
    for index, app in enumerate(apps):
        driver = InputDriver(kernel, mode=driver_mode, seed=seed + 31 * index)
        runtime = AppRuntime(kernel, gpu, driver, duration_us,
                             seed=seed + 97 * index)
        app.build(runtime)
        runtimes[app.name] = runtime
    env.run(until=end_time)
    trace = session.stop()

    cpu_table = CpuUsagePreciseTable.from_trace(trace)
    gpu_table = GpuUtilizationTable.from_trace(trace)
    n = machine.logical_cpus
    per_app_tlp, per_app_gpu, outputs, marks = {}, {}, {}, {}
    all_processes = set()
    for name, runtime in runtimes.items():
        processes = runtime.process_names
        all_processes |= processes
        per_app_tlp[name] = measure_tlp(cpu_table, n, processes=processes)
        per_app_gpu[name] = measure_gpu_utilization(gpu_table,
                                                    processes=processes)
        outputs[name] = dict(runtime.outputs)
        marks[name] = [m for m in trace.marks if m.process in processes]
    return ColocatedRun(
        per_app_tlp=per_app_tlp,
        per_app_gpu=per_app_gpu,
        combined_tlp=measure_tlp(cpu_table, n, processes=all_processes),
        combined_gpu=measure_gpu_utilization(gpu_table,
                                             processes=all_processes),
        system_tlp=measure_tlp(cpu_table, n),
        outputs=outputs,
        marks=marks,
    )
