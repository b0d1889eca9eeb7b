#!/usr/bin/env python
"""Drive the Fig. 1 measurement pipeline by hand, stage by stage.

Everything :func:`repro.harness.run_app` does, unrolled: boot the OS,
attach a trace session (ETW substitute), run a testbench, save the
trace (.etl substitute), extract the WPA tables, export CSVs
(wpaexporter substitute), and post-process them into TLP and GPU
utilization — including the paper's cross-validation of the GPU data.
"""

import tempfile
from pathlib import Path

from repro.apps import create_app
from repro.apps.base import AppRuntime
from repro.automation import InputDriver
from repro.gpu import GpuDevice
from repro.hardware import paper_machine
from repro.metrics import cross_validate, measure_gpu_utilization, measure_tlp
from repro.os import Kernel
from repro.sim import SECOND, Environment
from repro.trace import (
    CpuUsagePreciseTable,
    EtlTrace,
    GpuUtilizationTable,
    TraceSession,
    export_csv,
    load_cpu_csv,
    load_gpu_csv,
)


def main():
    machine = paper_machine()
    env = Environment()
    session = TraceSession(env, machine_name=machine.cpu.name)
    kernel = Kernel(env, machine, session=session, seed=42)
    kernel.start_background_services()
    gpu = GpuDevice(env, machine.gpu, session)
    driver = InputDriver(kernel, seed=42)
    runtime = AppRuntime(kernel, gpu, driver, 30 * SECOND, seed=42)

    print("1. start trace (UIforETW)")
    session.start()

    print("2. start testbench: WinX HD Video Converter")
    create_app("winx").build(runtime)
    env.run(until=runtime.end_time)

    print("3. stop testbench, save trace (.etl)")
    trace = session.stop()
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        workdir = Path(tmp)
        etl = workdir / "capture.etl.jsonl"
        trace.save(etl)
        print(f"   {len(trace.cswitches)} context switches, "
              f"{len(trace.gpu_packets)} GPU packets -> {etl}")

        print("4. extract WPA tables and export CSVs (wpaexporter)")
        loaded = EtlTrace.load(etl)
        cpu_table = CpuUsagePreciseTable.from_trace(loaded)
        gpu_table = GpuUtilizationTable.from_trace(loaded)
        cpu_csv, gpu_csv = workdir / "cpu.csv", workdir / "gpu.csv"
        export_csv(cpu_table, cpu_csv)
        export_csv(gpu_table, gpu_csv)
        print(f"   -> {cpu_csv}\n   -> {gpu_csv}")

        print("5. custom scripts: compute TLP and GPU utilization from CSV")
        apps = runtime.process_names
        tlp = measure_tlp(load_cpu_csv(cpu_csv), machine.logical_cpus,
                          processes=apps)
        util = measure_gpu_utilization(load_gpu_csv(gpu_csv),
                                       processes=apps)
        print(f"   application TLP      = {tlp.tlp:.2f} "
              f"(max instantaneous {tlp.max_instantaneous})")
        print(f"   GPU utilization      = {util.utilization_pct:.2f}%")

        print("6. cross-validate GPU data against device counters (§III-C)")
        delta = cross_validate(gpu_table, gpu)
        print(f"   |trace - device| = {delta:.3f} percentage points — OK")

if __name__ == "__main__":
    main()
