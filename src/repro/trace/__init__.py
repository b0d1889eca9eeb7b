"""Event-tracing substrate — the reproduction's ETW/WPA substitute.

Pipeline (mirrors the paper's Fig. 1)::

    TraceSession.start()            # UIforETW "start trace"
    ... simulated workload runs ...
    trace = session.stop()          # save .etl
    cpu  = CpuUsagePreciseTable.from_trace(trace)   # WPA extraction
    gpu  = GpuUtilizationTable.from_trace(trace)
    export_csv(cpu, "cpu.csv")      # wpaexporter
    ... repro.metrics consumes the tables ...
"""

from repro.trace.columns import (
    CswitchColumns,
    FrameColumns,
    GpuPacketColumns,
    MarkColumns,
    NameTable,
)
from repro.trace.etl import EtlTrace
from repro.trace.records import (
    ContextSwitchRecord,
    FramePresentRecord,
    GpuPacketRecord,
    MarkRecord,
)
from repro.trace.session import NullSession, TraceSession
from repro.trace.wpa import (
    CpuUsagePreciseTable,
    GpuUtilizationTable,
    export_csv,
    load_cpu_csv,
    load_gpu_csv,
)

__all__ = [
    "ContextSwitchRecord",
    "CpuUsagePreciseTable",
    "CswitchColumns",
    "EtlTrace",
    "FrameColumns",
    "GpuPacketColumns",
    "MarkColumns",
    "NameTable",
    "FramePresentRecord",
    "GpuPacketRecord",
    "GpuUtilizationTable",
    "MarkRecord",
    "NullSession",
    "TraceSession",
    "export_csv",
    "load_cpu_csv",
    "load_gpu_csv",
]
