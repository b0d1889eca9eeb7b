"""Simulated OS: processes, threads, SMT-aware scheduler, sync, memory.

The Windows-10 substitute of the reproduction.  The scheduler emits
context-switch records into a :mod:`repro.trace` session — the same
records the paper extracts from ETW's CPU Usage (Precise) analysis.
"""

from repro.os.energy import EnergyModel, EnergyReport
from repro.os.kernel import Kernel
from repro.os.memmodel import MemoryModel, ProcessCounters
from repro.os.scheduler import (
    DEFAULT_QUANTUM,
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    LogicalCpu,
    RESAMPLE_PERIOD,
    Scheduler,
    build_topology,
)
from repro.os.sync import CountdownLatch, Lock, MessageQueue, Semaphore
from repro.os.threads import OsProcess, Thread, ThreadContext, ThreadState
from repro.os.work import DEFAULT_SMT_THROUGHPUT, WorkClass, smt_pair_throughput

__all__ = [
    "EnergyModel",
    "EnergyReport",
    "CountdownLatch",
    "DEFAULT_QUANTUM",
    "DEFAULT_SMT_THROUGHPUT",
    "Kernel",
    "Lock",
    "LogicalCpu",
    "MemoryModel",
    "MessageQueue",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "OsProcess",
    "ProcessCounters",
    "RESAMPLE_PERIOD",
    "Scheduler",
    "Semaphore",
    "Thread",
    "ThreadContext",
    "ThreadState",
    "build_topology",
    "smt_pair_throughput",
    "WorkClass",
]
