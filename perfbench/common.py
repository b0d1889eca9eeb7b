"""Helpers shared by the workloads: paths, processes, memory, counting."""

import hashlib
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch and output directory of the benchmark, inside the checkout.
WORK = ROOT / ".perfbench"

clock = time.perf_counter


def child_env():
    """Environment for child Python processes: ``src`` and the checkout
    root (for ``perfbench`` itself) on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    return env


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def sha256(*blobs):
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob if isinstance(blob, bytes) else blob.encode())
    return digest.hexdigest()


# -- memory -------------------------------------------------------------------

def reset_peak_rss():
    """Reset this process's VmHWM (Linux ``clear_refs`` 5); False when
    the kernel refuses, in which case peaks are process-lifetime."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mib(pid="self"):
    """VmHWM of a process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        match = re.search(r"^VmHWM:\s+(\d+) kB", handle.read(), re.M)
    return int(match.group(1)) / 1024.0


# -- machine speed ------------------------------------------------------------

#: Median time of :func:`reference_s`'s loop on the machine the bounds in
#: ``BENCHMARK.json`` were set on.  A time multiplied by ``REFERENCE_S``
#: over the reference measured around it reads in seconds at that speed.
REFERENCE_S = 0.010


def reference_s(rounds=7):
    """Median seconds of a fixed pure-Python loop on this process's CPU:
    how fast the shared machine runs interpreter-bound code right now."""
    samples = []
    for _ in range(rounds):
        start = clock()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(clock() - start)
    samples.sort()
    return samples[len(samples) // 2]


# -- set-up -------------------------------------------------------------------

def time_imports(modules, repeats):
    """Seconds from spawning a fresh interpreter until ``modules`` are
    imported, ``repeats`` times."""
    code = ("import " + ", ".join(modules) + "\n"
            "print('ready', flush=True)\n")
    samples = []
    for _ in range(repeats):
        start = clock()
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE, env=child_env(),
                                cwd=ROOT)
        line = proc.stdout.readline()
        samples.append(clock() - start)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"importing {modules} failed")
    return samples


# -- trace records ------------------------------------------------------------

@contextmanager
def count_records():
    """Count the trace records every stopped session captured.

    ``TraceSession.stop`` is wrapped for the duration of the block; the
    cost is one length read per run, not per record.  Yields a one-item
    list holding the running total.
    """
    from repro.trace.session import TraceSession

    total = [0]
    original = TraceSession.stop

    def stop(session):
        total[0] += (len(session._cswitches) + len(session._gpu_packets)
                     + len(session._frames) + len(session._marks))
        return original(session)

    TraceSession.stop = stop
    try:
        yield total
    finally:
        TraceSession.stop = original


def simulated_records(specs):
    """Trace records the given run specs emit, counted by re-running
    them with records retained (streaming runs emit the same events)."""
    from dataclasses import replace

    from repro.harness.executor import execute_spec

    with count_records() as total:
        for spec in specs:
            execute_spec(replace(spec, kwargs={**spec.kwargs,
                                               "streaming": False}))
    return total[0]
