"""Deterministic fault injection — mutation testing for the trace layer.

Each injector takes a well-formed :class:`~repro.trace.etl.EtlTrace`
and returns a *new* trace with one seeded, reproducible corruption of
the kind a real tracing pipeline can suffer: a lost switch-out event, a
skewed clock, a replayed DMA packet, a truncated capture file, edges
paired across the wrong threads.  Every fault is registered with the
invariant it must trip (``violates``); the property suite asserts the
:class:`~repro.validate.invariants.TraceValidator` names that invariant
for every seed — zero silent mutations.

Injectors work on the trace's raw row tuples (``cswitch_rows`` /
``gpu_rows``), and the mutated rows go back into fresh column stores
(:mod:`repro.trace.columns`), which append without per-record
validation — exactly like the simulator's hot path, and the only way
to represent corruptions (e.g. ``switch_out < switch_in``) that the
dataclass constructors would refuse to build.
"""

import random
import time
from dataclasses import dataclass

from repro.trace.columns import CswitchColumns, GpuPacketColumns
from repro.trace.etl import EtlTrace


class FaultPreconditionError(ValueError):
    """The trace is too small/simple for this fault to be injectable."""


class InjectedCrash(RuntimeError):
    """Raised by the ``worker-crash`` execution fault mid-simulation."""


@dataclass(frozen=True)
class FaultSpec:
    """A registered fault class."""

    name: str
    violates: str       # invariant the TraceValidator must name
    description: str
    inject: object      # (cswitch_rows, gpu_rows, start, stop, rng) ->
                        #   (cswitch_rows, gpu_rows, start, stop)


def _rebuild(trace, cswitches, gpu, start, stop):
    """A trace with mutated CPU/GPU rows (frames/marks kept)."""
    return EtlTrace(start, stop,
                    cswitches=CswitchColumns.from_rows(cswitches),
                    gpu_packets=GpuPacketColumns.from_rows(gpu),
                    frames=trace.frames, marks=trace.marks,
                    machine_name=trace.machine_name)


def _require(condition, message):
    if not condition:
        raise FaultPreconditionError(message)


def _dropped_switch_out(cswitches, gpu, start, stop, rng):
    """Lose a switch-out event: the slice silently absorbs the next
    slice on its CPU, double-booking the logical CPU."""
    by_cpu = {}
    for index, row in enumerate(cswitches):
        by_cpu.setdefault(row[4], []).append((row[6], row[7], index))
    pairs = []
    for slices in by_cpu.values():
        slices.sort()
        for k in range(len(slices) - 1):
            # The swallowed successor needs positive length, or the
            # extended slice merely touches it without overlapping.
            if slices[k + 1][1] > slices[k + 1][0]:
                pairs.append((slices[k][2], slices[k + 1][2]))
    _require(pairs, "need consecutive CPU slices with a positive-length "
                    "successor")
    i, j = pairs[rng.randrange(len(pairs))]
    nxt = cswitches[j]
    row = list(cswitches[i])
    row[7] = max(nxt[7], row[7])  # run straight through the next slice
    mutated = list(cswitches)
    mutated[i] = tuple(row)
    return mutated, gpu, start, stop


def _timestamp_skew(cswitches, gpu, start, stop, rng):
    """Skew one slice's clock forward so the thread overlaps its own
    next scheduling slice — a thread running in two places at once."""
    by_thread = {}
    for index, row in enumerate(cswitches):
        by_thread.setdefault((row[1], row[2]), []).append(
            (row[6], row[7], index))
    pairs = []
    for slices in by_thread.values():
        slices.sort()
        for k in range(len(slices) - 1):
            # A strictly later switch-in guarantees the stretched slice
            # still sorts first, so the overlap cannot hide.
            if slices[k + 1][0] > slices[k][0]:
                pairs.append((slices[k][2], slices[k + 1][2]))
    _require(pairs, "need a thread with two slices at distinct switch-ins")
    i, j = pairs[rng.randrange(len(pairs))]
    nxt = cswitches[j]
    row = list(cswitches[i])
    # Stretch past the next slice's switch-in by a positive skew.
    row[7] = nxt[6] + max(1, (nxt[7] - nxt[6]) // 2)
    row[7] = max(row[7], row[6] + 1)
    mutated = list(cswitches)
    mutated[i] = tuple(row)
    return mutated, gpu, start, stop


def _duplicated_gpu_packet(cswitches, gpu, start, stop, rng):
    """Replay one GPU packet verbatim — two identical packets executing
    on the same engine at the same time."""
    candidates = [i for i, row in enumerate(gpu) if row[6] > row[5]]
    _require(candidates, "need a GPU packet with positive running time")
    index = candidates[rng.randrange(len(candidates))]
    mutated = list(gpu)
    mutated.insert(index, gpu[index])
    return cswitches, mutated, start, stop


def _truncated_trace(cswitches, gpu, start, stop, rng):
    """Truncate the capture: the header's stop time shrinks but late
    records survive, landing outside the advertised window."""
    last = max(
        [row[7] for row in cswitches] + [row[6] for row in gpu],
        default=None)
    _require(last is not None and last > start,
             "need at least one record with positive extent")
    # A cut strictly inside (start, last) strands at least one record.
    cut = start + rng.randrange(max(1, last - start - 1)) + 1
    cut = min(cut, last - 1) if last - 1 > start else last - 1
    _require(cut > start, "trace too short to truncate")
    return cswitches, gpu, start, cut


def _cross_thread_edge_swap(cswitches, gpu, start, stop, rng):
    """Pair switch-out edges with the wrong threads: swapping the outs
    of two disjoint slices leaves one slice ending before it began."""
    ordered = sorted(range(len(cswitches)),
                     key=lambda i: (cswitches[i][6], cswitches[i][7]))
    pairs = []
    for pos, i in enumerate(ordered):
        for j in ordered[pos + 1:]:
            a, b = cswitches[i], cswitches[j]
            if a[2] != b[2] and a[7] < b[6]:
                pairs.append((i, j))
    _require(pairs, "need two disjoint slices of different threads")
    i, j = pairs[rng.randrange(len(pairs))]
    a, b = list(cswitches[i]), list(cswitches[j])
    a[7], b[7] = b[7], a[7]   # b now ends before it begins
    b[5] = min(b[5], b[7])    # keep ready<=out so only the swap shows
    mutated = list(cswitches)
    mutated[i], mutated[j] = tuple(a), tuple(b)
    return mutated, gpu, start, stop


#: Registry: fault name -> :class:`FaultSpec`, in taxonomy order.
FAULTS = {
    spec.name: spec for spec in (
        FaultSpec(
            "dropped-switch-out", "cpu-occupancy",
            "a switch-out event is lost; the slice swallows its "
            "successor on the same CPU",
            _dropped_switch_out),
        FaultSpec(
            "timestamp-skew", "thread-monotonic",
            "one slice's clock drifts forward into the thread's next "
            "slice",
            _timestamp_skew),
        FaultSpec(
            "duplicated-gpu-packet", "gpu-engine-exclusive",
            "a GPU packet is replayed on its engine",
            _duplicated_gpu_packet),
        FaultSpec(
            "truncated-trace", "window-containment",
            "the capture stops early; records outlive the header window",
            _truncated_trace),
        FaultSpec(
            "cross-thread-edge-swap", "balanced-switch-edges",
            "switch-out edges are paired with the wrong threads",
            _cross_thread_edge_swap),
    )
}


# -- execution faults ----------------------------------------------------
#
# Trace faults above corrupt *data*; execution faults corrupt the
# *worker process* running a simulation, which is what the supervised
# executor (:mod:`repro.harness.supervisor`) must survive.  They are
# spelled as ``fault`` names on a run spec, alongside the trace faults:
#
# ``worker-crash``          raise :class:`InjectedCrash` mid-simulation
# ``worker-hang``           block on wall-clock sleep mid-simulation
#                           (only a watchdog SIGTERM ends the run)
# ``flaky-crash:<path>``    crash once, then run clean — the marker
# ``flaky-hang:<path>``     file at ``<path>`` records the first strike,
#                           so a retry of the same spec succeeds
#
# The flaky variants are what exercise the retry loop end to end: the
# marker file is the only cross-attempt state, created atomically with
# ``open(path, "x")`` so exactly one attempt faults even if two race.

EXEC_FAULTS = ("worker-crash", "worker-hang")
_FLAKY_PREFIXES = ("flaky-crash:", "flaky-hang:")


def is_exec_fault(fault):
    """True if ``fault`` names an execution fault (not a trace fault)."""
    return isinstance(fault, str) and (
        fault in EXEC_FAULTS
        or fault.startswith(_FLAKY_PREFIXES))


def _strike(fault):
    """Whether this attempt should fault, consuming flaky markers."""
    if fault in EXEC_FAULTS:
        return True
    prefix, _, path = fault.partition(":")
    try:
        with open(path, "x"):
            return True       # first strike: marker created, fault fires
    except FileExistsError:
        return False          # already struck once: run clean


def install_exec_fault(env, duration_us, fault):
    """Arm ``fault`` on a simulation environment.

    Schedules the fault at half the measurement window via
    ``env.timeout`` — deep inside the run, so a crash aborts a
    half-finished simulation and a hang leaves the worker genuinely
    wedged mid-simulation.  Raising from a timeout callback propagates
    out of ``env.run`` (see :mod:`repro.sim.environment`), which is
    exactly how a real simulation bug would surface.
    """
    if not is_exec_fault(fault):
        raise ValueError(f"not an execution fault: {fault!r}")
    if not _strike(fault):
        return

    def detonate(_event):
        if "hang" in fault.partition(":")[0]:
            while True:       # wedged until the watchdog SIGTERMs us
                time.sleep(0.05)
        raise InjectedCrash(f"injected execution fault: {fault}")

    env.timeout(max(1, duration_us // 2)).callbacks.append(detonate)


def inject_fault(trace, fault, seed=0):
    """Return a copy of ``trace`` corrupted by ``fault`` (registry name
    or :class:`FaultSpec`), deterministically for a given ``seed``.

    Raises :class:`FaultPreconditionError` when the trace lacks the
    structure the fault needs (e.g. a single-slice trace cannot lose a
    switch-out boundary meaningfully).
    """
    spec = FAULTS[fault] if isinstance(fault, str) else fault
    rng = random.Random(seed)
    cswitches, gpu, start, stop = spec.inject(
        trace.cswitch_rows(), trace.gpu_rows(), trace.start_time,
        trace.stop_time, rng)
    return _rebuild(trace, cswitches, gpu, start, stop)
