"""The CPU scheduler: logical CPUs, SMT-aware dispatch, preemption.

Responsibilities:

* maintain the logical-CPU topology for the active machine
  configuration (core scaling enables whole physical cores first, as
  Windows does when restricting the affinity mask);
* dispatch ready threads to idle logical CPUs, preferring CPUs whose
  SMT sibling is idle (spreading across physical cores first);
* time-slice when runnable threads outnumber CPUs (round-robin with a
  Windows-like quantum);
* scale execution speed for SMT sibling contention and turbo clocks;
* emit one context-switch trace record per scheduling interval;
* keep each run's slice histogram, which the energy and memory models
  read once, at run end (:meth:`Scheduler.fold_slices`).
"""

import math
from collections import deque

from repro.os.threads import ThreadState
from repro.os.work import smt_pair_throughput
from repro.sim import MS
from repro.sim.exceptions import Interrupt

#: Windows' foreground quantum is ~2 clock ticks (~31 ms); we use a
#: tighter 15 ms slice, matching the timer-tick granularity the paper's
#: ETW traces resolve.
DEFAULT_QUANTUM = 15 * MS

#: Uncontended threads still re-enter the scheduler at this period so
#: SMT-sibling speed factors are resampled while conditions change.
RESAMPLE_PERIOD = 50 * MS

#: Thread priority levels: latency-critical threads (VR compositor,
#: audio render) are dispatched before normal work when CPUs are scarce.
PRIORITY_NORMAL = 0
PRIORITY_HIGH = 1

#: Sibling states of a slice, sampled at switch-in: every SMT sibling
#: idle, a sibling running another process, a sibling running the same
#: process.  They are the last digit of a slice-histogram index.
SIBLING_IDLE, SIBLING_OTHER_PROCESS, SIBLING_SAME_PROCESS = 0, 1, 2
_SIBLING_STATES = 3


class LogicalCpu:
    """One schedulable hardware thread."""

    __slots__ = ("index", "core", "way", "thread", "work_class")

    def __init__(self, index, core, way):
        self.index = index
        self.core = core
        self.way = way
        self.thread = None
        self.work_class = None

    def __repr__(self):
        return f"<LCPU {self.index} core={self.core} way={self.way}>"


def compute_clock_factor(cpu, busy_cores, n_cores, turbo=True):
    """Turbo-boost speed multiplier for ``busy_cores`` active cores.

    With few busy cores the chip sustains its turbo clock; fully
    loaded it drops toward base — the standard Intel behaviour.

    Module-level (not a scheduler method) because this is the *only*
    computation through which absolute clock values reach the
    simulation; the DSE axis partition
    (:func:`repro.analysis.dse.axes.sim_signature`) evaluates the same
    function to decide, bit-for-bit, whether two machine configs can
    share a simulated trace.
    """
    if not turbo:
        return 1.0
    busy = max(1, busy_cores)
    total = max(1, n_cores)
    span = cpu.turbo_clock_ghz - cpu.base_clock_ghz
    frac = (busy - 1) / max(1, total - 1)
    clock = cpu.turbo_clock_ghz - span * frac
    return clock / cpu.base_clock_ghz


def build_topology(machine):
    """Enumerate the active logical CPUs for a machine configuration.

    Logical CPUs are enumerated core-major (core0-way0, core0-way1,
    core1-way0, ...) so that restricting to N logical CPUs with SMT on
    yields N/2 fully-enabled physical cores — the configuration used in
    the paper's core-scaling experiments.
    """
    lcpus = []
    index = 0
    ways = machine.smt_ways
    for core in range(machine.cpu.physical_cores):
        for way in range(ways):
            lcpus.append(LogicalCpu(index, core, way))
            index += 1
    return lcpus[:machine.logical_cpus]


class Scheduler:
    """SMT-aware round-robin scheduler over the active logical CPUs."""

    #: Dispatch policies: "spread" prefers fully-idle physical cores
    #: (Windows-like, the default); "fill" takes the first idle logical
    #: CPU, packing SMT siblings early — kept as an ablation knob for
    #: the SMT analysis.
    POLICIES = ("spread", "fill")

    def __init__(self, env, machine, session, memory_model=None,
                 energy_model=None, quantum=DEFAULT_QUANTUM, turbo=True,
                 dispatch_policy="spread"):
        if dispatch_policy not in self.POLICIES:
            raise ValueError(f"unknown dispatch policy {dispatch_policy!r}")
        self.env = env
        self.machine = machine
        self.session = session
        self.memory_model = memory_model
        self.energy_model = energy_model
        self.quantum = quantum
        self.turbo = turbo
        self.dispatch_policy = dispatch_policy
        self.lcpus = build_topology(machine)
        #: Sibling tuples indexed by ``lcpu.index`` — precomputed once
        #: so the per-slice hot paths below never rebuild sibling lists.
        self._siblings = self._map_siblings()
        #: Incremental per-core busy counters, kept in sync by
        #: ``_occupy``/``_vacate``: ``_busy_cores`` is the number of
        #: physical cores with at least one busy sibling.
        self._core_busy = [0] * (max((lcpu.core for lcpu in self.lcpus),
                                     default=-1) + 1)
        self._busy_cores = 0
        self._n_cores = len({lcpu.core for lcpu in self.lcpus})
        #: Bit i set == lcpu i is idle.  Together with the per-core bit
        #: masks this makes dispatch an O(1) bit scan instead of a walk
        #: over every logical CPU per scheduling decision.
        self._idle_mask = (1 << len(self.lcpus)) - 1
        self._core_lcpu_mask = [0] * len(self._core_busy)
        for lcpu in self.lcpus:
            self._core_lcpu_mask[lcpu.core] |= 1 << lcpu.index
        #: Union of the lcpu bits of fully-idle physical cores — the
        #: candidate set of the "spread" policy.
        self._free_core_lcpu_mask = self._idle_mask
        self._ready = deque()
        #: Total nominal work retired, per process name (for throughput
        #: metrics like transcode rate sanity checks).
        self.retired_work = {}
        #: Turbo clock factor is a pure function of the busy-core count;
        #: precomputing the table turns the per-slice call into a list
        #: index.  Index 0 (no busy cores) shares the single-core value
        #: — ``max(1, busy)`` in the formula.
        self._clock_table = [self._compute_clock_factor(busy)
                             for busy in range(self._n_cores + 1)]
        #: ``smt_pair_throughput`` per work class, filled on first use.
        self._pair_cache = {}
        #: The run's slice histogram: ``(process name, work class) ->``
        #: a list of wall µs indexed by ``3 * busy cores at switch-out
        #: + sibling state at switch-in``.  A burst fetches its list
        #: once; :meth:`fold_slices` hands it to the side models.
        self._slices = {}

    def _map_siblings(self):
        by_core = {}
        for lcpu in self.lcpus:
            by_core.setdefault(lcpu.core, []).append(lcpu)
        return [tuple(m for m in by_core[lcpu.core] if m is not lcpu)
                for lcpu in self.lcpus]

    def _occupy(self, lcpu, thread):
        lcpu.thread = thread
        core = lcpu.core
        self._core_busy[core] += 1
        if self._core_busy[core] == 1:
            self._busy_cores += 1
            self._free_core_lcpu_mask &= ~self._core_lcpu_mask[core]
        self._idle_mask &= ~(1 << lcpu.index)
        # Occupancy edge for streaming consumers; the guard keeps the
        # non-streaming hot path free of the fan-out call.
        if self.session.subscribers:
            self.session.emit_cpu_busy(thread.process.name, lcpu.index)

    def _vacate(self, lcpu):
        if self.session.subscribers:
            self.session.emit_cpu_idle(lcpu.thread.process.name, lcpu.index)
        lcpu.thread = None
        lcpu.work_class = None
        core = lcpu.core
        self._core_busy[core] -= 1
        if self._core_busy[core] == 0:
            self._busy_cores -= 1
            self._free_core_lcpu_mask |= self._core_lcpu_mask[core]
        self._idle_mask |= 1 << lcpu.index

    def _compute_clock_factor(self, busy_cores):
        """Turbo-boost speed multiplier for ``busy_cores`` active cores."""
        return compute_clock_factor(self.machine.cpu, busy_cores,
                                    self._n_cores, turbo=self.turbo)

    # -- dispatch -------------------------------------------------------

    def _pick_idle_lcpu(self, thread=None):
        """Idle LCPU according to the dispatch policy.

        A thread's previously-used CPU is preferred among equivalent
        choices (Windows' "ideal processor" heuristic: warm caches),
        but cache warmth never outranks an idle physical core under
        the spread policy.

        The linear walk over ``self.lcpus`` is replaced by bit scans of
        the incrementally-maintained idle masks: ``mask & -mask``
        isolates the lowest set bit, which is exactly the first idle
        lcpu in enumeration order — the same choice the walk made.
        """
        idle = self._idle_mask
        if not idle:
            return None
        warm = None
        if thread is not None:
            last = getattr(thread, "last_cpu", None)
            if last is not None and last < len(self.lcpus) and (idle >> last) & 1:
                candidate = self.lcpus[last]
                if (self.dispatch_policy == "fill"
                        or self._core_busy[candidate.core] == 0):
                    return candidate
                warm = candidate
        if self.dispatch_policy == "fill":
            return self.lcpus[(idle & -idle).bit_length() - 1]
        free = idle & self._free_core_lcpu_mask
        if free:
            return self.lcpus[(free & -free).bit_length() - 1]
        if warm is not None:
            return warm
        return self.lcpus[(idle & -idle).bit_length() - 1]

    def _dispatch(self):
        while self._ready:
            thread, grant = self._ready[0]
            lcpu = self._pick_idle_lcpu(thread)
            if lcpu is None:
                return
            self._ready.popleft()
            self._occupy(lcpu, thread)
            thread.last_cpu = lcpu.index
            grant.succeed(lcpu)

    def _enqueue(self, thread, grant):
        """Add to the ready queue honouring thread priority.

        ``Thread.priority`` above NORMAL jumps ahead of every queued
        normal-priority thread (Windows-style strict priority classes
        without starvation handling — high-priority work here is tiny:
        compositors, audio).
        """
        if thread.priority > PRIORITY_NORMAL:
            index = 0
            for index, (queued, _grant) in enumerate(self._ready):
                if queued.priority < thread.priority:
                    self._ready.insert(index, (thread, grant))
                    return
            self._ready.append((thread, grant))
        else:
            self._ready.append((thread, grant))

    def run_burst(self, thread, amount, work_class):
        """Generator: run ``amount`` µs of nominal work for ``thread``.

        Delegated to by :meth:`Thread._run`; yields simulation events.
        Handles enqueueing, dispatch, SMT speed scaling, preemption and
        trace emission.

        **Epoch-partitioned execution**: a thread granted a CPU while
        the environment is *quiescent* — no other event queued at the
        current instant and no callback cascade in flight
        (``Environment._cb_pending`` is 0) — takes
        the CPU synchronously instead of round-tripping a grant event
        through the global queue.  Between such grants the thread
        advances on its own virtual clock (its slice timeouts), merging
        back into the globally ordered event stream — one event per
        step — at every epoch boundary: a contended ready queue, a
        same-instant event, or a callback fan-out.  Because the fast path
        only triggers when nothing else could have run before the
        grant event would have been processed — and event removal
        preserves the relative (time, priority, eid) order of every
        other event — the schedule, the emitted trace and every metric
        are bit-identical to an event-per-step loop; the golden suite
        pins the result across all 150 grid points.
        """
        env = self.env
        session = self.session
        remaining = int(amount)
        # Locals for the per-slice loop: attribute loads repeated tens
        # of thousands of times per run are bound once.  Only values
        # that never change mid-run may be hoisted — mutable scheduler
        # state (masks, ready queue) is re-read after every yield.
        ready = self._ready
        siblings = self._siblings
        clock_table = self._clock_table
        pair_cache = self._pair_cache
        retired = self.retired_work
        quantum = self.quantum
        ceil = math.ceil
        process = thread.process
        process_name = process.name
        slices = self._slices.get((process_name, work_class))
        if slices is None:
            slices = [0] * (_SIBLING_STATES * len(clock_table))
            self._slices[process_name, work_class] = slices
        state_ready = ThreadState.READY
        state_running = ThreadState.RUNNING
        queue = env._queue
        while remaining > 0:
            thread.state = state_ready
            ready_time = env._now
            # Quiescent: nothing else can run at this instant (no
            # queued event at ``now``, no callback cascade in flight).
            if (not ready and self._idle_mask
                    and env._cb_pending == 0
                    and (not queue or queue[0][0] > ready_time)):
                # Synchronous grant: same CPU choice and occupancy
                # bookkeeping as _dispatch, minus the event round-trip.
                lcpu = self._pick_idle_lcpu(thread)
                self._occupy(lcpu, thread)
                thread.last_cpu = lcpu.index
            else:
                grant = env.event()
                self._enqueue(thread, grant)
                self._dispatch()
                try:
                    lcpu = yield grant
                except Interrupt:
                    # Killed while waiting for a CPU: leave the queue (or
                    # free the CPU that was granted in the same instant).
                    # In place (not a rebind): every in-flight run_burst
                    # frame holds this deque as a local.
                    kept = [entry for entry in self._ready
                            if entry[1] is not grant]
                    ready.clear()
                    ready.extend(kept)
                    if grant.triggered:
                        self._vacate(grant.value)
                        self._dispatch()
                    raise
            thread.state = state_running
            lcpu.work_class = work_class
            # One fused pass over the SMT siblings feeds both the speed
            # factor (busy-sibling count) and the sibling state.
            busy_siblings = 0
            sibling = SIBLING_IDLE
            for s in siblings[lcpu.index]:
                other = s.thread
                if other is not None:
                    busy_siblings += 1
                    if other.process is process:
                        sibling = SIBLING_SAME_PROCESS
                    elif sibling == SIBLING_IDLE:
                        sibling = SIBLING_OTHER_PROCESS
            speed = clock_table[self._busy_cores]
            if busy_siblings:
                pair = pair_cache.get(work_class)
                if pair is None:
                    pair = smt_pair_throughput(self.machine.cpu, work_class)
                    pair_cache[work_class] = pair
                speed *= pair / (1 + busy_siblings)
            cap = quantum if ready else RESAMPLE_PERIOD
            wall = ceil(remaining / speed)
            if wall < 1:
                wall = 1
            elif wall > cap:
                wall = cap
            switch_in = env._now
            interrupted = None
            # ``env.advance(wall)`` inlined — the three-way equivalence
            # test documented there, minus the call overhead.
            target = switch_in + wall
            horizon = env._horizon
            if (env._cb_pending == 0
                    and (horizon is None or target <= horizon)
                    and (not queue or queue[0][0] > target)):
                env._now = target
            else:
                try:
                    yield env.timeout(wall)
                except Interrupt as exc:
                    # Killed mid-slice: account for the time actually
                    # spent on the CPU, then unwind.
                    interrupted = exc
                    wall = env._now - switch_in
            if wall > 0:
                done = min(remaining, max(1, math.floor(wall * speed)))
                remaining -= done
                retired[process_name] = retired.get(process_name, 0) + done
                session.emit_cswitch(
                    process_name, process.pid, thread.tid,
                    thread.name, lcpu.index, ready_time, switch_in, env._now)
                # Busy cores at switch-out: this CPU still counts.
                slices[_SIBLING_STATES * self._busy_cores + sibling] += wall
            self._vacate(lcpu)
            if ready:
                self._dispatch()
            if interrupted is not None:
                raise interrupted

    def fold_slices(self):
        """Feed the run's slice histogram to the side models.

        One ``record_slice`` call per non-empty bucket, with the
        arguments a per-slice call would have passed: the memory model
        gets the sibling flags sampled at switch-in, the energy model
        the switch-out clock factor ``clock_table[busy cores]``.  The
        buckets are zeroed in place (bursts still in flight hold
        them), so a second fold adds only what ran since the first.
        """
        memory_model = self.memory_model
        energy_model = self.energy_model
        clock_table = self._clock_table
        for (process_name, work_class), buckets in self._slices.items():
            for index, wall_us in enumerate(buckets):
                if not wall_us:
                    continue
                buckets[index] = 0
                busy_cores, sibling = divmod(index, _SIBLING_STATES)
                if memory_model is not None:
                    memory_model.record_slice(
                        process_name, work_class, wall_us,
                        sibling != SIBLING_IDLE,
                        sibling == SIBLING_SAME_PROCESS)
                if energy_model is not None:
                    energy_model.record_slice(
                        process_name, work_class, wall_us,
                        clock_table[busy_cores])
