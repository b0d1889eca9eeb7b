"""Analytic cache/memory contention counters — the VTune substitute.

The paper's §V-C.2 backs its SMT analysis with Intel VTune statistics:
enabling SMT *reduces* LLC misses and main-memory wait time (siblings
prefetch shared data for one another) but *raises* the fraction of time
a core is stalled on the L1 cache without missing in it, from 5.3% to
10.7% (functional-unit / load-store contention within the core).

We reproduce those counters from the scheduler's slices: each
scheduling interval has a work class and a sibling state sampled at
switch-in (was an SMT sibling running, and did it belong to the same
process).  The scheduler sums slices into a histogram while the run
simulates and folds it in at run end
(:meth:`~repro.os.scheduler.Scheduler.fold_slices`): one
:meth:`MemoryModel.record_slice` call per (process, work class,
busy cores, sibling state) bucket, not one per slice.  The integer
counters are exact either way; the float LLC and L1 sums depend on the
order of the additions only in their last bits.
"""

from dataclasses import dataclass, field

from repro.os.work import WorkClass

#: Baseline LLC misses per millisecond of work, per work class.
_LLC_MISS_RATE_PER_MS = {
    WorkClass.FU_BOUND: 45.0,
    WorkClass.MEMORY_BOUND: 220.0,
    WorkClass.BALANCED: 90.0,
    WorkClass.UI: 30.0,
}

#: Fraction of LLC misses removed when the SMT sibling runs the same
#: process (sibling threads bring shared data on-chip for each other).
_SHARED_DATA_MISS_SAVINGS = 0.32

#: Fraction of core time stalled on the L1 (hit-bound stalls) when a
#: thread runs alone vs. co-resident with a busy sibling — the paper's
#: 5.3% -> 10.7% observation for HandBrake.
_L1_STALL_ALONE = 0.053
_L1_STALL_CONTENDED = 0.107

#: Main-memory wait per LLC miss, microseconds.
_MEM_WAIT_PER_MISS_US = 0.09


@dataclass
class ProcessCounters:
    """Accumulated memory-hierarchy statistics for one process."""

    work_us: int = 0
    contended_us: int = 0
    llc_misses: float = 0.0
    l1_stall_us: float = 0.0
    by_class: dict = field(default_factory=dict)

    @property
    def l1_stall_pct(self):
        """Percent of run time stalled on the L1 without missing."""
        if self.work_us == 0:
            return 0.0
        return 100.0 * self.l1_stall_us / self.work_us

    @property
    def mem_wait_us(self):
        """Estimated time waiting on main memory."""
        return self.llc_misses * _MEM_WAIT_PER_MISS_US

    @property
    def llc_misses_per_ms(self):
        if self.work_us == 0:
            return 0.0
        return self.llc_misses / (self.work_us / 1000.0)


class MemoryModel:
    """Aggregates per-process counters from scheduler slices."""

    def __init__(self):
        self._counters = {}

    def record_slice(self, process_name, work_class, wall_us,
                     sibling_busy, sibling_same_process):
        """Add ``wall_us`` of ``process_name``'s CPU time with the given
        sibling flags.

        The scheduler calls this once per bucket of its slice histogram,
        at run end, with the bucket's total wall µs; every counter is
        linear in ``wall_us``, so a bucket stands for its slices.
        """
        counters = self._counters.get(process_name)
        if counters is None:
            counters = self._counters[process_name] = ProcessCounters()
        counters.work_us += wall_us
        wall_ms = wall_us / 1000.0
        misses = _LLC_MISS_RATE_PER_MS[work_class] * wall_ms
        if sibling_busy and sibling_same_process:
            misses *= 1.0 - _SHARED_DATA_MISS_SAVINGS
        counters.llc_misses += misses
        stall = _L1_STALL_CONTENDED if sibling_busy else _L1_STALL_ALONE
        counters.l1_stall_us += stall * wall_us
        if sibling_busy:
            counters.contended_us += wall_us
        counters.by_class[work_class] = (
            counters.by_class.get(work_class, 0) + wall_us)

    def counters(self, process_name):
        """Counters for ``process_name`` (empty counters if unseen)."""
        return self._counters.get(process_name, ProcessCounters())

    def process_names(self):
        return sorted(self._counters)
