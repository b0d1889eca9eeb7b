"""Streaming (in-simulation) metrics — the per-run hot path.

The post-hoc pipeline records every context switch and GPU packet,
builds WPA tables, then sweeps sorted edge events (Fig. 1 of the
paper).  For long measurement runs that means memory proportional to
trace length just to compute a handful of aggregate numbers.  This
module computes the same numbers *while the simulation runs*, in O(1)
memory, and is asserted bit-identical to the post-hoc path.

Exactness rests on three observations:

1. **Occupancy edges arrive in simulation-time order.**  The scheduler
   and GPU engines report busy/idle transitions as they happen
   (:meth:`TraceSession.emit_cpu_busy` and friends), unlike trace
   records, which are emitted at *switch-out* and therefore arrive
   sorted by interval end.  A time-ordered edge stream can be folded
   through the exact :func:`~repro.metrics.intervals.fused_sweep` loop
   body without any sorting.

2. **Edge order within one timestamp is irrelevant.**  The fused sweep
   only accumulates spans between *distinct* times; every edge at an
   equal timestamp contributes zero measure and only shifts the level.
   So the arrival order of simultaneous edges (which differs from the
   post-hoc sort's ``(time, -1 first)`` tie-break) cannot change the
   profile, union length or peak.

3. **Post-hoc traces drop intervals still in flight at stop.**  A
   slice or packet that has not ended when the session stops never
   emits a record.  :class:`OnlineSweep` mirrors that by folding an
   interval only once it *closes* (the committed-edge queue below);
   edges of still-open intervals are skipped when the window result is
   taken — and kept, so an interval straddling two recording windows
   is counted in the later window exactly as the post-hoc path would.
"""

from collections import deque
from dataclasses import dataclass

from repro.metrics.gpu import gpu_result_from_totals
from repro.metrics.intervals import FusedSweep
from repro.metrics.tlp import tlp_result_from_profile


class OnlineSweep:
    """Fused sweep over a live, time-ordered stream of busy intervals.

    ``open(key, time)`` / ``close(key, time)`` report that the resource
    identified by ``key`` (a logical CPU index, a GPU engine name)
    became busy / idle.  Edges are queued as ``[time, delta,
    committed]`` entries; an open edge is committed only when its close
    arrives, and only the committed prefix of the queue is folded into
    the running profile.  The queue length is therefore bounded by the
    edges inside the longest still-open interval — constant for any
    scheduler with a preemption quantum — never by trace length.

    ``begin(w0)`` starts a measurement window; ``result(stop)`` folds
    the committed backlog (skipping open intervals, which post-hoc
    traces also drop) and returns the same :class:`FusedSweep` triple
    ``fused_sweep`` would produce from the recorded interval set.
    Pre-window history needs no special casing: edge times clamp to
    ``w0`` exactly like the post-hoc sweep clamps record times, so the
    pre-window portion of a straddling interval contributes zero
    measure while its level bookkeeping stays consistent.
    """

    def __init__(self):
        self._pending = deque()
        self._open = {}
        self._level = 0
        self.begin(0)

    def begin(self, window_start):
        """Reset accumulators for a window starting at ``window_start``.

        ``_level`` and the edge queue deliberately survive: they
        describe intervals still in flight, whose pre-window edges
        clamp to zero measure when they eventually fold.
        """
        self._w0 = window_start
        self._prev = window_start
        self._profile = {}
        self._covered = 0
        self._peak = 0

    def open(self, key, time):
        """Resource ``key`` became busy at ``time``."""
        if key in self._open:
            # Defensive: a missed idle edge would pin the queue open
            # forever; treat re-open as close-then-open at this instant.
            self.close(key, time)
        entry = [time, 1, False]
        self._open[key] = entry
        self._pending.append(entry)

    def close(self, key, time):
        """Resource ``key`` became idle at ``time``.

        Returns the matching open time, or ``None`` when the open edge
        was filtered out (callers close unconditionally; opens are
        gated on the measured process set).
        """
        entry = self._open.pop(key, None)
        if entry is None:
            return None
        pending = self._pending
        if len(pending) == 1 and pending[0] is entry:
            # Fast path — the closing interval is the only one in
            # flight (the common case at desktop-app TLP levels): fold
            # its two edges inline instead of round-tripping the queue.
            # This duplicates :meth:`_fold` for the pair; the
            # hypothesis equivalence tests exercise both paths.
            pending.clear()
            w0 = self._w0
            opened = entry[0]
            if opened < w0:
                opened = w0
            closed = time if time > w0 else w0
            prev = self._prev
            level = self._level
            profile = self._profile
            if opened > prev:
                span = opened - prev
                profile[level] = profile.get(level, 0) + span
                if level > 0:
                    self._covered += span
                    if level > self._peak:
                        self._peak = level
                prev = opened
            level += 1
            if closed > prev:
                span = closed - prev
                profile[level] = profile.get(level, 0) + span
                self._covered += span
                if level > self._peak:
                    self._peak = level
                prev = closed
            self._prev = prev
            self._level = level - 1
        else:
            entry[2] = True
            pending.append([time, -1, True])
            if pending[0][2]:
                self._drain()
            # else: the head is an uncommitted open of another key, so
            # nothing can fold yet — skip the call entirely.
        return entry[0]

    def _drain(self):
        pending = self._pending
        while pending and pending[0][2]:
            time, delta, _ = pending.popleft()
            self._fold(time, delta)

    def _fold(self, time, delta):
        # The fused_sweep loop body.  No upper clamp is needed: edges
        # are folded at or before the window stop by construction.
        if time < self._w0:
            time = self._w0
        if time > self._prev:
            span = time - self._prev
            level = self._level
            self._profile[level] = self._profile.get(level, 0) + span
            if level > 0:
                self._covered += span
                if level > self._peak:
                    self._peak = level
            self._prev = time
        self._level += delta

    def result(self, window_stop):
        """Fold the committed backlog and return the window's sweep.

        Open intervals are skipped — their records would never have
        been emitted — but their edges stay queued so a later window
        counts them from its own start, like the post-hoc path does.
        """
        remaining = deque()
        pending = self._pending
        while pending:
            entry = pending.popleft()
            if entry[2]:
                self._fold(entry[0], entry[1])
            else:
                remaining.append(entry)
        self._pending = remaining
        total = window_stop - self._w0
        profile = self._profile
        profile[0] = total - self._covered
        return FusedSweep(profile, self._covered, self._peak)

    @property
    def pending_edges(self):
        """Queue length — bounded by open-interval depth, not trace
        length (asserted by the memory-guard test)."""
        return len(self._pending)


@dataclass(frozen=True, slots=True)
class FrameStats:
    """Order-independent summary of frame presents in a window."""

    count: int = 0
    reprojected: int = 0
    first_present: int = None
    last_present: int = None

    @classmethod
    def from_records(cls, frames):
        """Summarize :class:`FramePresentRecord` objects (post-hoc)."""
        frames = list(frames)
        if not frames:
            return cls()
        times = [f.present_time for f in frames]
        return cls(
            count=len(frames),
            reprojected=sum(1 for f in frames if f.reprojected),
            first_present=min(times),
            last_present=max(times),
        )

    @property
    def span_us(self):
        return (self.last_present - self.first_present) if self.count else 0


class OnlineMetricsEngine:
    """Streaming subscriber computing TLP / GPU / frame aggregates.

    Subscribe once per :class:`~repro.trace.session.TraceSession`;
    every ``start()``/``stop()`` pair defines one measurement window.
    ``processes`` is the *live* set of application process names
    (``AppRuntime.process_names`` — it only grows, and a process is
    registered before any of its threads runs, so open-time filtering
    equals the post-hoc filter over the finished trace).  ``None``
    measures everything, like the unfiltered WPA tables.
    """

    def __init__(self, session, n_logical, processes=None):
        if n_logical < 1:
            raise ValueError("n_logical must be >= 1")
        self.n_logical = n_logical
        self.processes = processes
        self.cpu = OnlineSweep()
        self.gpu = OnlineSweep()
        self._active = False
        self._w0 = 0
        self._window_us = 0
        self._gpu_busy_sum = 0
        self._cpu_sweep = None
        self._gpu_sweep = None
        self._frame_count = 0
        self._frame_reprojected = 0
        self._frame_first = None
        self._frame_last = None
        session.subscribe(self)

    def _measured(self, process):
        return self.processes is None or process in self.processes

    # -- session window callbacks --------------------------------------

    def on_window_start(self, now):
        self._active = True
        self._w0 = now
        self._window_us = 0
        self._gpu_busy_sum = 0
        self._cpu_sweep = None
        self._gpu_sweep = None
        self._frame_count = 0
        self._frame_reprojected = 0
        self._frame_first = None
        self._frame_last = None
        self.cpu.begin(now)
        self.gpu.begin(now)

    def on_window_stop(self, now):
        if not self._active:
            return
        self._active = False
        self._window_us = now - self._w0
        self._cpu_sweep = self.cpu.result(now)
        self._gpu_sweep = self.gpu.result(now)

    # -- occupancy edges -----------------------------------------------

    def on_cpu_busy(self, process, cpu, now):
        if self._measured(process):
            self.cpu.open(cpu, now)

    def on_cpu_idle(self, process, cpu, now):
        self.cpu.close(cpu, now)

    def on_engine_busy(self, process, engine, now):
        if self._measured(process):
            self.gpu.open(engine, now)

    def on_engine_idle(self, process, engine, now):
        start = self.gpu.close(engine, now)
        if start is not None and self._active:
            # Sum-of-ratios numerator: packet span clipped to the
            # window, same as measure_gpu_utilization's span clipping.
            lo = start if start > self._w0 else self._w0
            if now > lo:
                self._gpu_busy_sum += now - lo

    # -- record-style events (only delivered while recording) ----------

    def on_frame(self, process, pid, present_time, target_fps,
                 reprojected=False):
        if not (self._active and self._measured(process)):
            return
        self._frame_count += 1
        if reprojected:
            self._frame_reprojected += 1
        if self._frame_first is None or present_time < self._frame_first:
            self._frame_first = present_time
        if self._frame_last is None or present_time > self._frame_last:
            self._frame_last = present_time

    def on_mark(self, process, pid, time, label):
        pass  # responsiveness pairing needs the post-hoc trace

    # -- results -------------------------------------------------------

    def _sealed(self, sweep):
        if sweep is None:
            raise RuntimeError(
                "no sealed measurement window (session still recording "
                "or never started)")
        return sweep

    def tlp_result(self):
        """Equation-1 TLP of the last window — bit-identical to
        ``measure_tlp`` over the equivalent recorded trace."""
        sweep = self._sealed(self._cpu_sweep)
        return tlp_result_from_profile(
            sweep.profile, sweep.max_concurrency,
            self.n_logical, self._window_us)

    def gpu_result(self):
        """GPU utilization of the last window (§III-B's sum method) —
        bit-identical to ``measure_gpu_utilization`` over the
        equivalent trace."""
        sweep = self._sealed(self._gpu_sweep)
        return gpu_result_from_totals(
            self._gpu_busy_sum, sweep.union_length, sweep.max_concurrency,
            self._window_us, "sum")

    def frame_stats(self):
        """Frame-present summary of the last (or current) window."""
        return FrameStats(
            count=self._frame_count,
            reprojected=self._frame_reprojected,
            first_present=self._frame_first,
            last_present=self._frame_last,
        )

    @property
    def pending_edges(self):
        """Total queued edges across both sweeps (memory introspection)."""
        return self.cpu.pending_edges + self.gpu.pending_edges
