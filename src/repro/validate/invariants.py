"""Trace invariants — what a well-formed ETW-substitute trace obeys.

The checker reads the raw row tuples of the trace's column stores
(``cswitch_rows`` / ``gpu_rows``), not the dataclass records: the
stores append without ``__post_init__`` validation, so a scheduler or
buffer regression can only be caught at this level.

Invariant catalogue (names are stable — tests, fault specs and docs
refer to them):

``thread-monotonic``
    A thread runs in at most one place at a time: per ``(pid, tid)``,
    scheduling slices ordered by switch-in time never overlap.
``balanced-switch-edges``
    Every slice is a balanced in/out edge pair: ``ready <= switch_in
    <= switch_out`` per row, and the global +1/-1 edge sweep never goes
    negative and returns to zero.
``cpu-occupancy``
    A logical CPU runs one thread at a time (per-CPU slices never
    overlap), CPU indices are within the machine, and the instantaneous
    number of busy CPUs never exceeds the logical core count.
``gpu-engine-exclusive``
    A GPU engine executes one packet at a time: ``submit <=
    start_execution <= finished`` per packet and per-engine execution
    spans never overlap.
``window-containment``
    Execution times lie inside ``[start_time, stop_time]``.  (Ready and
    submit times are exempt: a thread may become ready, and a packet
    may be submitted, before the recording window opens.)
``busy-conservation``
    Total scheduled busy time equals the integral of the fused-sweep
    concurrency histogram (``sum(c_i * i)`` in microseconds), for the
    CPU and the GPU row sets alike.  This cross-checks the trace
    against the *metrics pipeline itself*: it recomputes the histogram
    through :func:`repro.metrics.intervals.fused_sweep`, so a sweep
    regression fires here even on a pristine trace.
"""

from dataclasses import dataclass, field

from repro.metrics.intervals import first_time_above, fused_sweep, interval_events


@dataclass(frozen=True)
class Violation:
    """One broken invariant occurrence: the invariant's catalogue name
    and a message that names the offending records."""

    invariant: str
    message: str

    def __str__(self):
        return f"[{self.invariant}] {self.message}"


@dataclass
class ValidationReport:
    """The outcome of a validation pass."""

    violations: list = field(default_factory=list)
    checked: tuple = ()

    @property
    def ok(self):
        return not self.violations

    def raise_if_failed(self):
        if self.violations:
            raise TraceValidationError(self)
        return self

    def __str__(self):
        if self.ok:
            return f"ok ({len(self.checked)} invariants checked)"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


class TraceValidationError(RuntimeError):
    """Raised by ``raise_if_failed`` on a non-empty report."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class TraceValidator:
    """Composable post-hoc invariant checker for finished traces.

    ``n_logical`` bounds the ``cpu-occupancy`` check (omit it to skip
    the machine-wide bound while keeping per-CPU exclusivity);
    ``invariants`` selects a subset of the catalogue.  ``max_report``
    caps the violations collected per invariant so a badly corrupted
    million-record trace does not produce a million-line report.
    """

    def __init__(self, n_logical=None, invariants=None, max_report=20):
        self.n_logical = n_logical
        self.max_report = max_report
        unknown = set(invariants or ()) - set(INVARIANT_NAMES)
        if unknown:
            raise ValueError(f"unknown invariants: {sorted(unknown)}")
        self.invariants = tuple(invariants) if invariants else INVARIANT_NAMES

    def validate(self, trace):
        """Run every selected invariant; returns a
        :class:`ValidationReport` (never raises on violations)."""
        cswitches = trace.cswitch_rows()
        gpu = trace.gpu_rows()
        violations = []
        for name in self.invariants:
            found = list(_CHECKS[name](self, trace, cswitches, gpu))
            violations.extend(found[:self.max_report])
        return ValidationReport(violations=violations,
                                checked=self.invariants)

    # -- individual checks ---------------------------------------------

    def _check_thread_monotonic(self, trace, cswitches, gpu):
        by_thread = {}
        for row in cswitches:
            by_thread.setdefault((row[1], row[2]), []).append(row)
        for (pid, tid), rows in sorted(by_thread.items()):
            rows.sort(key=lambda row: (row[6], row[7]))
            prev = None
            for row in rows:
                if prev is not None and row[6] < prev[7]:
                    yield Violation(
                        "thread-monotonic",
                        f"thread {row[0]}/{pid}:{tid} runs in two places: "
                        f"slice in={row[6]} overlaps previous out={prev[7]}")
                prev = row

    def _check_balanced_edges(self, trace, cswitches, gpu):
        for row in cswitches:
            if not row[5] <= row[6] <= row[7]:
                yield Violation(
                    "balanced-switch-edges",
                    f"slice of {row[0]}:{row[2]} on cpu {row[4]} has "
                    f"disordered edges ready={row[5]} in={row[6]} "
                    f"out={row[7]}")
        # Global sweep balance: one +1 per switch-in, one -1 per
        # switch-out; the running level of the sorted edge stream must
        # stay non-negative and end at zero.  Zero-length slices are
        # excluded: they are balanced degenerate pairs, but the event
        # tie-break (-1 before +1) would make them dip the sweep.
        events = interval_events(
            [(row[6], row[7]) for row in cswitches if row[7] > row[6]])
        level = 0
        dipped = False
        for time, delta in events:
            level += delta
            if level < 0 and not dipped:
                dipped = True
                yield Violation(
                    "balanced-switch-edges",
                    f"switch-out edge at t={time} precedes any matching "
                    f"switch-in (sweep level went negative)")
        if level != 0:
            yield Violation(
                "balanced-switch-edges",
                f"unbalanced switch edges: sweep ends at level {level}")

    def _check_cpu_occupancy(self, trace, cswitches, gpu):
        by_cpu = {}
        for row in cswitches:
            if self.n_logical is not None and not 0 <= row[4] < self.n_logical:
                yield Violation(
                    "cpu-occupancy",
                    f"slice of {row[0]}:{row[2]} on cpu {row[4]} outside "
                    f"machine (0..{self.n_logical - 1})")
            by_cpu.setdefault(row[4], []).append((row[6], row[7], row))
        for cpu, slices in sorted(by_cpu.items()):
            slices.sort(key=lambda item: item[:2])
            prev = None
            for start, stop, row in slices:
                if prev is not None and start < prev[1]:
                    yield Violation(
                        "cpu-occupancy",
                        f"cpu {cpu} double-booked: {row[0]}:{row[2]} "
                        f"in={start} overlaps previous out={prev[1]}")
                prev = (start, stop)
        if self.n_logical is not None and cswitches:
            events = interval_events([(row[6], row[7]) for row in cswitches])
            sweep = fused_sweep((), trace.start_time, trace.stop_time,
                                events=events)
            if sweep.max_concurrency > self.n_logical:
                when = first_time_above(events, self.n_logical)
                yield Violation(
                    "cpu-occupancy",
                    f"{sweep.max_concurrency} CPUs busy at once on a "
                    f"{self.n_logical}-logical-CPU machine "
                    f"(first oversubscribed at t={when})")

    def _check_gpu_exclusive(self, trace, cswitches, gpu):
        for row in gpu:
            if not row[4] <= row[5] <= row[6]:
                yield Violation(
                    "gpu-engine-exclusive",
                    f"packet of {row[0]} on {row[2]} has disordered times "
                    f"submit={row[4]} start={row[5]} finish={row[6]}")
        by_engine = {}
        for row in gpu:
            by_engine.setdefault(row[2], []).append((row[5], row[6], row))
        for engine, spans in sorted(by_engine.items()):
            spans.sort(key=lambda item: item[:2])
            prev = None
            for start, stop, row in spans:
                if prev is not None and start < prev[1]:
                    yield Violation(
                        "gpu-engine-exclusive",
                        f"engine {engine} runs two packets at once: "
                        f"{row[0]} start={start} overlaps previous "
                        f"finish={prev[1]}")
                prev = (start, stop)

    def _check_window_containment(self, trace, cswitches, gpu):
        lo, hi = trace.start_time, trace.stop_time
        for row in cswitches:
            if row[6] < lo or row[7] > hi:
                yield Violation(
                    "window-containment",
                    f"slice of {row[0]}:{row[2]} [{row[6]}, {row[7]}] "
                    f"outside trace window [{lo}, {hi}]")
        for row in gpu:
            if row[5] < lo or row[6] > hi:
                yield Violation(
                    "window-containment",
                    f"packet of {row[0]} on {row[2]} [{row[5]}, {row[6]}] "
                    f"outside trace window [{lo}, {hi}]")

    def _check_busy_conservation(self, trace, cswitches, gpu):
        for kind, rows, spans in (
                ("cpu", cswitches, [(row[6], row[7]) for row in cswitches]),
                ("gpu", gpu, [(row[5], row[6]) for row in gpu])):
            if not rows:
                continue
            recorded = sum(stop - start for start, stop in spans)
            sweep = fused_sweep(spans, trace.start_time, trace.stop_time)
            integrated = sum(level * span
                             for level, span in sweep.profile.items()
                             if level > 0)
            if recorded != integrated:
                yield Violation(
                    "busy-conservation",
                    f"{kind} busy time {recorded}us disagrees with the "
                    f"fused-sweep histogram integral {integrated}us")
            if sweep.union_length > trace.duration:
                yield Violation(
                    "busy-conservation",
                    f"{kind} union busy time {sweep.union_length}us exceeds "
                    f"the {trace.duration}us trace window")


_CHECKS = {
    "thread-monotonic": TraceValidator._check_thread_monotonic,
    "balanced-switch-edges": TraceValidator._check_balanced_edges,
    "cpu-occupancy": TraceValidator._check_cpu_occupancy,
    "gpu-engine-exclusive": TraceValidator._check_gpu_exclusive,
    "window-containment": TraceValidator._check_window_containment,
    "busy-conservation": TraceValidator._check_busy_conservation,
}

#: The invariant catalogue, in check order.
INVARIANT_NAMES = tuple(_CHECKS)


class OnlineValidator:
    """Live invariant checks over the occupancy-edge stream.

    Subscribe to a :class:`~repro.trace.session.TraceSession` (the
    constructor does it) and the validator sees the same busy/idle
    edges the :class:`~repro.metrics.online.OnlineMetricsEngine` folds:
    it asserts simulation time never runs backwards, a CPU/engine is
    never opened twice or closed while idle, occupancy stays within the
    machine, and — at window stop — that the integral of the occupancy
    level equals the summed busy time of the observed intervals (the
    streaming form of ``busy-conservation``).

    Works in both retained and streaming sessions; it only observes,
    so results stay bit-identical with or without it.
    """

    def __init__(self, session, n_logical=None, max_report=20):
        self.n_logical = n_logical
        self.max_report = max_report
        self.violations = []
        self._now = None
        self._open_cpus = {}
        self._open_engines = {}
        self._w0 = None
        self._busy_sum = 0
        self._integral = 0
        self._prev = None
        self._windows_sealed = 0
        if session is not None:
            session.subscribe(self)

    def _flag(self, invariant, message):
        if len(self.violations) < self.max_report:
            self.violations.append(Violation(invariant, message))

    def _advance(self, now):
        if self._now is not None and now < self._now:
            self._flag("thread-monotonic",
                       f"edge time went backwards: {now} after {self._now}")
        self._now = now
        if self._w0 is not None and self._prev is not None and now > self._prev:
            level = len(self._open_cpus) + len(self._open_engines)
            self._integral += level * (now - self._prev)
            self._prev = now
        elif self._w0 is not None and self._prev is None:
            self._prev = max(now, self._w0)

    # -- session callbacks ---------------------------------------------

    def on_window_start(self, now):
        self._w0 = now
        self._prev = now
        self._busy_sum = 0
        self._integral = 0
        # Intervals already in flight count from the window start, the
        # way the post-hoc sweep clamps their edges.
        for key in self._open_cpus:
            self._open_cpus[key] = now
        for key in self._open_engines:
            self._open_engines[key] = now

    def on_window_stop(self, now):
        self._advance(now)
        if self._w0 is None:
            return
        expected = self._busy_sum + sum(
            now - max(opened, self._w0)
            for opened in list(self._open_cpus.values())
            + list(self._open_engines.values()))
        if expected != self._integral:
            self._flag(
                "busy-conservation",
                f"occupancy integral {self._integral}us disagrees with "
                f"summed busy time {expected}us in window "
                f"[{self._w0}, {now}]")
        self._windows_sealed += 1
        self._w0 = None
        self._prev = None

    def on_cpu_busy(self, process, cpu, now):
        self._advance(now)
        if self.n_logical is not None and not 0 <= cpu < self.n_logical:
            self._flag("cpu-occupancy",
                       f"busy edge for cpu {cpu} outside machine "
                       f"(0..{self.n_logical - 1})")
        if cpu in self._open_cpus:
            self._flag("cpu-occupancy",
                       f"cpu {cpu} marked busy twice (process {process}, "
                       f"t={now})")
            self._close_cpu(cpu, now)
        self._open_cpus[cpu] = now
        if (self.n_logical is not None
                and len(self._open_cpus) > self.n_logical):
            self._flag("cpu-occupancy",
                       f"{len(self._open_cpus)} CPUs busy at once on a "
                       f"{self.n_logical}-logical-CPU machine (t={now})")

    def _close_cpu(self, cpu, now):
        opened = self._open_cpus.pop(cpu)
        if self._w0 is not None:
            lo = max(opened, self._w0)
            if now > lo:
                self._busy_sum += now - lo

    def on_cpu_idle(self, process, cpu, now):
        self._advance(now)
        if cpu not in self._open_cpus:
            self._flag("balanced-switch-edges",
                       f"idle edge for cpu {cpu} that was never busy "
                       f"(process {process}, t={now})")
            return
        self._close_cpu(cpu, now)

    def on_engine_busy(self, process, engine, now):
        self._advance(now)
        if engine in self._open_engines:
            self._flag("gpu-engine-exclusive",
                       f"engine {engine} marked busy twice "
                       f"(process {process}, t={now})")
            self._close_engine(engine, now)
        self._open_engines[engine] = now

    def _close_engine(self, engine, now):
        opened = self._open_engines.pop(engine)
        if self._w0 is not None:
            lo = max(opened, self._w0)
            if now > lo:
                self._busy_sum += now - lo

    def on_engine_idle(self, process, engine, now):
        self._advance(now)
        if engine not in self._open_engines:
            self._flag("balanced-switch-edges",
                       f"idle edge for engine {engine} that was never busy "
                       f"(process {process}, t={now})")
            return
        self._close_engine(engine, now)

    def on_frame(self, process, pid, present_time, target_fps,
                 reprojected=False):
        self._advance(present_time)

    def on_mark(self, process, pid, time, label):
        self._advance(time)

    # -- results -------------------------------------------------------

    def report(self):
        return ValidationReport(violations=list(self.violations),
                                checked=INVARIANT_NAMES)

    def raise_if_failed(self):
        return self.report().raise_if_failed()


def check_single_run(run, n_logical=None):
    """Plausibility checks on a harness result (cached or fresh).

    Returns a list of problem strings (empty when the result looks
    sound).  This is intentionally cheap — it guards the result-cache
    reuse path against corrupt or stale entries, not against subtle
    metric drift (the golden suite owns that).
    """
    problems = []
    tlp = getattr(run, "tlp", None)
    gpu = getattr(run, "gpu_util", None)
    if tlp is None or gpu is None:
        return [f"result of type {type(run).__name__} has no metrics"]
    if tlp.window_us <= 0:
        problems.append(f"non-positive TLP window {tlp.window_us}us")
    if not tlp.fractions:
        problems.append("empty concurrency-fraction vector")
    else:
        total = sum(tlp.fractions)
        if abs(total - 1.0) > 1e-6:
            problems.append(f"concurrency fractions sum to {total!r}, not 1")
        if any(f < -1e-12 or f > 1.0 + 1e-12 for f in tlp.fractions):
            problems.append("concurrency fraction outside [0, 1]")
        limit = len(tlp.fractions) - 1
        if not 0.0 <= tlp.tlp <= limit:
            problems.append(f"TLP {tlp.tlp!r} outside [0, {limit}]")
        if not 0 <= tlp.max_instantaneous <= limit:
            problems.append(
                f"max instantaneous TLP {tlp.max_instantaneous} outside "
                f"[0, {limit}]")
    if n_logical is not None and tlp.fractions \
            and len(tlp.fractions) != n_logical + 1:
        problems.append(
            f"{len(tlp.fractions)} concurrency levels for an "
            f"{n_logical}-logical-CPU machine")
    if not 0.0 <= gpu.utilization_pct <= 100.0:
        problems.append(
            f"GPU utilization {gpu.utilization_pct!r}% outside [0, 100]")
    if gpu.window_us <= 0:
        problems.append(f"non-positive GPU window {gpu.window_us}us")
    return problems
