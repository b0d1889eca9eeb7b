"""Spans around calls into each ``repro`` module, installed from outside.

Nothing under ``src/`` is edited: :func:`install` swaps public
functions and methods for timing wrappers at the attribute the hot
loop actually looks up, and the returned callable puts the originals
back.  Three kinds of wrapper exist:

* **recorded** spans keep ``(id, name, start, end, parent, group,
  thread, folded)`` in memory.  ``group`` ties together every span of
  one grid point (a ``run_app_once`` call) or one HTTP request (the
  ``X-Perfbench-Request`` header the client sends).
* **folded** spans are the high-frequency calls — column appends,
  per-slice model updates, GPU submits, online-metrics callbacks.  A
  table2-cold pass makes about 1.8 million of them, so each is added
  to a per-name ``[calls, self seconds]`` total and to its parent's
  child time instead of being stored.  A recorded span never nests
  inside a folded one (it is folded too if it would), so self time
  stays exact.
* **resumable** wraps the ``Scheduler.run_burst`` generator: every
  resumption is one folded span, and ``send``/``throw`` (the
  ``Interrupt`` of a killed thread) pass through unchanged.

Self time of a recorded span is its duration minus its folded child
time minus the union of its recorded children
(:func:`perfbench.stats.self_time`).
"""

import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from perfbench.stats import self_time, subtract

clock = time.perf_counter

#: HTTP header carrying the client's request id into daemon spans.
REQUEST_HEADER = "x-perfbench-request"


class Tracer:
    """In-memory span store plus folded per-name totals.

    Recorded spans are appended from any thread.  Folded totals and
    ``counters`` are updated without a lock: in every workload here one
    thread at a time makes those calls (the simulation runs on the
    benchmark's main thread, or in forked workers whose spans are
    dropped; the daemon has one dispatcher thread).
    """

    def __init__(self):
        self.spans = []
        self.folded = {}
        self.counters = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def stack(self):
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.group = None
            return local.stack

    # -- wrapper factories ----------------------------------------------

    def folded_wrapper(self, name, fn):
        stat = self.folded.setdefault(name, [0, 0.0])
        local = self._local
        stack_of = self.stack

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = stack_of()
            frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
        return wrapper

    def recorded_wrapper(self, name, fn, group=None, sticky=False,
                         after=None):
        """``group(args, kwargs)`` may name a new group for this span and
        its descendants (``sticky``: it stays set on the thread after
        the call); ``after(args, result)`` sees each successful call."""
        spans = self.spans
        local = self._local
        ids = self._ids
        stack_of = self.stack
        folded = self.folded_wrapper(name, fn)

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if parent is not None and parent[1] is None:
                return folded(*args, **kwargs)
            saved = local.group
            if group is not None:
                chosen = group(args, kwargs)
                if chosen is not None:
                    local.group = chosen
            span_id = next(ids)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, name, t0, t1,
                              parent[1] if parent is not None else 0,
                              local.group, threading.get_ident(),
                              frame[0]))
                if not sticky:
                    local.group = saved
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def resumable_wrapper(self, name, genfn):
        stat = self.folded.setdefault(name, [0, 0.0])
        stack_of = self.stack

        def resume(inner):
            value = None
            error = None
            while True:
                stack = stack_of()
                frame = [0.0, None]
                stack.append(frame)
                t0 = clock()
                try:
                    if error is None:
                        request = inner.send(value)
                    else:
                        request = inner.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    stat[0] += 1
                    stat[1] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                try:
                    value = yield request
                    error = None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:
                    value = None
                    error = exc

        def wrapper(*args, **kwargs):
            return resume(genfn(*args, **kwargs))
        return wrapper

    def new_group(self):
        return f"g{next(self._ids)}"

    @contextmanager
    def span(self, name):
        """Recorded span around a block of the benchmark's own code."""
        stack = self.stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        frame = [0.0, span_id]
        stack.append(frame)
        t0 = clock()
        try:
            yield
        finally:
            t1 = clock()
            stack.pop()
            self.spans.append((span_id, name, t0, t1,
                               parent[1] if parent is not None else 0,
                               self._local.group, threading.get_ident(),
                               frame[0]))

    # -- analysis -----------------------------------------------------------

    def dump(self):
        return {"spans": [list(s) for s in self.spans],
                "folded": {k: list(v) for k, v in self.folded.items()},
                "counters": dict(self.counters)}


def load(dump):
    """A read-only :class:`Tracer` view of :meth:`Tracer.dump` output."""
    tracer = Tracer()
    tracer.spans = [tuple(s) for s in dump["spans"]]
    tracer.folded = {k: list(v) for k, v in dump["folded"].items()}
    tracer.counters = Counter(dump["counters"])
    return tracer


def self_times(spans):
    """``{span id: self seconds}`` for recorded spans."""
    children = defaultdict(list)
    for span in spans:
        children[span[4]].append((span[2], span[3]))
    return {span[0]: self_time(span[2], span[3], children[span[0]])
            - span[7] for span in spans}


def self_intervals(spans):
    """``{span id: [(start, end), ...]}``: the parts of each recorded span
    not covered by a recorded child (folded child time is not placed)."""
    children = defaultdict(list)
    for span in spans:
        children[span[4]].append((span[2], span[3]))
    return {span[0]: subtract(span[2], span[3], children[span[0]])
            for span in spans}


def layer_totals(tracers):
    """Per span name: ``calls``, ``self_s`` and ``total_s`` summed over
    one or more tracers (several processes of one pass)."""
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    counters = Counter()
    for tracer in tracers:
        selfs = self_times(tracer.spans)
        for span in tracer.spans:
            entry = totals[span[1]]
            entry["calls"] += 1
            entry["self_s"] += selfs[span[0]]
            entry["total_s"] += span[3] - span[2]
        for name, (calls, seconds) in tracer.folded.items():
            entry = totals[name]
            entry["calls"] += calls
            entry["self_s"] += seconds
        counters.update(tracer.counters)
    return totals, counters


# -- installation -------------------------------------------------------------

class _Patches:
    """Attribute swaps with an exact undo (class attributes that were
    inherited are deleted again rather than pinned)."""

    def __init__(self):
        self._undo = []

    def swap(self, owner, attr, make):
        own = owner.__dict__ if isinstance(owner, type) else vars(owner)
        had_own = attr in own
        raw = own[attr] if had_own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self.remember(owner, attr, raw if had_own else None)

    def remember(self, owner, attr, own):
        """Undo entry: restore ``own``, or delete when it was inherited."""
        self._undo.append((owner, attr, own, own is not None))

    def undo(self):
        for owner, attr, raw, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._undo.clear()


def install(tracer):
    """Wrap every measured ``repro`` call site; returns the undo callable."""
    import repro.analysis.dse as dse
    import repro.analysis.dse.engine as dse_engine
    import repro.hardware.catalog as catalog
    import repro.harness.runner as runner
    import repro.reporting as reporting
    import repro.reporting.payloads as payloads
    import repro.service.daemon as daemon
    import repro.service.jobs as jobs
    import repro.validate.invariants as invariants
    from repro.apps import REGISTRY
    from repro.gpu.device import GpuDevice
    from repro.harness.cache import ResultCache
    from repro.harness.executor import ParallelExecutor, SerialExecutor
    from repro.harness.supervisor import SupervisedExecutor
    from repro.metrics.online import FrameStats, OnlineMetricsEngine
    from repro.os.energy import EnergyModel
    from repro.os.memmodel import MemoryModel
    from repro.os.scheduler import Scheduler
    from repro.service.ledger import JobLedger
    from repro.sim.environment import Environment
    from repro.trace.columns import CswitchColumns, GpuPacketColumns
    from repro.trace.session import TraceSession
    from repro.trace.wpa import CpuUsagePreciseTable, GpuUtilizationTable

    patches = _Patches()
    counters = tracer.counters

    def folded(owner, attr, name):
        patches.swap(owner, attr,
                     lambda fn: tracer.folded_wrapper(name, fn))

    def recorded(owner, attr, name, **kwargs):
        patches.swap(owner, attr,
                     lambda fn: tracer.recorded_wrapper(name, fn, **kwargs))

    # sim: the event loop; app thread bodies run inside it.
    recorded(Environment, "run", "sim.run")
    # os.scheduler: one folded span per generator resumption.
    patches.swap(Scheduler, "run_burst",
                 lambda fn: tracer.resumable_wrapper(
                     "os.scheduler.run_burst", fn))
    # trace: TraceSession.start binds the column stores' ``append`` as
    # emit_cswitch/emit_gpu_packet, so the stores are where to wrap.
    folded(CswitchColumns, "append", "trace.append")
    folded(GpuPacketColumns, "append", "trace.append")
    folded(TraceSession, "emit_frame", "trace.emit")
    folded(TraceSession, "emit_mark", "trace.emit")
    recorded(TraceSession, "stop", "trace.stop")
    recorded(CpuUsagePreciseTable, "from_trace", "trace.wpa")
    recorded(GpuUtilizationTable, "from_trace", "trace.wpa")
    # os.energy / os.memmodel: per-slice sinks folded, reports recorded.
    folded(EnergyModel, "record_slice", "os.energy.record_slice")
    recorded(EnergyModel, "report", "os.energy")
    recorded(EnergyModel, "activity", "os.energy")
    folded(MemoryModel, "record_slice", "os.memmodel.record_slice")
    folded(MemoryModel, "counters", "os.memmodel.counters")
    # gpu
    folded(GpuDevice, "submit", "gpu.submit")
    # apps: every registered model overrides build(); resolve all the
    # originals before swapping so a subclass never wraps a wrapper.
    builds = [(cls, vars(cls).get("build"), cls.build)
              for cls in set(REGISTRY.values())]
    for cls, own, resolved in builds:
        setattr(cls, "build", tracer.recorded_wrapper("apps.build", resolved))
        patches.remember(cls, "build", own)
    # metrics: the runner binds the fold functions at import time.
    recorded(runner, "measure_tlp", "metrics.fold")
    recorded(runner, "measure_gpu_utilization", "metrics.fold")
    recorded(FrameStats, "from_records", "metrics.fold")
    for hook in ("on_window_start", "on_window_stop", "on_cpu_busy",
                 "on_cpu_idle", "on_engine_busy", "on_engine_idle",
                 "on_frame", "on_mark"):
        folded(OnlineMetricsEngine, hook, "metrics.online")
    for result in ("tlp_result", "gpu_result", "frame_stats"):
        recorded(OnlineMetricsEngine, result, "metrics.online")

    # harness: both executor kinds count what they actually simulated.
    def counted_map(name):
        def make(fn):
            wrapped = tracer.recorded_wrapper(name, fn)

            def call(self, specs):
                executed = self.executed
                retried = getattr(self, "retried", 0)
                result = wrapped(self, specs)
                counters["harness.executed"] += self.executed - executed
                counters["harness.supervisor.retries"] += \
                    getattr(self, "retried", 0) - retried
                return result
            return call
        return make

    recorded(runner, "run_app_once", "harness.run_app_once",
             group=lambda args, kwargs: tracer.new_group())
    patches.swap(SerialExecutor, "map", counted_map("harness.executor.map"))
    patches.swap(ParallelExecutor, "map",
                 counted_map("harness.executor.map"))
    patches.swap(SupervisedExecutor, "map",
                 counted_map("harness.supervisor.map"))

    def cache_outcome(_args, result):
        counters["harness.cache.hits" if result[0] == "hit"
                 else "harness.cache.misses"] += 1

    recorded(ResultCache, "key_for", "harness.cache.key")
    recorded(ResultCache, "load_classified", "harness.cache.load",
             after=cache_outcome)
    recorded(ResultCache, "store", "harness.cache.store")
    # validate: the executors import check_single_run at call time.
    recorded(invariants, "check_single_run", "validate.check")
    # hardware / analysis.dse: the engine binds its helpers at import.
    recorded(catalog, "generate_machines", "hardware.generate")
    # `repro dse` imports run_campaign from the package at call time.
    recorded(dse, "run_campaign", "analysis.dse.campaign")
    recorded(dse_engine, "partition_configs", "analysis.dse.partition")
    recorded(dse_engine, "batch_score", "analysis.dse.score")
    recorded(dse_engine, "pareto_frontier", "analysis.dse.pareto")
    recorded(dse_engine, "score_from_simulation", "analysis.dse.equivalence")

    # service
    def request_group(args, _kwargs):
        request_id = args[1].headers.get(REQUEST_HEADER)
        return f"r{request_id}" if request_id is not None else None

    recorded(daemon.SweepService, "dispatch", "service.dispatch",
             group=request_group)
    recorded(jobs.SweepRequest, "build", "service.admit")
    recorded(daemon, "spec_key", "service.admit")
    recorded(daemon, "sweep_digest", "service.admit")
    for record in ("record_submitted", "record_finished", "record_failed"):
        recorded(JobLedger, record, "service.ledger")
    # The dispatcher thread announces each job here; everything it does
    # until the next job belongs to that job's group.
    recorded(JobLedger, "record_started", "service.ledger",
             group=lambda args, kwargs: f"job:{args[1]}", sticky=True)

    # reporting
    for owner in (payloads, jobs):
        recorded(owner, "suite_payload", "reporting.payload")
        recorded(owner, "canonical_json_bytes", "reporting.payload")
    recorded(reporting, "render_table2", "reporting.render")
    recorded(reporting, "render_dse_frontiers", "reporting.render")
    return patches.undo


# -- per-layer metrics --------------------------------------------------------

#: The benchmark's own root span; its self time is the unattributed rest.
ROOT = "bench.pass"


def per_layer(totals, counters):
    """``{metric: (value, unit)}`` from :func:`layer_totals` output."""

    def pick(field, names):
        return sum(totals[n][field] for n in names if n in totals)

    def self_s(*names):
        return pick("self_s", names)

    def calls(*names):
        return pick("calls", names)

    hits = counters["harness.cache.hits"]
    misses = counters["harness.cache.misses"]
    energy = ("os.energy.record_slice", "os.energy")
    memory = ("os.memmodel.record_slice", "os.memmodel.counters")
    emit = ("trace.append", "trace.emit", "trace.stop")
    return {
        "sim.run_s": (pick("total_s", ["sim.run"]), "s"),
        "sim.self_s": (self_s("sim.run"), "s"),
        "os.scheduler.resumes": (calls("os.scheduler.run_burst"), "count"),
        "os.scheduler.self_s": (self_s("os.scheduler.run_burst"), "s"),
        "trace.records": (calls("trace.append", "trace.emit"), "count"),
        "trace.emit_s": (self_s(*emit), "s"),
        "trace.wpa_s": (self_s("trace.wpa"), "s"),
        "os.energy.calls": (calls(*energy), "count"),
        "os.energy.self_s": (self_s(*energy), "s"),
        "os.memmodel.calls": (calls(*memory), "count"),
        "os.memmodel.self_s": (self_s(*memory), "s"),
        "gpu.packets": (calls("gpu.submit"), "count"),
        "gpu.self_s": (self_s("gpu.submit"), "s"),
        "apps.build_s": (self_s("apps.build"), "s"),
        "metrics.fold_s": (self_s("metrics.fold"), "s"),
        "metrics.online_s": (self_s("metrics.online"), "s"),
        "harness.runs": (calls("harness.run_app_once"), "count"),
        "harness.executed": (counters["harness.executed"], "count"),
        "harness.runner.self_s": (
            self_s("harness.run_app_once", "harness.executor.map"), "s"),
        "harness.cache.hits": (hits, "count"),
        "harness.cache.misses": (misses, "count"),
        "harness.cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "harness.cache.key_s": (self_s("harness.cache.key"), "s"),
        "harness.cache.load_s": (self_s("harness.cache.load"), "s"),
        "harness.cache.store_s": (self_s("harness.cache.store"), "s"),
        "harness.supervisor.map_s": (
            pick("total_s", ["harness.supervisor.map"]), "s"),
        "harness.supervisor.self_s": (self_s("harness.supervisor.map"), "s"),
        "harness.supervisor.retries": (
            counters["harness.supervisor.retries"], "count"),
        "validate.check_s": (self_s("validate.check"), "s"),
        "hardware.generate_s": (self_s("hardware.generate"), "s"),
        "analysis.dse.partition_s": (self_s("analysis.dse.partition"), "s"),
        "analysis.dse.score_s": (self_s("analysis.dse.score"), "s"),
        "analysis.dse.pareto_s": (self_s("analysis.dse.pareto"), "s"),
        "analysis.dse.equivalence_s": (
            self_s("analysis.dse.equivalence"), "s"),
        "analysis.dse.engine_s": (self_s("analysis.dse.campaign"), "s"),
        "service.requests": (calls("service.dispatch"), "count"),
        "service.dispatch_s": (self_s("service.dispatch"), "s"),
        "service.admit_s": (self_s("service.admit"), "s"),
        "service.ledger_records": (calls("service.ledger"), "count"),
        "service.ledger_s": (self_s("service.ledger"), "s"),
        "reporting.payload_s": (self_s("reporting.payload"), "s"),
        "reporting.render_s": (self_s("reporting.render"), "s"),
    }


def attributed_s(totals):
    """Self time inside any ``repro`` layer (everything but the root)."""
    return sum(entry["self_s"] for name, entry in totals.items()
               if name != ROOT)
