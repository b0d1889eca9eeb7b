"""WPA-substitute table extraction and the ``wpaexporter`` CSV step.

The paper's workflow (Fig. 1) opens the ``.etl`` trace in Windows
Performance Analyzer, extracts two tables and exports them to CSV:

* **CPU Usage (Precise), Timeline by CPU** — columns Process, CPU,
  Ready Time, Switch-In Time (we carry Switch-Out Time as well).
* **GPU Utilization (FM)** — columns Process, Start Execution,
  Finished.

Custom scripts then post-process the CSVs into TLP and GPU-utilization
numbers.  This module is that entire middle of the pipeline.
"""

import csv


def _freeze_processes(processes):
    """Hashable cache key for an optional process-name set."""
    return None if processes is None else frozenset(processes)


class CpuUsagePreciseTable:
    """Rows of the CPU Usage (Precise) analysis.

    Rows are immutable by convention (like the trace they come from);
    the per-process-set event and interval extractions below are
    memoized on that assumption, so every windowed query over the same
    table — ``measure_tlp`` plus hundreds of ``instantaneous_tlp``
    windows — shares one sorted array instead of re-extracting and
    re-sorting the records each time.
    """

    COLUMNS = ("process", "pid", "tid", "thread_name", "cpu",
               "ready_time", "switch_in_time", "switch_out_time")

    def __init__(self, rows, trace_start, trace_stop, store=None):
        self._rows = None if rows is None else list(rows)
        #: Columnar backing store (``trace.columns.CswitchColumns``)
        #: when the table was extracted from a columnar trace; the
        #: batched kernels read its buffers, and row materialization
        #: is deferred until someone actually needs tuples.
        self._store = store
        if rows is None and store is None:
            raise ValueError("need rows or a columnar store")
        self.trace_start = trace_start
        self.trace_stop = trace_stop
        self._arrays_cache = {}
        self._by_cpu_cache = {}

    @property
    def rows(self):
        """Row tuples, sorted by (switch-in, cpu) — materialized
        lazily from the columnar store when first needed."""
        if self._rows is None:
            self._rows = sorted(self._store.rows(),
                                key=lambda row: (row[6], row[4]))
        return self._rows

    @classmethod
    def from_trace(cls, trace):
        """Extract the table from an :class:`~repro.trace.etl.EtlTrace`.

        Uses the trace's tuple fast path (``cswitch_rows``), which for
        columnar traces skips dataclass materialization entirely; a
        still-columnar group is carried as the backing store so the
        batched kernels can sweep its buffers without ever building
        row tuples.
        """
        store = (trace.cswitch_store()
                 if hasattr(trace, "cswitch_store") else None)
        if store is not None:
            return cls(None, trace.start_time, trace.stop_time,
                       store=store)
        if hasattr(trace, "cswitch_rows"):
            raw = trace.cswitch_rows()
        else:
            raw = [(r.process, r.pid, r.tid, r.thread_name, r.cpu,
                    r.ready_time, r.switch_in_time, r.switch_out_time)
                   for r in trace.cswitches]
        rows = sorted(raw, key=lambda row: (row[6], row[4]))
        return cls(rows, trace.start_time, trace.stop_time)

    def busy_intervals(self, processes=None):
        """Yield ``(cpu, start, stop)`` run intervals, optionally
        restricted to a set of process names."""
        for row in self.rows:
            if processes is None or row[0] in processes:
                yield row[4], row[6], row[7]

    def busy_event_arrays(self, processes=None):
        """Sorted parallel ``(times, deltas)`` buffers of the
        switch-in/out events, memoized per process set — what
        ``measure_tlp`` sweeps (:mod:`repro.metrics.kernels`).

        Backed directly by the columnar store's ``array('q')`` buffers
        when the table has one (no row tuples are ever built); built
        from the row list otherwise.
        """
        from repro.metrics.kernels import build_event_arrays, interned_mask

        key = _freeze_processes(processes)
        arrays = self._arrays_cache.get(key)
        if arrays is None:
            store = self._store
            if store is not None:
                mask = None
                if processes is not None:
                    mask = interned_mask(store._process,
                                         store.process_names, processes)
                if processes is None or mask is not None:
                    arrays = build_event_arrays(store._in, store._out,
                                                mask=mask)
            if arrays is None:
                keep = [row for row in self.rows
                        if processes is None or row[0] in processes]
                arrays = build_event_arrays(
                    [row[6] for row in keep], [row[7] for row in keep])
            self._arrays_cache[key] = arrays
        return arrays

    def intervals_by_cpu(self, processes=None):
        """``{cpu: [(start, stop), ...]}`` sorted per CPU, memoized."""
        key = _freeze_processes(processes)
        by_cpu = self._by_cpu_cache.get(key)
        if by_cpu is None:
            by_cpu = {}
            for row in self.rows:
                if processes is None or row[0] in processes:
                    by_cpu.setdefault(row[4], []).append((row[6], row[7]))
            for intervals in by_cpu.values():
                intervals.sort()
            self._by_cpu_cache[key] = by_cpu
        return by_cpu

    def process_names(self):
        """Sorted distinct process names in the table."""
        if self._rows is None:
            return sorted(self._store.used_processes())
        return sorted({row[0] for row in self.rows})


class GpuUtilizationTable:
    """Rows of the GPU Utilization (FM) analysis."""

    COLUMNS = ("process", "pid", "engine", "packet_type",
               "submit_time", "start_execution", "finished")

    def __init__(self, rows, trace_start, trace_stop, store=None):
        self._rows = None if rows is None else list(rows)
        self._store = store
        if rows is None and store is None:
            raise ValueError("need rows or a columnar store")
        self.trace_start = trace_start
        self.trace_stop = trace_stop
        self._arrays_cache = {}

    @property
    def rows(self):
        """Row tuples, sorted by (start-execution, engine) —
        materialized lazily from the columnar store."""
        if self._rows is None:
            self._rows = sorted(self._store.rows(),
                                key=lambda row: (row[5], row[2]))
        return self._rows

    @classmethod
    def from_trace(cls, trace):
        store = trace.gpu_store() if hasattr(trace, "gpu_store") else None
        if store is not None:
            return cls(None, trace.start_time, trace.stop_time,
                       store=store)
        if hasattr(trace, "gpu_rows"):
            raw = trace.gpu_rows()
        else:
            raw = [(r.process, r.pid, r.engine, r.packet_type,
                    r.submit_time, r.start_execution, r.finished)
                   for r in trace.gpu_packets]
        rows = sorted(raw, key=lambda row: (row[5], row[2]))
        return cls(rows, trace.start_time, trace.stop_time)

    def packet_intervals(self, processes=None):
        """Yield ``(engine, start_execution, finished)`` per packet."""
        for row in self.rows:
            if processes is None or row[0] in processes:
                yield row[2], row[5], row[6]

    def packet_event_arrays(self, processes=None):
        """Sorted parallel ``(times, deltas)`` buffers of the packet
        start/finish events (see ``CpuUsagePreciseTable.
        busy_event_arrays``), memoized per process set — what
        ``measure_gpu_utilization`` sweeps."""
        from repro.metrics.kernels import build_event_arrays, interned_mask

        key = _freeze_processes(processes)
        arrays = self._arrays_cache.get(key)
        if arrays is None:
            store = self._store
            if store is not None:
                mask = None
                if processes is not None:
                    mask = interned_mask(store._process,
                                         store.process_names, processes)
                if processes is None or mask is not None:
                    arrays = build_event_arrays(store._start,
                                                store._finished, mask=mask)
            if arrays is None:
                keep = [row for row in self.rows
                        if processes is None or row[0] in processes]
                arrays = build_event_arrays(
                    [row[5] for row in keep], [row[6] for row in keep])
            self._arrays_cache[key] = arrays
        return arrays

    def process_names(self):
        if self._rows is None:
            return sorted(self._store.used_processes())
        return sorted({row[0] for row in self.rows})


def export_csv(table, path):
    """``wpaexporter`` substitute: write a WPA table to CSV.

    The first line holds trace metadata so the CSV round-trips without
    the original trace file.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["#trace", table.trace_start, table.trace_stop])
        writer.writerow(table.COLUMNS)
        writer.writerows(table.rows)


def _load_rows(path, expected_columns):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        meta = next(reader)
        if meta[0] != "#trace":
            raise ValueError(f"{path} is not a wpaexporter CSV")
        trace_start, trace_stop = int(meta[1]), int(meta[2])
        header = tuple(next(reader))
        if header != expected_columns:
            raise ValueError(
                f"unexpected columns in {path}: {header} != {expected_columns}")
        rows = [tuple(row) for row in reader]
    return rows, trace_start, trace_stop


def load_cpu_csv(path):
    """Load a CSV written from a :class:`CpuUsagePreciseTable`."""
    raw, start, stop = _load_rows(path, CpuUsagePreciseTable.COLUMNS)
    rows = [(p, int(pid), int(tid), tname, int(cpu), int(rt), int(si), int(so))
            for p, pid, tid, tname, cpu, rt, si, so in raw]
    return CpuUsagePreciseTable(rows, start, stop)


def load_gpu_csv(path):
    """Load a CSV written from a :class:`GpuUtilizationTable`."""
    raw, start, stop = _load_rows(path, GpuUtilizationTable.COLUMNS)
    rows = [(p, int(pid), engine, ptype, int(sub), int(se), int(fin))
            for p, pid, engine, ptype, sub, se, fin in raw]
    return GpuUtilizationTable(rows, start, stop)
