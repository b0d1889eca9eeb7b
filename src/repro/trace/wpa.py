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

from repro.trace.columns import CswitchColumns, GpuPacketColumns


class _WpaTable:
    """One WPA table over one column store of its trace.

    ``rows`` tuples are a read view built from the store on first use;
    the per-process-set event buffers the metric folds sweep come from
    the store's ``array('q')`` columns and are memoized, so every
    windowed query over the same table — ``measure_tlp`` plus hundreds
    of ``instantaneous_tlp`` windows — shares one sorted array instead
    of re-extracting and re-sorting the records each time.  Like the
    trace it comes from, a table is immutable by convention.
    """

    #: The column store type, and the two columns ``rows`` sorts by.
    STORE = None
    ORDER = ()

    def __init__(self, rows, trace_start, trace_stop):
        """``rows`` is the table's :attr:`STORE` store, or row tuples
        in :attr:`COLUMNS` order, appended into a new one."""
        if not isinstance(rows, self.STORE):
            rows = self.STORE.from_rows(rows)
        self._store = rows
        self._rows = None
        self.trace_start = trace_start
        self.trace_stop = trace_stop
        self._arrays_cache = {}

    @property
    def rows(self):
        """Row tuples sorted by the :attr:`ORDER` columns, built from
        the store when first needed."""
        if self._rows is None:
            first, second = self.ORDER
            self._rows = sorted(self._store.rows(),
                                key=lambda row: (row[first], row[second]))
        return self._rows

    def _event_arrays(self, processes, opens, closes):
        """Sorted parallel ``(times, deltas)`` buffers of the intervals
        the store columns ``opens``/``closes`` bound, memoized per
        process set (see :func:`repro.metrics.kernels.
        build_event_arrays`)."""
        from repro.metrics.kernels import build_event_arrays, interned_mask

        key = None if processes is None else frozenset(processes)
        arrays = self._arrays_cache.get(key)
        if arrays is None:
            store = self._store
            mask = None
            if processes is not None:
                mask = interned_mask(store._process, store.process_names,
                                     processes)
            arrays = build_event_arrays(opens, closes, mask=mask)
            self._arrays_cache[key] = arrays
        return arrays

    def process_names(self):
        """Sorted distinct process names in the table."""
        return sorted(self._store.used_processes())


class CpuUsagePreciseTable(_WpaTable):
    """Rows of the CPU Usage (Precise) analysis, sorted by (switch-in,
    cpu)."""

    COLUMNS = ("process", "pid", "tid", "thread_name", "cpu",
               "ready_time", "switch_in_time", "switch_out_time")
    STORE = CswitchColumns
    ORDER = (6, 4)

    @classmethod
    def from_trace(cls, trace):
        """Extract the table from an :class:`~repro.trace.etl.EtlTrace`:
        it reads the trace's cswitch store, so no record or row tuple
        is built until someone asks for ``rows``."""
        return cls(trace.cswitch_store(), trace.start_time, trace.stop_time)

    def busy_intervals(self, processes=None):
        """Yield ``(cpu, start, stop)`` run intervals, optionally
        restricted to a set of process names."""
        for row in self.rows:
            if processes is None or row[0] in processes:
                yield row[4], row[6], row[7]

    def busy_event_arrays(self, processes=None):
        """The switch-in/out event buffers ``measure_tlp`` sweeps."""
        return self._event_arrays(processes, self._store._in,
                                  self._store._out)


class GpuUtilizationTable(_WpaTable):
    """Rows of the GPU Utilization (FM) analysis, sorted by
    (start-execution, engine)."""

    COLUMNS = ("process", "pid", "engine", "packet_type",
               "submit_time", "start_execution", "finished")
    STORE = GpuPacketColumns
    ORDER = (5, 2)

    @classmethod
    def from_trace(cls, trace):
        """Extract the table from a trace's GPU-packet store."""
        return cls(trace.gpu_store(), trace.start_time, trace.stop_time)

    def packet_intervals(self, processes=None):
        """Yield ``(engine, start_execution, finished)`` per packet."""
        for row in self.rows:
            if processes is None or row[0] in processes:
                yield row[2], row[5], row[6]

    def packet_event_arrays(self, processes=None):
        """The packet start/finish event buffers
        ``measure_gpu_utilization`` sweeps."""
        return self._event_arrays(processes, self._store._start,
                                  self._store._finished)


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


def _load_table(path, table, types):
    """A ``table`` class read from an :func:`export_csv` file, each row
    converted by ``types`` (one callable per column) into its store as
    read; a malformed file raises ``ValueError`` naming it (and the line)."""
    store = table.STORE()
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        meta = next(reader, [])
        if meta[:1] != ["#trace"] or len(meta) < 3:
            raise ValueError(f"{path} is not a wpaexporter CSV")
        try:
            trace_start, trace_stop = int(meta[1]), int(meta[2])
            header = tuple(next(reader, ()))
            if header != table.COLUMNS:
                raise ValueError(
                    f"unexpected columns {header} != {table.COLUMNS}")
            for row in reader:
                if len(row) != len(types):
                    raise ValueError(f"{len(row)} fields, not {len(types)}")
                store.append(*(convert(x) for convert, x in zip(types, row)))
        except (ValueError, OverflowError, csv.Error) as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return table(store, trace_start, trace_stop)


def load_cpu_csv(path):
    """Load a CSV written from a :class:`CpuUsagePreciseTable`."""
    return _load_table(path, CpuUsagePreciseTable,
                       (str, int, int, str, int, int, int, int))


def load_gpu_csv(path):
    """Load a CSV written from a :class:`GpuUtilizationTable`."""
    return _load_table(path, GpuUtilizationTable,
                       (str, int, str, str, int, int, int))
