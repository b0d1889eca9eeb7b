"""Columnar trace buffers — flat arrays instead of per-record objects.

The hot loops of a run emit one trace event per scheduling interval /
GPU packet / frame.  Buffering each as a frozen dataclass costs an
object allocation plus ``__post_init__`` validation per event and keeps
hundreds of bytes alive per record.  These column stores keep the same
information as parallel ``array('q')`` columns plus interned name
tables: an append is a handful of integer pushes, and a million
context-switch records retain ~48 MB of dataclasses but only ~8 bytes
per column here.

These stores are the one form a trace is held in: a session records
into them, and an ``EtlTrace`` or WPA table built from records or row
tuples appends those into a store first.  Emitters (scheduler, GPU
engines) construct records whose time columns are consistent by
construction, so appends skip the dataclass validation; ``rows()``
yields plain tuples in ``append``'s argument order, and ``records()``
materializes dataclass instances from them, re-running that
validation.
"""

from array import array

from repro.trace.records import (
    ContextSwitchRecord,
    FramePresentRecord,
    GpuPacketRecord,
    MarkRecord,
)


class NameTable:
    """String interning: stable small integer ids for repeated names."""

    __slots__ = ("names", "_ids")

    def __init__(self):
        self.names = []
        self._ids = {}

    def intern(self, name):
        """Return the id of ``name``, assigning one on first sight."""
        table = self._ids
        index = table.get(name)
        if index is None:
            index = len(self.names)
            table[name] = index
            self.names.append(name)
        return index

    def __len__(self):
        return len(self.names)


class _ColumnStore:
    """Shared construction and materialization of the four stores."""

    __slots__ = ()

    #: The record dataclass whose fields, in order, are the store's
    #: columns: ``append``'s arguments and the tuples ``rows`` yields.
    RECORD = None

    @classmethod
    def from_rows(cls, rows):
        """A new store holding ``rows``, tuples in ``append`` order."""
        store = cls()
        append = store.append
        for row in rows:
            append(*row)
        return store

    def records(self):
        """Dataclass records of the rows, validated as they are built."""
        record = self.RECORD
        return [record(*row) for row in self.rows()]

    def __len__(self):
        raise NotImplementedError

    def __bool__(self):
        return len(self) > 0


class CswitchColumns(_ColumnStore):
    """CPU Usage (Precise) rows as columns."""

    RECORD = ContextSwitchRecord
    __slots__ = ("process_names", "thread_names", "_process", "_pid",
                 "_tid", "_thread", "_cpu", "_ready", "_in", "_out")

    def __init__(self):
        self.process_names = NameTable()
        self.thread_names = NameTable()
        self._process = array("q")
        self._pid = array("q")
        self._tid = array("q")
        self._thread = array("q")
        self._cpu = array("q")
        self._ready = array("q")
        self._in = array("q")
        self._out = array("q")

    def append(self, process, pid, tid, thread_name, cpu,
               ready_time, switch_in_time, switch_out_time):
        # Interning is inlined (one dict probe in the common case):
        # this method is the per-context-switch hot path.
        table = self.process_names
        index = table._ids.get(process)
        if index is None:
            index = table.intern(process)
        self._process.append(index)
        self._pid.append(pid)
        self._tid.append(tid)
        table = self.thread_names
        index = table._ids.get(thread_name)
        if index is None:
            index = table.intern(thread_name)
        self._thread.append(index)
        self._cpu.append(cpu)
        self._ready.append(ready_time)
        self._in.append(switch_in_time)
        self._out.append(switch_out_time)

    def __len__(self):
        return len(self._pid)

    def used_processes(self):
        return set(self.process_names.names)

    def rows(self):
        """WPA-table tuples, no dataclass materialization."""
        processes = self.process_names.names
        threads = self.thread_names.names
        return [(processes[p], pid, tid, threads[t], cpu, r, i, o)
                for p, pid, tid, t, cpu, r, i, o
                in zip(self._process, self._pid, self._tid, self._thread,
                       self._cpu, self._ready, self._in, self._out)]


class GpuPacketColumns(_ColumnStore):
    """GPU Utilization (FM) rows as columns."""

    RECORD = GpuPacketRecord
    __slots__ = ("process_names", "engine_names", "packet_types",
                 "_process", "_pid", "_engine", "_type", "_submit",
                 "_start", "_finished")

    def __init__(self):
        self.process_names = NameTable()
        self.engine_names = NameTable()
        self.packet_types = NameTable()
        self._process = array("q")
        self._pid = array("q")
        self._engine = array("q")
        self._type = array("q")
        self._submit = array("q")
        self._start = array("q")
        self._finished = array("q")

    def append(self, process, pid, engine, packet_type,
               submit_time, start_execution, finished):
        self._process.append(self.process_names.intern(process))
        self._pid.append(pid)
        self._engine.append(self.engine_names.intern(engine))
        self._type.append(self.packet_types.intern(packet_type))
        self._submit.append(submit_time)
        self._start.append(start_execution)
        self._finished.append(finished)

    def __len__(self):
        return len(self._pid)

    def used_processes(self):
        return set(self.process_names.names)

    def rows(self):
        processes = self.process_names.names
        engines = self.engine_names.names
        types = self.packet_types.names
        return [(processes[p], pid, engines[e], types[t], sub, start, fin)
                for p, pid, e, t, sub, start, fin
                in zip(self._process, self._pid, self._engine, self._type,
                       self._submit, self._start, self._finished)]


class FrameColumns(_ColumnStore):
    """Frame-present records as columns."""

    RECORD = FramePresentRecord
    __slots__ = ("process_names", "_process", "_pid", "_present",
                 "_target_fps", "_reprojected")

    def __init__(self):
        self.process_names = NameTable()
        self._process = array("q")
        self._pid = array("q")
        self._present = array("q")
        self._target_fps = array("q")
        self._reprojected = array("b")

    def append(self, process, pid, present_time, target_fps, reprojected):
        self._process.append(self.process_names.intern(process))
        self._pid.append(pid)
        self._present.append(present_time)
        self._target_fps.append(target_fps)
        self._reprojected.append(1 if reprojected else 0)

    def __len__(self):
        return len(self._pid)

    def used_processes(self):
        return set(self.process_names.names)

    def rows(self):
        processes = self.process_names.names
        return [(processes[p], pid, present, fps, bool(re))
                for p, pid, present, fps, re
                in zip(self._process, self._pid, self._present,
                       self._target_fps, self._reprojected)]


class MarkColumns(_ColumnStore):
    """Application mark records as columns."""

    RECORD = MarkRecord
    __slots__ = ("process_names", "labels", "_process", "_pid", "_time",
                 "_label")

    def __init__(self):
        self.process_names = NameTable()
        self.labels = NameTable()
        self._process = array("q")
        self._pid = array("q")
        self._time = array("q")
        self._label = array("q")

    def append(self, process, pid, time, label):
        self._process.append(self.process_names.intern(process))
        self._pid.append(pid)
        self._time.append(time)
        self._label.append(self.labels.intern(label))

    def __len__(self):
        return len(self._pid)

    def used_processes(self):
        return set(self.process_names.names)

    def rows(self):
        processes = self.process_names.names
        labels = self.labels.names
        return [(processes[p], pid, time, labels[lab])
                for p, pid, time, lab
                in zip(self._process, self._pid, self._time, self._label)]
