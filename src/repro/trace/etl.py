"""The Event Trace Log container (our ``.etl`` file substitute).

A finished trace holds every record emitted between ``start_time`` and
``stop_time`` and can be saved to / loaded from a JSON-lines file, the
role the binary ``.etl`` files play in the paper's workflow.

Each record group is held in one columnar store from
:mod:`repro.trace.columns`, whatever the trace was built from: the
session hands over the stores it recorded into, and record lists given
to the constructor are appended into fresh stores there.  The record
lists (``cswitches``, ``frames``, ...) are read views materialized on
first access; the WPA tables never build them, they read the stores.
"""

import json
from dataclasses import asdict, fields
from operator import attrgetter

from repro.trace.columns import (
    CswitchColumns,
    FrameColumns,
    GpuPacketColumns,
    MarkColumns,
)

#: Per record group: its ``EtlTrace`` attribute, its ``kind`` in a
#: saved file, and the column store that holds it.
_GROUPS = (
    ("cswitches", "cswitch", CswitchColumns),
    ("gpu_packets", "gpu_packet", GpuPacketColumns),
    ("frames", "frame", FrameColumns),
    ("marks", "mark", MarkColumns),
)

#: A record's fields as a row, in the order its store's ``append``
#: takes them.
_ROW_OF = {store: attrgetter(*(field.name for field in fields(store.RECORD)))
           for _group, _kind, store in _GROUPS}


def _as_store(source, store_type):
    """``source`` itself when it is a ``store_type`` store, else its
    records appended into a new one."""
    if isinstance(source, store_type):
        return source
    return store_type.from_rows(map(_ROW_OF[store_type], source))


class EtlTrace:
    """An immutable-by-convention bundle of trace records."""

    def __init__(self, start_time, stop_time, cswitches=(), gpu_packets=(),
                 frames=(), marks=(), machine_name=""):
        if stop_time < start_time:
            raise ValueError("stop_time before start_time")
        self.start_time = start_time
        self.stop_time = stop_time
        self._stores = {
            "cswitches": _as_store(cswitches, CswitchColumns),
            "gpu_packets": _as_store(gpu_packets, GpuPacketColumns),
            "frames": _as_store(frames, FrameColumns),
            "marks": _as_store(marks, MarkColumns),
        }
        self._materialized = {}
        self.machine_name = machine_name

    def _group(self, name):
        records = self._materialized.get(name)
        if records is None:
            records = self._materialized[name] = self._stores[name].records()
        return records

    @property
    def cswitches(self):
        return self._group("cswitches")

    @property
    def gpu_packets(self):
        return self._group("gpu_packets")

    @property
    def frames(self):
        return self._group("frames")

    @property
    def marks(self):
        return self._group("marks")

    @property
    def duration(self):
        """Trace length in microseconds."""
        return self.stop_time - self.start_time

    @property
    def processes(self):
        """Sorted names of every process with a context switch or GPU
        packet in the trace, read from the stores' interned name
        tables without materializing records."""
        return sorted(self._stores["cswitches"].used_processes()
                      | self._stores["gpu_packets"].used_processes())

    def cswitch_store(self):
        """The :class:`~repro.trace.columns.CswitchColumns` store of
        this trace.  The batched metric kernels
        (:mod:`repro.metrics.kernels`) sweep its ``array('q')`` buffers
        directly, skipping tuple materialization entirely."""
        return self._stores["cswitches"]

    def gpu_store(self):
        """The :class:`~repro.trace.columns.GpuPacketColumns` store (see
        :meth:`cswitch_store`)."""
        return self._stores["gpu_packets"]

    def cswitch_rows(self):
        """CPU Usage (Precise) tuples ``(process, pid, tid, thread_name,
        cpu, ready, switch_in, switch_out)``, built without dataclass
        materialization."""
        return self._stores["cswitches"].rows()

    def gpu_rows(self):
        """GPU Utilization (FM) tuples ``(process, pid, engine,
        packet_type, submit, start_execution, finished)``."""
        return self._stores["gpu_packets"].rows()

    def save(self, path):
        """Write the trace as JSON lines (header line + one per record)."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "kind": "header",
                "start_time": self.start_time,
                "stop_time": self.stop_time,
                "machine_name": self.machine_name,
            }
            fh.write(json.dumps(header) + "\n")
            for group, kind, _store in _GROUPS:
                for record in self._group(group):
                    row = {"kind": kind}
                    row.update(asdict(record))
                    fh.write(json.dumps(row) + "\n")

    @classmethod
    def load(cls, path):
        """Read a trace previously written by :meth:`save`.

        Every record is validated as its dataclass before it joins its
        store; a malformed file raises ``ValueError`` naming the file
        and, for a bad record line, the line number.
        """
        stores = {kind: store() for _group, kind, store in _GROUPS}
        header = None
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                where = f"{path}:{number}"
                try:
                    row = json.loads(line)
                except ValueError as exc:
                    raise ValueError(f"{where}: not JSON ({exc})") from None
                if not isinstance(row, dict) or "kind" not in row:
                    raise ValueError(f"{where}: not a trace record object")
                kind = row.pop("kind")
                if kind == "header":
                    header = row
                    continue
                try:
                    store = stores[kind]
                except (KeyError, TypeError):
                    raise ValueError(
                        f"{where}: unknown record kind {kind!r}") from None
                try:
                    record = store.RECORD(**row)
                    store.append(*_ROW_OF[type(store)](record))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(
                        f"{where}: bad {kind} record ({exc})") from None
        if header is None:
            raise ValueError(f"{path} has no trace header line")
        try:
            start_time, stop_time = header["start_time"], header["stop_time"]
        except KeyError as exc:
            raise ValueError(f"{path}: trace header lacks {exc}") from None
        return cls(
            start_time,
            stop_time,
            cswitches=stores["cswitch"],
            gpu_packets=stores["gpu_packet"],
            frames=stores["frame"],
            marks=stores["mark"],
            machine_name=header.get("machine_name", ""),
        )
