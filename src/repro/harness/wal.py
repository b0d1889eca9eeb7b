"""Crash-safe append-only JSONL logs: the sweep journal and the job ledger.

Both logs hold one JSON record per line, and both are written by
:class:`JsonlLog` alone: every :meth:`JsonlLog.append` writes one whole
line, flushes it and fsyncs it before it returns, so a record is on
disk before anything acts on it.  The logs differ only in their record
schemas, which their owners define
(:class:`~repro.harness.supervisor.SweepJournal`,
:class:`~repro.service.ledger.JobLedger`).

The torn-tail rule, for reader and writer alike: a line becomes a
record only once its newline is on disk.  A crash can cut short only
the append in flight, which leaves a final line without its newline.
Its fsync never returned, so nothing acted on it: :func:`read_jsonl`
drops it even when it parses, and :func:`heal_torn_tail` cuts exactly
that line off before the next append.  Any other line that does not
parse is corruption no crash explains, and raises.
"""

import json
import os
import threading


def _torn_tail_start(blob):
    """Offset where the bytes after the last newline — a torn append —
    begin (``len(blob)`` when there are none)."""
    return blob.rfind(b"\n") + 1


def read_jsonl(path, what):
    """The records of a JSONL log, without its torn tail.

    Raises ``ValueError`` naming ``what`` for a complete line that does
    not parse.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    lines = blob[:_torn_tail_start(blob)].split(b"\n")[:-1]
    entries = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except ValueError:
            raise ValueError(
                f"corrupt {what} {path!r} at line {lineno}") from None
    return entries


def heal_torn_tail(path):
    """Cut a torn final line off a JSONL log, so the next record starts
    on a line of its own.  Returns the healed size; 0 for a missing
    file."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        return 0
    keep = _torn_tail_start(blob)
    if keep < len(blob):
        with open(path, "r+b") as fh:
            fh.truncate(keep)
    return keep


class JsonlLog:
    """The one writer of a JSONL log.  Thread-safe.

    ``fresh=True`` starts the file over; otherwise the writer appends
    after healing its torn tail.  A file that is empty once opened gets
    ``header`` as its first record.
    """

    def __init__(self, path, header, fresh=False):
        self.path = str(path)
        self._lock = threading.Lock()
        size = 0 if fresh else heal_torn_tail(self.path)
        self._fh = open(self.path, "w" if fresh else "a", encoding="utf-8")
        if size == 0:
            self.append(header)

    def append(self, entry):
        line = json.dumps(entry, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            if self._fh is None:
                raise RuntimeError(f"log {self.path!r} is closed")
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
