"""Write-ahead job ledger: the durable record of every sweep job.

The in-memory :class:`~repro.service.jobs.JobStore` dies with the
daemon; the ledger is what survives.  Every job transition is appended
to a flushed-and-fsynced JSONL file *before* the transition takes
effect, in the same spirit (and format discipline) as the supervisor's
checkpoint journal:

    {"format": "repro-job-ledger-v1"}                       <- header
    {"event": "submitted", "id": <digest>, "request": {...}}
    {"event": "started",   "id": <digest>}
    {"event": "finished",  "id": <digest>, "executed": N, ...}
    {"event": "failed",    "id": <digest>, "error": "..."}

The job id is the sweep digest — the content address shared with the
result cache — so a replayed ``submitted`` record is everything needed
to rebuild the job byte-identically: the request re-validates into the
same spec grid, finished grid points restore from the cache, and only
work that never completed re-simulates.

Crash discipline is shared with :class:`~repro.harness.supervisor.
SweepJournal`: a SIGKILL can lose at most the line being written, so
:func:`replay` tolerates exactly one torn final line
(:func:`~repro.harness.supervisor.read_jsonl`), and
:meth:`JobLedger.open` truncates that torn tail before appending
(:func:`~repro.harness.supervisor.heal_torn_tail`) so the file never
holds an interior corrupt record.
"""

import json
import os
import threading
from dataclasses import dataclass, field

from repro.harness.supervisor import heal_torn_tail, read_jsonl

#: First line of every ledger file.
LEDGER_FORMAT = "repro-job-ledger-v1"

#: Job states a replayed ledger can report, in lifecycle order.
LEDGER_STATES = ("submitted", "started", "finished", "failed")


@dataclass
class LedgerJob:
    """One job's latest durable state, as replayed from the ledger."""

    id: str
    request: dict
    state: str = "submitted"
    executed: int = 0
    failures: list = field(default_factory=list)
    error: str = None

    @property
    def interrupted(self):
        """True when the daemon died before resolving this job."""
        return self.state in ("submitted", "started")


class JobLedger:
    """Append-only fsynced JSONL ledger of job transitions.

    Thread-safe: dispatcher workers and the submission path append
    concurrently.  Every record is flushed and fsynced before the call
    returns, so an acknowledged transition is on disk before anything
    acts on it.
    """

    def __init__(self, path):
        self.path = str(path)
        self._fh = None
        self._lock = threading.Lock()

    def open(self):
        """Open for appending, healing a torn tail from a prior crash.

        A brand-new (or empty) ledger gets the header line; an existing
        one is truncated back to its last complete line so a record
        interrupted by SIGKILL never corrupts the next append.
        """
        tail = heal_torn_tail(self.path)
        self._fh = open(self.path, "a", encoding="utf-8")
        if tail == 0:
            self._write({"format": LEDGER_FORMAT})
        return self

    def record_submitted(self, job_id, request_payload):
        self._write({"event": "submitted", "id": job_id,
                     "request": request_payload})

    def record_started(self, job_id):
        self._write({"event": "started", "id": job_id})

    def record_finished(self, job_id, executed=0, failures=()):
        self._write({"event": "finished", "id": job_id,
                     "executed": executed, "failures": list(failures)})

    def record_failed(self, job_id, error):
        self._write({"event": "failed", "id": job_id, "error": error})

    def _write(self, entry):
        line = json.dumps(entry, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            if self._fh is None:
                raise RuntimeError("ledger is not open")
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def replay(path):
    """Replay a ledger into ``[LedgerJob, ...]`` in submission order.

    Never raises for damage a crash can cause: a missing file replays
    empty, a torn final line (no trailing newline — the kill caught an
    append mid-write) is ignored, and records referencing an id with no
    surviving ``submitted`` line (its request is what we need to
    rebuild the job) are dropped.  A file that is not a ledger at all
    raises ``ValueError`` — replaying the wrong file must be loud.
    """
    try:
        entries = read_jsonl(path, "job ledger")
    except FileNotFoundError:
        return []
    jobs, order = {}, []
    header_seen = False
    for entry in entries:
        if not header_seen:
            if not isinstance(entry, dict) \
                    or entry.get("format") != LEDGER_FORMAT:
                raise ValueError(f"{path!r} is not a job ledger")
            header_seen = True
            continue
        _apply(jobs, order, entry)
    return [jobs[job_id] for job_id in order]


def _apply(jobs, order, entry):
    """Fold one replayed record into the job map (unknown ids/events
    from a partial or future-version ledger are skipped, not fatal)."""
    if not isinstance(entry, dict):
        return
    job_id = entry.get("id")
    event = entry.get("event")
    if not isinstance(job_id, str) or event not in LEDGER_STATES:
        return
    if event == "submitted":
        request = entry.get("request")
        if not isinstance(request, dict):
            return
        if job_id not in jobs:
            order.append(job_id)
        # A resubmission after a failure restarts the lifecycle.
        jobs[job_id] = LedgerJob(id=job_id, request=request)
        return
    job = jobs.get(job_id)
    if job is None:
        return                  # transition without a surviving submit
    job.state = event
    if event == "finished":
        job.executed = entry.get("executed", 0)
        job.failures = list(entry.get("failures", ()))
    elif event == "failed":
        job.error = entry.get("error")
