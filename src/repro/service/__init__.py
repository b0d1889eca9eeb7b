"""Sweep service: the daemon face of the measurement harness.

``repro serve`` exposes the suite/golden/DSE machinery over HTTP —
submissions dedup on the sweep digest, results are content-addressed
(``ETag`` = digest) and byte-identical to ``repro suite --json``
output, and progress streams as NDJSON while the supervised executor
works through the grid.  A write-ahead job ledger makes the job index
durable across daemon crashes, and a bounded multi-worker dispatcher
pool sheds overload with 429s; crashed and hung runs are the
supervised executor's to kill, respawn and quarantine.  See
``docs/architecture.md`` ("Sweep service" and "Durable service") for
the full design.
"""

from repro.service.daemon import ENDPOINTS, SweepService
from repro.service.http import BadRequest, HttpRequest, HttpResponse
from repro.service.jobs import (
    DispatcherPool,
    JobStore,
    QueueFull,
    SweepJob,
    SweepRequest,
)
from repro.service.ledger import JobLedger, LedgerJob, replay
from repro.service.server import ServiceServer, serve
from repro.service.tables import TableStore

__all__ = [
    "BadRequest",
    "DispatcherPool",
    "ENDPOINTS",
    "HttpRequest",
    "HttpResponse",
    "JobLedger",
    "JobStore",
    "LedgerJob",
    "QueueFull",
    "replay",
    "ServiceServer",
    "serve",
    "SweepJob",
    "SweepRequest",
    "SweepService",
    "TableStore",
]
