"""The sweep service: routing, dedup, durability, lifecycle.

:class:`SweepService` is the whole daemon minus the sockets — a
synchronous ``dispatch(HttpRequest) -> HttpResponse`` that tests can
call directly without binding a port.  The asyncio server calls it on
its event loop for ``GET``/``HEAD``, which answer from memory under
short-held locks and never take the admission lock, and on a thread
for every other method (a ``POST`` may fsync the ledger, build a spec
grid or recompute goldens).  One read touches the disk: the first
``GET`` of a committed table parses the file once, and its body is
cached until a goldens update.

Endpoints::

    GET  /                      service index
    GET  /healthz               liveness + job/queue counters
    GET  /readyz                admission: accepting new sweeps?
    POST /sweeps                submit a sweep (dedup by digest; 429
                                + Retry-After when the queue is full)
    GET  /sweeps                list jobs
    GET  /sweeps/{id}           job status + progress
    GET  /sweeps/{id}/result    final suite payload (ETag, immutable)
    GET  /sweeps/{id}/stream    NDJSON progress events (chunked)
    GET  /tables/goldens[/app]  committed golden fingerprints
    GET  /frontiers[/app]       committed DSE Pareto frontiers
    POST /goldens               re-record goldens (409 when busy)
    POST /shutdown              drain (bounded) in-flight jobs, stop

Durability: with a ``ledger``, every job transition is written ahead
to a fsynced JSONL file; on boot the ledger replays — finished jobs
re-resolve through the content-addressed result cache (zero
simulation, byte-identical payloads), interrupted ones re-enqueue and
complete, re-simulating only grid points that never finished.

Overload: the dispatcher queue is bounded (429 + ``Retry-After`` at
capacity, ``/readyz`` flips to 503).

Supervision has one layer: the supervised executor under every job
hands each worker one run at a time, kills a run that blows its
deadline, respawns a worker that died, and charges either failure to
the one run that worker held, quarantining it in the ``crash |
deadline | invalid-trace | cache-corrupt`` taxonomy.  The dispatcher
threads above it only queue jobs; a job whose own body raises fails
alone.

Workers: the daemon keeps one supervisor ``WorkerPool`` for its
lifetime and lends it to every job's executor, so a simulation worker
is forked on first demand and then reused by every later app span and
sweep, instead of being forked and reaped once per span.

Cache discipline: a sweep result's identity *is* its digest (the grid
is seed-determined), so ``/sweeps/{id}/result`` is immutable and
served with a far-future ``Cache-Control``; the golden tables can be
mutated, so they revalidate via ``ETag`` each time.
"""

import json
import logging
import math
import re
import threading

from repro.harness.cache import ResultCache, spec_key
from repro.harness.supervisor import (
    SupervisedExecutor,
    WorkerPool,
    sweep_digest,
)
from repro.service.http import (
    BadRequest,
    HttpResponse,
    error_response,
    json_response,
)
from repro.service.jobs import (
    DispatcherPool,
    JobStore,
    QueueFull,
    SweepJob,
    SweepRequest,
    as_float,
    registry_apps,
)
from repro.service.ledger import JobLedger, replay
from repro.service.tables import TableStore

log = logging.getLogger("repro.service")

#: Immutable content-addressed results: cache forever.
IMMUTABLE = "public, max-age=31536000, immutable"
#: Mutable tables: reuse only after an ETag revalidation.
REVALIDATE = "public, no-cache"

_SWEEP = re.compile(r"^/sweeps/([0-9a-f]{8,64})$")
_SWEEP_RESULT = re.compile(r"^/sweeps/([0-9a-f]{8,64})/result$")
_SWEEP_STREAM = re.compile(r"^/sweeps/([0-9a-f]{8,64})/stream$")
_TABLES = re.compile(r"^/tables/goldens(?:/([A-Za-z0-9_-]+))?$")
_FRONTIERS = re.compile(r"^/frontiers(?:/([A-Za-z0-9_-]+))?$")

ENDPOINTS = {
    "POST /sweeps": "submit a sweep (429 + Retry-After at capacity)",
    "GET /sweeps": "list submitted sweeps",
    "GET /sweeps/{id}": "job status and progress",
    "GET /sweeps/{id}/result": "final suite payload (ETag, immutable)",
    "GET /sweeps/{id}/stream": "NDJSON progress events",
    "GET /healthz": "liveness, job/queue counters",
    "GET /readyz": "admission: 200 accepting, 503 saturated/draining",
    "GET /tables/goldens[/{app}]": "committed golden fingerprints",
    "GET /frontiers[/{app}]": "committed DSE Pareto frontiers",
    "POST /goldens": "re-record golden fingerprints",
    "POST /shutdown": "drain in-flight jobs (bounded), then stop",
}


class EventFeed:
    """A job's progress events as the ``stream`` of an
    :class:`~repro.service.http.HttpResponse`.

    :meth:`pull` returns every event not pulled before, one compact
    ``sort_keys`` NDJSON line each (the canonical encoder is indented;
    streams want line-framing), joined into one chunk.
    """

    def __init__(self, job):
        self._job = job
        self._seen = 0

    def watch(self, wake):
        return self._job.watch(wake)

    def pull(self):
        events, exhausted = self._job.events_since(self._seen)
        self._seen += len(events)
        return b"".join(
            (json.dumps(event, sort_keys=True, separators=(",", ":"))
             + "\n").encode("utf-8")
            for event in events), exhausted


class SweepService:
    """Routing + durable job lifecycle over the shared harness machinery.

    Executor configuration (``jobs``/``cache``/``retries``/
    ``deadline_s``) is stored, not resolved: every submission
    builds a *fresh* :class:`SupervisedExecutor` and asks it for its
    backend then, so the auto-mode CPU clamp tracks the machine the
    daemon runs on now — not the one it started on.  The executors
    borrow their worker processes from one :class:`WorkerPool` that
    lives as long as the service and is shut down by :meth:`close`.

    ``ledger`` makes the job index durable (see the module docstring);
    it implies a result cache (``<ledger>.cache`` when none is given),
    because a ledger can say *that* a sweep finished but only the
    content-addressed cache can restore *what* it produced.
    """

    def __init__(self, jobs=0, cache=None, retries=0, deadline_s=None,
                 golden_path=None, dse_path=None, ledger=None,
                 job_workers=1, max_queue=None, job_ttl_s=None,
                 drain_s=60.0):
        self.jobs = jobs
        if cache is None and ledger is not None:
            cache = str(ledger) + ".cache"
        self.cache_dir = str(cache) if cache is not None else None
        self.retries = retries
        self.deadline_s = deadline_s
        self.drain_s = drain_s
        self.store = JobStore(ttl_s=job_ttl_s)
        self.runner = DispatcherPool(workers=job_workers,
                                     max_queue=max_queue,
                                     observer=self._observe_job)
        self.tables = TableStore(golden_path=golden_path,
                                 dse_path=dse_path)
        self.worker_pool = WorkerPool()     # lent to every job's executor
        self.state = "running"
        self.on_stopped = None
        self.recovered = {"finished": 0, "interrupted": 0}
        self.rejected = 0       # submissions refused with 429
        self._lock = threading.Lock()
        self._ledger = None
        if ledger is not None:
            replayed = replay(ledger)
            self._ledger = JobLedger(ledger).open()
            self._recover(replayed)

    def _make_executor(self):
        cache = (ResultCache(self.cache_dir)
                 if self.cache_dir is not None else None)
        return SupervisedExecutor(jobs=self.jobs, cache=cache,
                                  retries=self.retries,
                                  deadline_s=self.deadline_s,
                                  pool=self.worker_pool)

    def close(self):
        self.runner.close()
        self.worker_pool.close()
        if self._ledger is not None:
            self._ledger.close()

    # -- durability ----------------------------------------------------

    def _observe_job(self, event, job):
        """Dispatcher transition hook: the write-ahead ledger.

        Records go under the job's ``ledger_id``: the id of the
        ``submitted`` record a replayed job came from, even when the
        request now digests to another id.  A job replayed from a
        ledger that already records it as finished appends nothing on
        its way back to ``done``: its ``started``/``finished`` pair is
        on disk from the daemon that ran it.  A ``failed`` outcome is
        always recorded.
        """
        if self._ledger is None or (
                event != "failed" and job.recovered == "finished"):
            return
        if event == "started":
            self._ledger.record_started(job.ledger_id)
        elif event == "finished":
            self._ledger.record_finished(
                job.ledger_id, executed=job.executed,
                failures=[f.to_payload() for f in job.failures])
        elif event == "failed":
            self._ledger.record_failed(job.ledger_id,
                                       job.error or "unknown error")

    def _recover(self, replayed):
        """Re-admit every unresolved ledger job on daemon boot.

        Finished jobs re-enqueue too: their grid points live in the
        result cache, so they re-resolve without one simulation and
        their result pointers (digest -> payload bytes) are restored.
        ``failed`` jobs stay failed — resubmission is the retry.
        A record that no longer validates (apps renamed, old format)
        is logged and skipped; recovery never takes the daemon down.
        Older ledgers carry ``"salvage": false`` in every submitted
        record, from when runs could salvage a partial trace: that key
        is dropped, and the job recovers under its current digest,
        while its ledger records stay under the id they were submitted
        with.  A ``true`` one fails validation like any removed field.
        """
        for entry in replayed:
            if entry.state == "failed":
                continue
            kind = "finished" if entry.state == "finished" else "interrupted"
            request = entry.request
            if request.get("salvage") is False:
                request = {k: v for k, v in request.items()
                           if k != "salvage"}
            try:
                sweep = SweepRequest.from_payload(request)
                self._admit(sweep, recovered=kind, ledger_id=entry.id)
            except (BadRequest, QueueFull) as exc:
                log.warning("ledger job %s not recoverable: %s",
                            entry.id[:12], exc)
                continue
            self.recovered[kind] += 1
        if any(self.recovered.values()):
            log.info("ledger replay: %d finished, %d interrupted job(s) "
                     "re-admitted", self.recovered["finished"],
                     self.recovered["interrupted"])

    def _admit(self, sweep, recovered=None, ledger_id=None):
        """Build, record and enqueue one sweep job (dedup-aware).

        ``recovered`` (``"finished"`` or ``"interrupted"``) marks a job
        replayed from the ledger: its ``submitted`` record is already on
        disk under ``ledger_id``, and it re-enqueues past the queue
        bound.  Both are set before the job is enqueued, so a dispatcher
        that starts it at once already sees them.
        """
        spans, specs = sweep.build()
        digest = sweep_digest([spec_key(spec) for spec in specs])
        with self._lock:
            job = self.store.dedup(digest)
            if job is not None:
                return job
            executor = self._make_executor()
            job = SweepJob(sweep, digest, spans, specs, executor,
                           backend=executor.planned_backend(len(specs)))
            job.recovered = recovered
            if ledger_id is not None:
                job.ledger_id = ledger_id
            if self._ledger is not None and recovered is None:
                self._ledger.record_submitted(digest, sweep.to_payload())
            self.store.add(job)
            try:
                self.runner.submit(job, force=recovered is not None)
            except QueueFull:
                # Roll the admission back: the 429'd job must neither
                # dedup future submissions nor resurrect from the
                # ledger on restart.
                self.store.discard(digest)
                if self._ledger is not None:
                    self._ledger.record_failed(
                        digest, "rejected: job queue at capacity")
                raise
        return job

    # -- dispatch ------------------------------------------------------

    def dispatch(self, request):
        """Route one request; never raises."""
        try:
            return self._route(request)
        except BadRequest as exc:
            return error_response(400, str(exc))
        except Exception as exc:        # pragma: no cover - backstop
            return error_response(500, f"{type(exc).__name__}: {exc}")

    def _route(self, request):
        path, method = request.path, request.method
        if path == "/":
            return self._get_only(method) or self._index()
        if path == "/healthz":
            return self._get_only(method) or self._health()
        if path == "/readyz":
            return self._get_only(method) or self._ready()
        if path == "/sweeps":
            if method == "POST":
                return self._submit(request)
            return self._get_only(method) or self._list_jobs()
        match = _SWEEP_RESULT.match(path)
        if match:
            return self._get_only(method) \
                or self._job(match.group(1), self._result, request)
        match = _SWEEP_STREAM.match(path)
        if match:
            return self._get_only(method) \
                or self._job(match.group(1), self._stream_response)
        match = _SWEEP.match(path)
        if match:
            return self._get_only(method) \
                or self._job(match.group(1), self._status)
        match = _TABLES.match(path)
        if match:
            return self._get_only(method) or self._table(
                request, self.tables.goldens_body, match.group(1))
        match = _FRONTIERS.match(path)
        if match:
            return self._get_only(method) or self._table(
                request, self.tables.frontiers_body, match.group(1))
        if path == "/goldens":
            if method != "POST":
                return error_response(405, "use POST /goldens")
            return self._update_goldens(request)
        if path == "/shutdown":
            if method != "POST":
                return error_response(405, "use POST /shutdown")
            return self._shutdown(request)
        return error_response(404, f"no such endpoint: {path}")

    @staticmethod
    def _get_only(method):
        if method not in ("GET", "HEAD"):
            return error_response(405, "read-only endpoint; use GET")
        return None

    # -- handlers ------------------------------------------------------

    def _index(self):
        return json_response({
            "service": "repro-sweeps",
            "state": self.state,
            "endpoints": ENDPOINTS,
        })

    def _health(self):
        """Liveness: answers as long as the process serves requests."""
        jobs = self.store.all()
        runner = self.runner
        return json_response({
            "state": self.state,
            "jobs": {
                state: sum(1 for j in jobs if j.state == state)
                for state in ("queued", "running", "done", "failed")
            },
            "queue": {
                "depth": runner.queue_depth(),
                "max": runner.max_queue,
                "workers": runner.workers,
                "rejected": self.rejected,
            },
            "evicted_jobs": self.store.evicted,
            "recovered": dict(self.recovered),
        })

    def _ready(self):
        """Admission: distinguishes *accepting* from merely *alive*."""
        if self.state != "running":
            return error_response(503, "service is not accepting sweeps",
                                  ready=False, state=self.state)
        if self.runner.saturated():
            return json_response(
                {"ready": False, "state": self.state,
                 "reason": "dispatcher queue at capacity"},
                status=503,
                headers={"Retry-After": str(self._retry_after())})
        return json_response({"ready": True, "state": self.state})

    def _retry_after(self):
        """Seconds a 429/503 client should wait before retrying —
        crude but honest: one queue slot per second, clamped."""
        return max(1, min(60, self.runner.queue_depth()))

    def _submit(self, request):
        if self.state != "running":
            return error_response(
                503, "service is draining; not accepting new sweeps",
                state=self.state)
        sweep = SweepRequest.from_payload(request.json())
        try:
            job = self._admit(sweep)
        except QueueFull as exc:
            self.rejected += 1
            return json_response(
                {"error": str(exc), "state": self.state},
                status=429,
                headers={"Retry-After": str(self._retry_after())})
        deduplicated = job.request is not sweep
        return json_response(
            self._submission_payload(job, deduplicated=deduplicated),
            status=200 if deduplicated else 202)

    @staticmethod
    def _submission_payload(job, deduplicated):
        return {
            "id": job.id,
            "state": job.state,
            "backend": job.backend,
            "total_runs": len(job.specs),
            "deduplicated": deduplicated,
            "links": {
                "status": f"/sweeps/{job.id}",
                "result": f"/sweeps/{job.id}/result",
                "stream": f"/sweeps/{job.id}/stream",
            },
        }

    def _list_jobs(self):
        return json_response({
            "jobs": [job.status_payload() for job in self.store.all()],
        })

    def _job(self, job_id, handler, *args):
        job = self.store.find(job_id)
        if job is None:
            return error_response(404, f"no such sweep: {job_id}")
        return handler(job, *args)

    @staticmethod
    def _status(job):
        return json_response(job.status_payload())

    @staticmethod
    def _result(job, request):
        if job.state == "failed":
            return error_response(500, job.error or "sweep failed")
        if job.state != "done":
            return json_response(job.status_payload(), status=202)
        headers = {
            "ETag": job.etag(),
            "Cache-Control": IMMUTABLE,
            "Content-Type": "application/json; charset=utf-8",
        }
        if request.if_none_match() == job.etag():
            return HttpResponse(status=304, headers=headers)
        return HttpResponse(status=200, body=job.result_bytes,
                            headers=headers)

    @staticmethod
    def _stream_response(job):
        return HttpResponse(
            status=200, stream=EventFeed(job),
            headers={"Content-Type": "application/x-ndjson"})

    def _table(self, request, body_fn, app):
        entry = body_fn(app)
        if entry is None:
            what = f"app {app!r}" if app else "table file"
            return error_response(404, f"no data for {what}")
        etag, body = entry
        headers = {
            "ETag": etag,
            "Cache-Control": REVALIDATE,
            "Content-Type": "application/json; charset=utf-8",
        }
        if request.if_none_match() == etag:
            return HttpResponse(status=304, headers=headers)
        return HttpResponse(status=200, body=body, headers=headers)

    def _update_goldens(self, request):
        apps = registry_apps(request.json())
        if not self.tables.mutation_lock.acquire(blocking=False):
            return error_response(
                409, "a goldens update is already in progress; "
                     "retry when it completes")
        try:
            summary = self.tables.update_goldens(apps)
        finally:
            self.tables.mutation_lock.release()
        return json_response(summary)

    def _shutdown(self, request):
        drain_s = self.drain_s
        payload = request.json()
        if "drain_s" in payload:
            drain_s = as_float(payload["drain_s"])
            # 1e400 decodes to infinity, which JSON cannot echo back.
            if not (math.isfinite(drain_s) and drain_s >= 0):
                raise BadRequest("'drain_s' must be a finite number >= 0")
        with self._lock:
            if self.state == "running":
                self.state = "draining"
                threading.Thread(target=self._drain_and_stop,
                                 args=(drain_s,),
                                 daemon=True,
                                 name="sweep-drain").start()
        return json_response({"state": self.state, "drain_s": drain_s},
                             status=202)

    def _drain_and_stop(self, drain_s):
        if not self.runner.drain(timeout=drain_s):
            # The drain deadline expired on a long job: fail everything
            # still in flight as `deadline` quarantines so clients'
            # streams terminate, then stop anyway.
            for job in self.store.all():
                if job.state in ("queued", "running"):
                    if job.fail_quarantined(
                            "deadline",
                            f"shutdown drain deadline ({drain_s:g}s) "
                            f"expired before this sweep finished"):
                        self._observe_job("failed", job)
            log.warning("drain deadline (%gs) expired; in-flight jobs "
                        "failed as deadline quarantines", drain_s)
        self.state = "stopped"
        callback = self.on_stopped
        if callback is not None:
            callback()
