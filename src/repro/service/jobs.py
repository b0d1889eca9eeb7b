"""Sweep jobs: validated requests, content-addressed dedup, dispatch.

A sweep submission is normalized into the *same* spec grid the CLI
``repro suite`` builds (:func:`repro.harness.suite.suite_spans`), so
its identity — :func:`repro.harness.supervisor.sweep_digest` over the
ordered cache keys — is built from the result cache's keys.  Two
requests asking for the same physics get the same digest, the same
job, and (results being seed-determined) byte-identical payloads;
that digest doubles as the job id and the result's ``ETag``.

Dispatch is a :class:`DispatcherPool`: N threads draining one bounded
FIFO.  A job whose body raises fails alone (anything that would end
the thread fails as a ``crash`` quarantine) and the thread takes the
next job, so a dispatcher bug degrades one sweep, never the daemon.
Crashed and hung simulations are the supervised executor's to kill,
respawn and quarantine.
"""

import logging
import math
import threading
import time
from collections import deque
from dataclasses import replace

from repro.hardware import GPUS, paper_machine
from repro.harness.suite import SuiteResult, aggregate_results, suite_spans
from repro.harness.supervisor import RunFailure
from repro.reporting.payloads import canonical_json_bytes, suite_payload
from repro.service.http import BadRequest
from repro.sim import SECOND

log = logging.getLogger("repro.service")

_REQUEST_KEYS = frozenset({
    "apps", "duration_s", "iterations", "machine",
    "streaming", "validate", "fault", "fault_seed",
})
_MACHINE_KEYS = frozenset({"cores", "smt", "gpu"})


class QueueFull(Exception):
    """The dispatcher queue is at capacity (-> 429 at the API edge)."""


class SweepRequest:
    """One validated ``POST /sweeps`` body.

    Field names and defaults mirror the ``repro suite`` CLI surface
    (``duration_s`` = ``--duration``, machine resolution order gpu ->
    SMT -> cores), so a request and the equivalent CLI invocation
    build identical spec grids.
    """

    def __init__(self, apps, duration_s=60.0, iterations=3, cores=None,
                 smt=True, gpu=None, streaming=False, validate=False,
                 fault=None, fault_seed=0):
        self.apps = tuple(apps)
        self.duration_s = duration_s
        self.iterations = iterations
        self.cores = cores
        self.smt = smt
        self.gpu = gpu
        self.streaming = streaming
        self.validate = validate
        self.fault = fault
        self.fault_seed = fault_seed

    @classmethod
    def from_payload(cls, payload):
        """Validate a request body; raises :class:`BadRequest`.  Integer
        fields test ``type(x) is int``, which JSON ``true`` fails."""
        unknown = set(payload) - _REQUEST_KEYS
        if unknown:
            raise BadRequest(f"unknown request fields: {sorted(unknown)}")
        apps = registry_apps(payload)
        # A float like the CLI's --duration: 1 and 1.0 give one result.
        duration_s = as_float(payload.get("duration_s", 60.0))
        if not (math.isfinite(duration_s) and int(duration_s * SECOND) >= 1):
            raise BadRequest("'duration_s' must be a number of seconds, "
                             "at least 1 microsecond")
        iterations = payload.get("iterations", 3)
        if type(iterations) is not int or iterations < 1:
            raise BadRequest("'iterations' must be an integer >= 1")
        machine = payload.get("machine", {})
        if not isinstance(machine, dict):
            raise BadRequest("'machine' must be an object")
        bad = set(machine) - _MACHINE_KEYS
        if bad:
            raise BadRequest(f"unknown machine fields: {sorted(bad)}")
        cores = machine.get("cores")
        if cores is not None and (type(cores) is not int or cores < 1):
            raise BadRequest("'machine.cores' must be an integer >= 1")
        gpu = machine.get("gpu")
        if gpu is not None and gpu not in GPUS:
            raise BadRequest(f"unknown GPU {gpu!r}; "
                             f"known: {', '.join(sorted(GPUS))}")
        smt = machine.get("smt", True)
        if not isinstance(smt, bool):
            raise BadRequest("'machine.smt' must be a boolean")
        try:
            paper_machine(gpu=gpu, smt=smt, cores=cores)
        except ValueError as exc:
            raise BadRequest(f"'machine.cores' does not fit: {exc}")
        flags = {}
        for name in ("streaming", "validate"):
            value = payload.get(name, False)
            if not isinstance(value, bool):
                raise BadRequest(f"'{name}' must be a boolean")
            flags[name] = value
        fault = payload.get("fault")
        if fault is not None:
            from repro.validate.faults import FAULTS, is_exec_fault

            if not isinstance(fault, str) or not (
                    fault in FAULTS or is_exec_fault(fault)):
                raise BadRequest(f"unknown fault: {fault!r}")
            if flags["streaming"] and not is_exec_fault(fault):
                raise BadRequest("trace faults corrupt the recorded trace; "
                                 "incompatible with 'streaming'")
        fault_seed = payload.get("fault_seed", 0)
        if type(fault_seed) is not int:
            raise BadRequest("'fault_seed' must be an integer")
        return cls(apps=apps, duration_s=duration_s, iterations=iterations,
                   cores=cores, smt=smt, gpu=gpu,
                   fault=fault, fault_seed=fault_seed, **flags)

    def machine(self):
        """The machine spec, built like the CLI's ``--gpu``/``--no-smt``/
        ``--cores``."""
        return paper_machine(gpu=self.gpu, smt=self.smt, cores=self.cores)

    def build(self):
        """``(spans, specs)`` — the exact grid ``repro suite`` runs."""
        return suite_spans(
            self.apps, machine=self.machine(),
            duration_us=int(self.duration_s * SECOND),
            iterations=self.iterations, streaming=self.streaming,
            validate=self.validate, fault=self.fault,
            fault_seed=self.fault_seed)

    def metadata(self):
        """Result metadata — identical to what ``repro suite --json``
        stores, so the payloads stay byte-identical."""
        return {"duration_s": self.duration_s,
                "iterations": self.iterations}

    def to_payload(self):
        """JSON form that round-trips through :meth:`from_payload` —
        the shape the job ledger persists for crash recovery."""
        return {
            "apps": list(self.apps),
            "duration_s": self.duration_s,
            "iterations": self.iterations,
            "machine": {"cores": self.cores, "smt": self.smt,
                        "gpu": self.gpu},
            "streaming": self.streaming,
            "validate": self.validate,
            "fault": self.fault,
            "fault_seed": self.fault_seed,
        }


def registry_apps(payload):
    """The ``apps`` list of a request body: registry keys, at least one;
    raises :class:`BadRequest`."""
    from repro.apps import REGISTRY

    apps = payload.get("apps")
    if not isinstance(apps, list) or not apps:
        raise BadRequest("'apps' must be a non-empty list of registry keys")
    bad = [a for a in apps if not isinstance(a, str) or a not in REGISTRY]
    if bad:
        raise BadRequest(f"unknown applications: {', '.join(map(str, bad))}")
    return apps


def as_float(value):
    """A JSON number as a float, else NaN (JSON ``true``/``false``
    decode to ``bool``, whose type is not ``int``)."""
    if type(value) not in (int, float):
        return math.nan
    try:
        return float(value)
    except OverflowError:       # an integer beyond every float
        return math.inf


class SweepJob:
    """One submitted sweep: state machine, progress events, result.

    States: ``queued -> running -> done | failed`` (``failed`` means
    the *service* hit an internal error; quarantined runs still finish
    ``done`` with their :class:`RunFailure` records listed).  Progress
    is an append-only event list guarded by one condition variable.
    Readers never wait on it: :meth:`events_since` returns what is
    there, and a reader that wants more registers a :meth:`watch`
    callback, which every append and terminal transition calls.

    Terminal transitions are idempotent and first-writer-wins: an
    expired shutdown drain can fail a job a dispatcher still holds, and
    the dispatcher's eventual ``finish``/``fail`` becomes a no-op
    instead of resurrecting it.  Every mutator returns True only when it
    actually performed the transition.
    """

    def __init__(self, request, digest, spans, specs, executor,
                 backend):
        self.request = request
        self.digest = digest
        self.id = digest
        self.spans = spans
        self.specs = specs
        self.executor = executor
        self.backend = backend
        self.state = "queued"
        self.executed = 0
        self.cache_hits = 0
        self.failures = []
        self.result_bytes = None
        self.error = None
        self.recovered = None   # "finished" | "interrupted" when replayed
        self.ledger_id = digest  # the id the job's ledger records carry
        self.finished_at = None
        self._events = []
        self._watchers = []
        self._cond = threading.Condition()

    def etag(self):
        return f'"{self.digest}"'

    def terminal(self):
        with self._cond:
            return self.state in ("done", "failed")

    # -- writer side (dispatchers + the shutdown drain) ---------------

    def mark_running(self):
        with self._cond:
            if self.state != "queued":
                return False
            self.state = "running"
            return True

    def add_event(self, event):
        with self._cond:
            self._events.append(event)
            self._wake_locked()

    def _wake_locked(self):
        """After an append: wake :meth:`wait_done` and every watcher."""
        self._cond.notify_all()
        for wake in self._watchers:
            wake()

    def finish(self, suite_result):
        """Seal a completed sweep: payload bytes, counters, done event."""
        payload = suite_payload(suite_result,
                                metadata=self.request.metadata())
        body = canonical_json_bytes(payload)
        with self._cond:
            if self.state in ("done", "failed"):
                return False
            self.result_bytes = body
            self.failures = list(suite_result.failures)
            self.executed = self.executor.executed
            self.cache_hits = self.executor.cache_hits
            self._events.append({
                "event": "done",
                "id": self.id,
                "etag": self.etag(),
                "executed": self.executed,
                "cache_hits": self.cache_hits,
                "failures": [f.to_payload() for f in self.failures],
            })
            self.state = "done"
            self.finished_at = time.monotonic()
            self._wake_locked()
            return True

    def fail(self, exc):
        return self._fail_locked(f"{type(exc).__name__}: {exc}")

    def fail_quarantined(self, kind, detail):
        """Terminal failure attributed to the service itself (a crashed
        dispatcher, an expired drain), spelled in the exact quarantine
        taxonomy so API consumers see one failure language.
        """
        failure = RunFailure(index=-1, app="*", seed=0, kind=kind,
                             attempts=1, detail=detail)
        return self._fail_locked(detail, failure=failure)

    def _fail_locked(self, error, failure=None):
        with self._cond:
            if self.state in ("done", "failed"):
                return False
            self.error = error
            if failure is not None:
                self.failures.append(failure)
            self._events.append({
                "event": "failed", "id": self.id, "error": error,
                "failures": [f.to_payload() for f in self.failures],
            })
            self.state = "failed"
            self.finished_at = time.monotonic()
            self._wake_locked()
            return True

    # -- reader side ---------------------------------------------------

    def events_since(self, seen):
        """``(events after the first seen, exhausted)``; never blocks.

        ``exhausted`` is True once the job is terminal: its last event
        is then among those returned (or was seen before), which is a
        stream's termination condition.
        """
        with self._cond:
            return (self._events[seen:],
                    self.state in ("done", "failed"))

    def watch(self, wake):
        """Call ``wake()`` after every event appended from now on;
        returns the callable that stops it (idempotent).

        ``wake`` runs on the appending thread with the job's lock held,
        so it must return at once and never raise: an exception from
        it would fail the job.
        """
        with self._cond:
            self._watchers.append(wake)

        def unwatch():
            with self._cond:
                if wake in self._watchers:
                    self._watchers.remove(wake)
        return unwatch

    def wait_done(self, timeout=60.0):
        """Block until terminal (tests and the drain path); True if so."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.state not in ("done", "failed"):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 1.0))
            return True

    def status_payload(self):
        with self._cond:
            done_apps = sum(1 for e in self._events
                            if e.get("event") == "app")
            completed = max((e["completed"] for e in self._events
                             if e.get("event") == "app"), default=0)
            payload = {
                "id": self.id,
                "state": self.state,
                "backend": self.backend,
                "request": self.request.to_payload(),
                "progress": {
                    "total_runs": len(self.specs),
                    "completed_runs": completed,
                    "total_apps": len(self.spans),
                    "completed_apps": done_apps,
                },
                "failures": [f.to_payload() for f in self.failures],
            }
            if self.recovered is not None:
                payload["recovered"] = self.recovered
            if self.state == "done":
                payload["etag"] = self.etag()
                payload["executed"] = self.executed
                payload["cache_hits"] = self.cache_hits
            if self.error is not None:
                payload["error"] = self.error
            return payload


class JobStore:
    """Jobs by digest, with in-flight dedup and TTL eviction.

    ``find`` accepts the full digest or any unambiguous prefix of at
    least 8 hex characters (the submission response hands out both).

    ``ttl_s`` bounds memory in a long-running daemon: terminal jobs
    older than the TTL are evicted lazily on every store access (the
    ledger keeps the durable record, and the result cache makes a
    resubmission of an evicted sweep nearly free).
    """

    def __init__(self, ttl_s=None):
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (None = keep forever)")
        self.ttl_s = ttl_s
        self.evicted = 0
        self._jobs = {}
        self._lock = threading.Lock()

    def _evict_locked(self, now=None):
        if self.ttl_s is None:
            return
        now = time.monotonic() if now is None else now
        expired = [digest for digest, job in self._jobs.items()
                   if job.finished_at is not None
                   and now - job.finished_at > self.ttl_s]
        for digest in expired:
            del self._jobs[digest]
            self.evicted += 1

    def dedup(self, digest):
        """The live job already covering ``digest``, if any.

        A ``failed`` job does not dedup — resubmission is the retry.
        """
        with self._lock:
            self._evict_locked()
            job = self._jobs.get(digest)
            if job is not None and job.state == "failed":
                return None
            return job

    def add(self, job):
        with self._lock:
            self._evict_locked()
            self._jobs[job.digest] = job

    def discard(self, job_id):
        """Roll back an admission the queue refused (429 path)."""
        with self._lock:
            self._jobs.pop(job_id, None)

    def find(self, job_id):
        with self._lock:
            self._evict_locked()
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            if len(job_id) >= 8:
                matches = [j for d, j in self._jobs.items()
                           if d.startswith(job_id)]
                if len(matches) == 1:
                    return matches[0]
            return None

    def all(self):
        with self._lock:
            self._evict_locked()
            return list(self._jobs.values())


class DispatcherPool:
    """N dispatcher threads draining one bounded FIFO of sweep jobs.

    Parallelism *across* jobs lives here; parallelism *inside* a job
    still belongs to its executor.  ``max_queue`` bounds the backlog —
    :meth:`submit` raises :class:`QueueFull` at capacity so the API
    edge can answer 429 instead of queueing unboundedly.

    A dispatcher thread never dies or wedges mid-job on its own
    account: a job whose body raises fails alone and the thread takes
    the next one.  Crash and hang detection belong to the
    :class:`~repro.harness.supervisor.SupervisedExecutor` underneath,
    which kills, respawns and quarantines its worker processes.

    ``observer(event, job)`` is called on ``started``/``finished``/
    ``failed`` transitions the pool performs — the daemon wires the
    write-ahead ledger through it.
    """

    def __init__(self, workers=1, max_queue=None, observer=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (None = unbounded)")
        self.workers = workers
        self.max_queue = max_queue
        self.observer = observer
        self._queue = deque()
        self._busy = set()      # dispatcher threads holding a job
        self._given_up = set()  # threads an expired drain left running
        self._cond = threading.Condition()
        self._closed = False
        self._threads = [
            threading.Thread(target=self._loop, daemon=True,
                             name=f"dispatch-{n}")
            for n in range(workers)]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------

    def submit(self, job, force=False):
        """Enqueue ``job``; :class:`QueueFull` at capacity.

        ``force`` bypasses the bound — recovery re-enqueues ledger jobs
        that were already admitted before the crash.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("dispatcher pool is closed")
            if (not force and self.max_queue is not None
                    and len(self._queue) >= self.max_queue):
                raise QueueFull(
                    f"dispatcher queue at capacity "
                    f"({self.max_queue} jobs waiting)")
            self._queue.append(job)
            self._cond.notify_all()

    def queue_depth(self):
        with self._cond:
            return len(self._queue)

    def saturated(self):
        with self._cond:
            return (self.max_queue is not None
                    and len(self._queue) >= self.max_queue)

    # -- lifecycle -----------------------------------------------------

    def drain(self, timeout=None):
        """Block until every queued/running job is resolved.

        Returns False on timeout, giving up on the dispatchers that
        still hold a job: :meth:`close` does not wait for them.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        with self._cond:
            while self._queue or self._busy:
                remaining = 1.0
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._given_up.update(self._busy)
                        return False
                self._cond.wait(min(remaining, 1.0))
            return True

    def close(self):
        """Drop the backlog and join every dispatcher but those an
        expired drain gave up on."""
        with self._cond:
            self._closed = True
            self._queue.clear()
            self._cond.notify_all()
        for thread in self._threads:
            if thread not in self._given_up:
                thread.join(timeout=10)

    # -- dispatcher loop -----------------------------------------------

    def _loop(self):
        me = threading.current_thread()
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                job = self._queue.popleft()
                self._busy.add(me)
            try:
                self._run(job)
            except Exception as exc:
                if job.fail(exc):
                    self._observe("failed", job)
            except BaseException:
                # Interrupts go to the main thread, so what lands here
                # (SystemExit) would end only this thread: it ends only
                # its job instead, in the quarantine taxonomy.
                detail = f"dispatcher {me.name} crashed mid-job"
                log.exception("%s (job %s)", detail, job.id)
                if job.fail_quarantined("crash", detail):
                    self._observe("failed", job)
            finally:
                with self._cond:
                    self._busy.remove(me)
                    self._cond.notify_all()

    def _run(self, job):
        """Execute one sweep, one ``executor.map`` per app span — which
        is what turns a monolithic sweep into streamable progress."""
        if not job.mark_running():
            return              # failed while queued (expired drain)
        self._observe("started", job)
        runs = [None] * len(job.specs)
        failures = []
        for app, lo, hi in job.spans:
            if job.terminal():
                return          # an expired drain already failed it
            span_runs = job.executor.map(job.specs[lo:hi])
            runs[lo:hi] = span_runs
            # Span-local failure indices rebase onto the grid so the
            # API reports the same indices a one-shot ``run_suite`` of
            # the full grid would.
            failures.extend(
                replace(f, index=lo + f.index) for f in span_runs
                if isinstance(f, RunFailure))
            job.add_event({
                "event": "app",
                "app": app.name,
                "completed": hi,
                "total": len(job.specs),
                "failures": len(failures),
            })
        if job.finish(SuiteResult(
                results=aggregate_results(job.spans, runs),
                failures=failures)):
            self._observe("finished", job)

    def _observe(self, event, job):
        observer = self.observer
        if observer is None:
            return
        try:
            observer(event, job)
        except Exception:       # pragma: no cover - observer backstop
            log.exception("job observer failed for %s on %s",
                          event, job.id)
