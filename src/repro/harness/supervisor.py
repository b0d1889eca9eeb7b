"""Supervised experiment execution: the crash-tolerant campaign runner.

The plain executors (:mod:`repro.harness.executor`) are one-shot: a
single hung simulation stalls the sweep forever, a single raising
worker aborts it, and a killed process loses every completed grid
point.  That is fine for a 90-run Table II pass; it is not fine for
the campaign-scale sweeps of the core-scaling and SMT grids, where
*supervision* — not speed — decides whether the sweep finishes (the
same argument parallel GPU-simulator campaigns make for restartable
fan-out).  This module wraps both backends in a supervisor that keeps
the sweep alive through every failure mode the harness can encounter:

* **Deadlines** — each run attempt gets a wall-clock budget; a
  watchdog terminates the worker that blows it and respawns a fresh
  one, so one wedged simulation costs one deadline, not the sweep.
* **Bounded retries** — failed attempts are re-queued up to
  ``retries`` times with deterministic seeded exponential backoff
  (``random.Random(f"{seed}:{index}:{attempt}")``), so transient
  faults heal without ever making the sweep nondeterministic.
* **Quarantine** — a run that exhausts its attempts becomes a
  structured :class:`RunFailure` in the result list (taxonomy:
  ``crash | deadline | invalid-trace | cache-corrupt``) while every
  other grid point completes normally.
* **Checkpoint journal** — every resolved run is appended to a
  flushed-and-fsynced JSONL journal (:mod:`repro.harness.wal`, the
  log the service's job ledger is written with too); ``resume=``
  restarts a killed sweep, restoring completed runs through the
  content-addressed result cache and re-running only what is
  missing.  Because every
  grid point is seed-determined, the resumed sweep is bit-identical
  to an uninterrupted one.

The process pool here is deliberately *not*
``concurrent.futures.ProcessPoolExecutor``: killing one hung worker
of a futures pool poisons the whole executor.  Instead the supervisor
owns a small set of persistent :mod:`multiprocessing` workers joined
by pipes, multiplexed with :func:`multiprocessing.connection.wait`,
each individually terminable and respawnable.  Workers stay alive
across runs, so supervision adds pipe traffic and a poll tick — not a
process spawn — per grid point (the ``BENCH_supervisor`` benchmark
holds the overhead under 3% on the 150-run grid).  They also stay
alive across ``map`` calls when the caller lends the executor a
:class:`WorkerPool`: the sweep daemon calls ``map`` once per app span
and keeps one pool for its lifetime, so a span borrows a warm worker
instead of forking and reaping one.
"""

import hashlib
import json
import multiprocessing
import os
import random
import stat
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mpconn

from repro.harness.cache import ResultCache
from repro.harness.executor import (
    _cached_result_ok,
    _picklable,
    default_jobs,
    execute_spec,
)
from repro.harness.wal import JsonlLog, read_jsonl

#: The complete failure taxonomy, in the order the docs present it.
FAILURE_KINDS = ("crash", "deadline", "invalid-trace", "cache-corrupt")

#: First line of every journal file.
JOURNAL_FORMAT = "repro-sweep-journal-v1"

#: Supervisor poll tick (seconds): bounds deadline-detection latency
#: and backoff wake-ups without measurable idle cost.
_TICK_S = 0.05


@dataclass(frozen=True)
class RunFailure:
    """One quarantined grid point.

    Takes the failed run's slot in the executor's result list (callers
    distinguish it from a run by type) and is collected on
    ``executor.failures``; ``kind`` is one of :data:`FAILURE_KINDS`.
    """

    index: int
    app: str
    seed: int
    kind: str
    attempts: int
    detail: str
    spec_key: str = None
    remote_traceback: str = ""

    def to_payload(self):
        return {
            "index": self.index,
            "app": self.app,
            "seed": self.seed,
            "kind": self.kind,
            "attempts": self.attempts,
            "detail": self.detail,
            "spec_key": self.spec_key,
        }

    @classmethod
    def from_payload(cls, data):
        return cls(
            index=data["index"], app=data["app"], seed=data["seed"],
            kind=data["kind"], attempts=data["attempts"],
            detail=data["detail"], spec_key=data.get("spec_key"))


def sweep_digest(keys):
    """Identity of a sweep: SHA-256 over its ordered spec keys.

    Uncacheable specs (key ``None``) keep their position under a
    placeholder, so two sweeps differing only in cacheable content
    still get distinct digests.  Stored in the journal header and
    verified on resume — resuming the wrong journal is an error, not
    a silently wrong sweep.
    """
    blob = json.dumps([key or "?" for key in keys],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SweepJournal:
    """Append-only JSONL checkpoint file of one sweep.

    Line 1 is a header (``format``, sweep ``digest``, ``total`` run
    count); every later line resolves one run index (``status`` of
    ``ok`` or ``failed``, the spec's cache ``key``, and the failure
    payload when quarantined).  Lines go through the shared
    :class:`~repro.harness.wal.JsonlLog` writer, so a SIGKILL loses at
    most the line being written: :meth:`load` drops that torn line, and
    a resume cuts it off before appending.
    """

    def __init__(self, path):
        self.path = str(path)
        self._log = None

    def start(self, digest, total, fresh=True):
        """Open for writing; ``fresh=False`` appends (resume)."""
        self._log = JsonlLog(self.path, {"format": JOURNAL_FORMAT,
                                         "digest": digest, "total": total},
                             fresh=fresh)

    def record(self, index, key, status, partial=False, failure=None):
        self._log.append({"index": index, "key": key, "status": status,
                          "partial": partial, "failure": failure})

    def close(self):
        if self._log is not None:
            self._log.close()
            self._log = None

    @staticmethod
    def load(path):
        """``(header, {index: last entry})`` of a journal on disk."""
        header, entries = None, {}
        for entry in read_jsonl(path, "sweep journal"):
            if header is None:
                if entry.get("format") != JOURNAL_FORMAT:
                    raise ValueError(f"{path!r} is not a sweep journal")
                header = entry
            else:
                entries[entry["index"]] = entry
        if header is None:
            raise ValueError(f"{path!r} is empty")
        return header, entries


def _worker_main(conn, parent_end):
    """Persistent worker loop: recv a chunk of specs, send back one
    batched outcome message.

    A job is ``(indices, specs)`` — K grid points resolved in one pipe
    round-trip, so per-run IPC latency is paid once per chunk rather
    than once per run (the campaign-scale fix for per-run dispatch
    overhead dominating small simulations).  The reply is ``(indices,
    "batch", outcomes)`` with one outcome per spec, in order:
    ``("ok", payload)`` or ``("err", type name, message, formatted
    traceback)``.  Exceptions never cross the pipe as objects (a
    custom exception class may not unpickle in the parent); the
    formatted worker-side traceback is what survives for reporting.

    ``parent_end`` is the supervisor's end of this worker's pipe, which
    a forked child inherits.  It is closed first: while the child holds
    it, a killed supervisor never reads as EOF here and the worker
    blocks in ``recv`` forever.  The other sockets a fork inherits are
    released too (:func:`_release_inherited_sockets`).
    """
    parent_end.close()
    _release_inherited_sockets(keep=conn.fileno())
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if job is None:
            return
        indices, specs = job
        outcomes = []
        for spec in specs:
            try:
                outcome = ("ok", execute_spec(spec))
            except KeyboardInterrupt:
                return
            except BaseException as exc:
                outcome = ("err", type(exc).__name__, str(exc),
                           traceback.format_exc())
            outcomes.append(outcome)
        try:
            conn.send((indices, "batch", outcomes))
        except KeyboardInterrupt:
            return
        except Exception as exc:
            # Some payload would not pickle: degrade every slot to an
            # error rather than wedging the pipe.
            try:
                conn.send((indices, "batch", [
                    ("err", type(exc).__name__,
                     f"result not transferable: {exc}",
                     traceback.format_exc())
                    for _ in specs]))
            except Exception:
                return


def _release_inherited_sockets(keep):
    """Point every socket descriptor a forked worker inherited, except
    ``keep`` and the standard streams, at ``/dev/null``.

    A pooled worker can outlive every socket its parent had open when
    it forked — a daemon's listening socket and client connections,
    the pipe ends of earlier workers.  While the worker holds a copy, a
    socket the parent closes never really closes: the peer gets no EOF
    and a killed parent's earlier workers never see theirs.  ``dup2``
    rather than ``close`` keeps each descriptor number taken, so a stale
    socket object closing it later cannot hit an unrelated file.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    try:
        fds = [int(name) for name in os.listdir(fd_dir)]
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd <= 2 or fd in (keep, devnull):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                pass            # the listing's own descriptor, now gone
    finally:
        os.close(devnull)


class _Worker:
    """One supervised worker process and its command pipe."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.job = None         # ([(index, attempt), ...], deadline | None)
        self._spawn()

    def _spawn(self):
        self.conn, child = self.ctx.Pipe()
        self.proc = self.ctx.Process(
            target=_worker_main, args=(child, self.conn), daemon=True)
        self.proc.start()
        child.close()

    def assign(self, entries, specs, deadline_s):
        """Send a chunk: ``entries`` is ``[(index, attempt), ...]``.

        The chunk's wall-clock budget is ``deadline_s`` per member —
        K serial runs legitimately take K deadlines, so the watchdog
        scales with the chunk rather than killing healthy batches.
        """
        deadline = (time.monotonic() + deadline_s * len(entries)
                    if deadline_s is not None else None)
        self.conn.send(([index for index, _ in entries], specs))
        self.job = (list(entries), deadline)

    def overdue(self, now):
        return self.job is not None and self.job[1] is not None \
            and now >= self.job[1]

    def respawn(self):
        self.discard()
        self._spawn()

    def discard(self):
        """Terminate the process (SIGTERM, then SIGKILL) and close up."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5)
        self.job = None

    def shutdown(self):
        """Polite exit for an idle worker; force for a busy one."""
        if self.job is None and self.proc.is_alive():
            try:
                self.conn.send(None)
                self.proc.join(timeout=1)
            except (OSError, ValueError):
                pass
        self.discard()


class WorkerPool:
    """Idle supervised workers, lent to executors across ``map`` calls.

    A worker between chunks holds nothing of the last one: every run
    builds its own environment, kernel, trace session and GPU from a
    pickled spec, so a worker one sweep leaves idle can serve the
    next.  The pool never forks ahead of demand — :meth:`take` forks
    only what its idle set cannot cover — so it grows to the most
    workers lent at once.  Thread-safe: every dispatcher thread of the
    daemon borrows from the same pool.
    """

    def __init__(self):
        self._ctx = multiprocessing.get_context()
        self._idle = []
        self._closed = False
        self._lock = threading.Lock()

    def take(self, n):
        """``n`` workers: idle ones first (respawned if their process
        died while idle), then freshly forked ones."""
        with self._lock:
            workers = [self._idle.pop()
                       for _ in range(min(n, len(self._idle)))]
        for worker in workers:
            if not worker.proc.is_alive():
                worker.respawn()
        workers += [_Worker(self._ctx) for _ in range(n - len(workers))]
        return workers

    def give_back(self, workers):
        """Keep a worker idle only when it holds no chunk and its
        process is alive; shut every other one down.  After
        :meth:`close` every worker is shut down — a dispatcher abandoned
        during a drain can return its workers late."""
        doomed = []
        with self._lock:
            for worker in workers:
                if (not self._closed and worker.job is None
                        and worker.proc.is_alive()):
                    self._idle.append(worker)
                else:
                    doomed.append(worker)
        for worker in doomed:
            worker.shutdown()

    def close(self):
        """Shut down every idle worker; later returns are shut down."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.shutdown()


class SupervisedExecutor:
    """Deadline/retry/quarantine/checkpoint wrapper over both backends.

    Drop-in for the plain executors' ``map`` contract, with one
    extension: slots of runs that exhausted their attempts hold
    :class:`RunFailure` records instead of results (also collected on
    ``failures``; ``incidents`` holds non-fatal ``cache-corrupt``
    recoveries).  ``jobs`` follows :func:`resolve_executor` semantics
    — except that a ``deadline_s`` forces process isolation even for
    ``jobs=1``, because an in-process run cannot be killed.

    ``chunk`` batches K specs per worker pipe round-trip: results come
    back as one message per chunk, so per-run dispatch latency is paid
    ``1/K`` times — the campaign-scale knob for sweeps of many small
    runs.  Deadlines scale with the chunk (K runs get K budgets) and
    retries always re-run as singletons.

    ``journal`` writes a fresh checkpoint journal; ``resume`` loads an
    existing one, verifies it describes this exact sweep, restores
    completed runs via the result cache and continues appending to the
    same file.  Either implies a cache (an anonymous
    ``<journal>.cache`` if the caller passed none) — a journal without
    a cache could say *that* a run completed but not restore *what* it
    produced.

    ``pool`` lends the executor a :class:`WorkerPool` to borrow its
    workers from and return them to, so they outlive this ``map``
    call; without one, every ``map`` forks its workers and reaps them
    before it returns.
    """

    def __init__(self, jobs=None, cache=None, retries=0, deadline_s=None,
                 backoff_s=0.0, seed=0, journal=None, resume=None,
                 chunk=1, pool=None):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if jobs is not None and jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = auto)")
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        if journal is not None and resume is not None:
            raise ValueError("pass either journal (fresh) or resume, "
                             "not both")
        self.jobs = jobs
        self.chunk = chunk
        self.retries = retries
        self.deadline_s = deadline_s
        self.backoff_s = backoff_s
        self.seed = seed
        self.pool = pool
        self.journal_path = str(journal) if journal is not None else None
        self.resume_path = str(resume) if resume is not None else None
        checkpoint = self.journal_path or self.resume_path
        if cache is None and checkpoint is not None:
            cache = ResultCache(checkpoint + ".cache")
        self.cache = cache
        self.executed = 0       # simulation attempts actually run
        self.rejected = 0       # cached entries failing plausibility
        self.resumed = 0        # runs restored via journal + cache
        self.retried = 0        # attempts re-queued after a failure
        self.failures = []      # final RunFailure records
        self.incidents = []     # non-fatal recoveries (cache-corrupt)

    @property
    def cache_hits(self):
        """Grid points restored from the content-addressed cache —
        the counter that proves a recovered sweep re-simulated nothing
        it had already finished."""
        return self.cache.hits if self.cache is not None else 0

    # -- map -----------------------------------------------------------

    def map(self, specs):
        """Run every spec; result slots hold runs or RunFailures."""
        specs = list(specs)
        keys = [self._key_for(spec) for spec in specs]
        digest = sweep_digest(keys)
        results = [None] * len(specs)
        done = [False] * len(specs)
        completed_before = self._load_resume(specs, keys, digest)
        journal = None
        if self.journal_path or self.resume_path:
            journal = SweepJournal(self.journal_path or self.resume_path)
            journal.start(digest, len(specs),
                          fresh=self.resume_path is None)
        try:
            pending = []
            for index, spec in enumerate(specs):
                restored = self._restore_cached(
                    specs, keys, index, results, journal,
                    from_journal=index in completed_before)
                if restored:
                    done[index] = True
                else:
                    pending.append(index)
            if pending:
                self._execute(specs, keys, pending, results, journal)
        finally:
            if journal is not None:
                journal.close()
        return results

    def _key_for(self, spec):
        if self.cache is None or spec.kwargs.get("keep_trace"):
            return None
        return self.cache.key_for(spec)

    def _load_resume(self, specs, keys, digest):
        """Indices the resumed journal marks complete (``ok``)."""
        if self.resume_path is None:
            return frozenset()
        header, entries = SweepJournal.load(self.resume_path)
        if header["digest"] != digest or header["total"] != len(specs):
            raise ValueError(
                f"journal {self.resume_path!r} describes a different "
                f"sweep (digest/run-count mismatch); not resuming")
        # `failed` entries are deliberately not restored: a resume is
        # a fresh chance for runs that were quarantined last time.
        return frozenset(index for index, entry in entries.items()
                         if entry["status"] == "ok")

    def _restore_cached(self, specs, keys, index, results, journal,
                        from_journal):
        """Try to satisfy one grid point from the cache.

        Returns True when restored.  A corrupt entry is recorded as a
        non-fatal ``cache-corrupt`` incident (the classified load
        already deleted the bad file) and the run recomputes; an
        implausible entry is invalidated and recomputes.
        """
        key = keys[index]
        if key is None:
            return False
        status, hit = self.cache.load_classified(key)
        if status == "corrupt":
            self.incidents.append(RunFailure(
                index=index, app=_app_name(specs[index]),
                seed=specs[index].kwargs.get("seed", 0),
                kind="cache-corrupt", attempts=0, spec_key=key,
                detail="cache entry unreadable; deleted and recomputed"))
            return False
        if status != "hit":
            return False
        if not _cached_result_ok(hit[0], specs[index]):
            self.rejected += 1
            self.cache.invalidate(key)
            return False
        results[index] = hit[0]
        if from_journal:
            self.resumed += 1
        if journal is not None:
            journal.record(index, key, "ok",
                           partial=getattr(hit[0], "partial", False))
        return True

    # -- execution backends --------------------------------------------

    def _execute(self, specs, keys, pending, results, journal):
        pool_size = self._pool_size(len(pending))
        if pool_size == 0:
            self._run_serial(specs, keys, pending, results, journal)
            return
        remote = [i for i in pending if _picklable(specs[i])]
        local = [i for i in pending if not _picklable(specs[i])]
        if remote:
            self._run_pool(specs, keys, remote, results, journal,
                           min(pool_size, len(remote)))
        if local:
            self._run_serial(specs, keys, local, results, journal)

    def planned_backend(self, n_pending):
        """Human-readable backend a sweep of ``n_pending`` runs gets.

        ``"serial"`` or ``"pool-N"``.  Evaluated at call time — the
        auto-mode CPU clamp inside :meth:`_pool_size` consults the
        *current* usable-CPU count, so a long-running daemon that asks
        per sweep submission tracks affinity changes instead of
        freezing the startup-time answer (the PR-7 clamp would
        otherwise be decided exactly once).
        """
        size = self._pool_size(n_pending)
        return "serial" if size == 0 else f"pool-{size}"

    def _pool_size(self, n_pending):
        """Worker count, or 0 for in-process serial execution."""
        jobs = self.jobs
        if jobs == 0:
            # Auto mode clamps to the usable CPUs, and a one-CPU
            # machine gets no pool at all: a single pipe worker is
            # pure IPC overhead.  Explicit jobs=N keeps its pool.
            jobs = default_jobs()
            if jobs == 1:
                jobs = None
        if jobs is None or jobs == 1:
            # Serial — unless a deadline demands a killable worker.
            return 1 if self.deadline_s is not None else 0
        return min(jobs, n_pending)

    def _run_serial(self, specs, keys, items, results, journal):
        for index in items:
            attempt = 0
            while True:
                attempt += 1
                try:
                    result = execute_spec(specs[index])
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    self.executed += 1
                    if self._retry(index, attempt):
                        continue
                    self._fail(specs, keys, index, _classify(exc),
                               attempt, f"{type(exc).__name__}: {exc}",
                               results, journal,
                               tb=traceback.format_exc())
                    break
                self.executed += 1
                self._complete(specs, keys, index, result, results,
                               journal)
                break

    def _run_pool(self, specs, keys, items, results, journal, n_workers):
        pool = self.pool if self.pool is not None else WorkerPool()
        queue = deque((index, 1, 0.0) for index in items)
        outstanding = len(items)
        workers = pool.take(n_workers)
        try:
            while outstanding:
                now = time.monotonic()
                self._dispatch(specs, workers, queue, now)
                busy = {w.conn: w for w in workers if w.job is not None}
                if not busy:
                    # Everything left is waiting out a backoff window.
                    time.sleep(min(_TICK_S, max(
                        0.0, min(nb for _, _, nb in queue) - now)))
                    continue
                for conn in _mpconn.wait(list(busy), timeout=_TICK_S):
                    outstanding -= self._reap(
                        specs, keys, busy[conn], results, journal, queue)
                now = time.monotonic()
                for worker in list(busy.values()):
                    if worker.overdue(now):
                        outstanding -= self._expire(
                            specs, keys, worker, results, journal, queue)
        finally:
            pool.give_back(workers)
            if pool is not self.pool:
                pool.close()

    def _dispatch(self, specs, workers, queue, now):
        for worker in workers:
            if worker.job is not None or not queue:
                continue
            entries = self._take_chunk(queue, now)
            if not entries:
                continue
            try:
                worker.assign(entries, [specs[i] for i, _ in entries],
                              self.deadline_s)
            except (OSError, ValueError):
                # The worker died between runs; give the chunk back
                # and bring up a replacement.
                for index, attempt in reversed(entries):
                    queue.appendleft((index, attempt, now))
                worker.respawn()

    def _take_chunk(self, queue, now):
        """Pop up to ``chunk`` ready first-attempt entries (one rotation
        of the queue), or a single ready retry.

        Retries always travel alone: a singleton keeps the deadline
        budget per-run precise and a flaky spec from re-poisoning a
        whole batch.
        """
        entries = []
        for _ in range(len(queue)):
            if len(entries) >= self.chunk:
                break
            index, attempt, not_before = queue.popleft()
            if not_before > now or (attempt > 1 and entries):
                queue.append((index, attempt, not_before))
                continue
            entries.append((index, attempt))
            if attempt > 1:
                break
        return entries

    def _reap(self, specs, keys, worker, results, journal, queue):
        """Handle one ready pipe: a batched outcome or a dead worker.

        Returns the number of grid points finally resolved (the rest
        were re-queued for another attempt).
        """
        entries, _ = worker.job
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            # The worker died mid-chunk (segfault, OOM-kill, hard
            # exit).  Results are batched per chunk, so nothing from
            # this chunk survived; every member is charged one failed
            # attempt (retries re-run as singletons).
            exitcode = worker.proc.exitcode
            worker.respawn()
            resolved = 0
            for index, attempt in entries:
                self.executed += 1
                if self._retry(index, attempt, queue):
                    continue
                self._fail(specs, keys, index, "crash", attempt,
                           f"worker process died (exit code {exitcode})",
                           results, journal)
                resolved += 1
            return resolved
        worker.job = None
        _, _, outcomes = message
        resolved = 0
        for (index, attempt), outcome in zip(entries, outcomes):
            self.executed += 1
            resolved += self._settle(specs, keys, index, attempt,
                                     outcome, results, journal, queue)
        return resolved

    def _settle(self, specs, keys, index, attempt, outcome, results,
                journal, queue):
        """Resolve one chunk member's outcome; 1 if final, 0 if retried."""
        if outcome[0] == "ok":
            self._complete(specs, keys, index, outcome[1], results,
                           journal)
            return 1
        _, exc_name, exc_message, remote_tb = outcome
        if self._retry(index, attempt, queue):
            return 0
        self._fail(specs, keys, index,
                   "invalid-trace" if exc_name == "TraceValidationError"
                   else "crash",
                   attempt, f"{exc_name}: {exc_message}",
                   results, journal, tb=remote_tb)
        return 1

    def _expire(self, specs, keys, worker, results, journal, queue):
        """Kill a worker that blew its deadline; retry or quarantine."""
        entries, _ = worker.job
        worker.respawn()
        resolved = 0
        for index, attempt in entries:
            self.executed += 1
            if self._retry(index, attempt, queue):
                continue
            self._fail(specs, keys, index, "deadline", attempt,
                       f"chunk exceeded its {self.deadline_s:g}s-per-run "
                       f"wall-clock deadline; worker terminated",
                       results, journal)
            resolved += 1
        return resolved

    # -- bookkeeping ---------------------------------------------------

    def _retry(self, index, attempt, queue=None):
        """Re-queue after a failed attempt if the budget allows."""
        if attempt > self.retries:
            return False
        self.retried += 1
        delay = self._backoff_delay(index, attempt)
        if queue is None:       # serial backend blocks in place
            if delay > 0:
                time.sleep(delay)
        else:
            queue.append((index, attempt + 1,
                          time.monotonic() + delay))
        return True

    def _backoff_delay(self, index, attempt):
        """Deterministic jittered exponential backoff, in seconds."""
        if self.backoff_s <= 0:
            return 0.0
        rng = random.Random(f"{self.seed}:{index}:{attempt}")
        return self.backoff_s * (2 ** (attempt - 1)) * (0.5 + rng.random())

    def _complete(self, specs, keys, index, result, results, journal):
        results[index] = result
        key = keys[index]
        if key is not None:
            self.cache.store(key, result)
        if journal is not None:
            journal.record(index, key, "ok",
                           partial=getattr(result, "partial", False))

    def _fail(self, specs, keys, index, kind, attempts, detail, results,
              journal, tb=""):
        failure = RunFailure(
            index=index, app=_app_name(specs[index]),
            seed=specs[index].kwargs.get("seed", 0), kind=kind,
            attempts=attempts, detail=detail, spec_key=keys[index],
            remote_traceback=tb)
        results[index] = failure
        self.failures.append(failure)
        if journal is not None:
            journal.record(index, keys[index], "failed",
                           failure=failure.to_payload())


def _classify(exc):
    """Failure kind of an in-process exception (name-based so the
    check works identically on pipe-serialized worker errors)."""
    return ("invalid-trace" if type(exc).__name__ == "TraceValidationError"
            else "crash")


def _app_name(spec):
    return spec.app if isinstance(spec.app, str) else spec.app.name
