"""Supervised experiment execution: the crash-tolerant campaign runner.

The plain executors (:mod:`repro.harness.executor`) are one-shot: a
single hung simulation stalls the sweep forever, and a single raising
run aborts it.  That is fine for a library call; it is not fine for
the campaign-scale sweeps of the core-scaling and SMT grids, where
*supervision* — not speed — decides whether the sweep finishes (the
same argument parallel GPU-simulator campaigns make for restartable
fan-out).  :class:`SupervisedExecutor` is the third backend of the
shared ``map``, beside the serial and the process-pool one, and every
CLI verb runs on it.  It supplies only ``_execute``, which keeps the
sweep alive through every failure mode the harness can encounter:

* **Deadlines** — each run attempt gets a wall-clock budget; the
  supervisor terminates the worker that blows it and respawns a fresh
  one, so one wedged simulation costs one attempt of one run, not the
  sweep.
* **Bounded retries** — a failed attempt goes again at once, up to
  ``retries`` times.  Every run is seed-determined, so a healed
  transient fault leaves the sweep's results byte-identical.
* **Quarantine** — a run that exhausts its attempts becomes a
  structured :class:`RunFailure` in the result list (taxonomy:
  ``crash | deadline | invalid-trace | cache-corrupt``) while every
  other grid point completes normally.

The cache half — restore, plausibility reject, ``cache-corrupt``
incidents and store-as-it-lands, so a re-run over the same cache
re-simulates only what never finished — is the shared ``map``'s.

The process pool here is deliberately *not*
``concurrent.futures.ProcessPoolExecutor``: killing one hung worker
of a futures pool poisons the whole executor.  Instead the supervisor
owns a small set of persistent :mod:`multiprocessing` workers joined
by pipes, multiplexed with :func:`multiprocessing.connection.wait`,
each individually terminable and respawnable.  A worker holds one run
at a time: the supervisor sends it one spec and gets back one
outcome, so a failure is charged to the run that caused it and to no
other.  Between replies the supervisor sleeps in ``wait`` on the busy
pipes until one answers or the earliest deadline passes.  Workers
stay alive across runs, so supervision adds a pipe round trip — not a
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
import stat
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection as _mpconn

from repro.harness.executor import FAILURE_KINDS  # noqa: F401 - re-exported
from repro.harness.executor import (
    RunFailure,
    _CachingExecutor,
    _app_name,
    _picklable,
    default_jobs,
    execute_spec,
)


def sweep_digest(keys):
    """Identity of a sweep: SHA-256 over its ordered spec keys.

    Uncacheable specs (key ``None``) keep their position under a
    placeholder, so two sweeps differing only in cacheable content
    still get distinct digests.  The sweep service uses it as a job's
    id and its result's ``ETag``.
    """
    blob = json.dumps([key or "?" for key in keys],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _worker_main(conn, parent_end):
    """Persistent worker loop: receive one spec, send back its outcome.

    The outcome is ``("ok", payload)`` or ``("err", type name, message,
    formatted traceback)``.  Exceptions never cross the pipe as objects
    (a custom exception class may not unpickle in the parent); the
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
            spec = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if spec is None:
            return
        try:
            outcome = ("ok", execute_spec(spec))
        except KeyboardInterrupt:
            return
        except BaseException as exc:
            outcome = ("err", type(exc).__name__, str(exc),
                       traceback.format_exc())
        try:
            conn.send(outcome)
        except KeyboardInterrupt:
            return
        except Exception as exc:
            # The payload would not pickle: send an error outcome
            # rather than wedging the pipe.
            try:
                conn.send(("err", type(exc).__name__,
                           f"result not transferable: {exc}",
                           traceback.format_exc()))
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
        self.job = None         # (index, attempt, deadline | None)
        self._spawn()

    def _spawn(self):
        self.conn, child = self.ctx.Pipe()
        self.proc = self.ctx.Process(
            target=_worker_main, args=(child, self.conn), daemon=True)
        self.proc.start()
        child.close()

    def assign(self, index, attempt, spec, deadline_s):
        """Send one run; its wall-clock budget, if any, starts now."""
        deadline = (time.monotonic() + deadline_s
                    if deadline_s is not None else None)
        self.conn.send(spec)
        self.job = (index, attempt, deadline)

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

    A worker between runs holds nothing of the last one: every run
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
        """Keep a worker idle only when it holds no run and its
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


class SupervisedExecutor(_CachingExecutor):
    """The deadline/retry/quarantine backend of the shared ``map``.

    A sibling of :class:`~repro.harness.executor.SerialExecutor` and
    :class:`~repro.harness.executor.ParallelExecutor`: the inherited
    ``map`` restores and stores cached runs and collects failures;
    this class supplies only ``_execute``.  Slots of runs that
    exhausted their attempts hold :class:`RunFailure` records instead
    of results.  ``jobs=None`` or 1 runs in process, N on N pooled
    workers, and 0 on one worker per usable CPU (none on a one-CPU
    machine) — except that a ``deadline_s`` forces process isolation
    even for ``jobs=1``, because an in-process run cannot be killed.

    A pooled worker holds one run at a time, so ``deadline_s`` is one
    run's budget, and a worker that dies or is killed charges exactly
    the run it held one attempt.  A failed attempt is retried at once
    while ``retries`` allows — re-queued by the pool, re-run in place
    by the serial backend — and quarantined after that.

    ``pool`` lends the executor a :class:`WorkerPool` to borrow its
    workers from and return them to, so they outlive this ``map``
    call; without one, every ``map`` forks its workers and reaps them
    before it returns.
    """

    def __init__(self, jobs=None, cache=None, retries=0, deadline_s=None,
                 pool=None):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if jobs is not None and jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = auto)")
        super().__init__(cache)
        self.jobs = jobs
        self.retries = retries
        self.deadline_s = deadline_s
        self.pool = pool

    def _execute(self, specs, pending):
        pool_size = self._pool_size(len(pending))
        remote, local = [], []
        for index in pending:
            picklable = pool_size and _picklable(specs[index])
            (remote if picklable else local).append(index)
        if remote:
            yield from self._run_pool(specs, remote,
                                      min(pool_size, len(remote)))
        yield from self._run_serial(specs, local)

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

    def _run_serial(self, specs, items):
        for index in items:
            for attempt in range(1, self.retries + 2):
                self.executed += 1
                try:
                    result = execute_spec(specs[index])
                except Exception as exc:
                    name = type(exc).__name__
                    slot = self._failed(
                        specs, index, attempt, _kind(name),
                        f"{name}: {exc}", traceback.format_exc())
                    if slot is not None:
                        yield slot
                        break
                else:
                    yield index, result
                    break

    def _run_pool(self, specs, items, n_workers):
        """Keep every worker busy with one run until all are resolved:
        sleep in ``wait`` until a reply arrives or the earliest deadline
        passes, then reap the replies and kill the overdue workers."""
        pool = self.pool if self.pool is not None else WorkerPool()
        queue = deque((index, 1) for index in items)
        outstanding = len(items)
        workers = pool.take(n_workers)
        try:
            while outstanding:
                self._dispatch(specs, workers, queue)
                busy = {w.conn: w for w in workers if w.job is not None}
                if not busy:
                    # A worker found dead was respawned; hand its run
                    # out again rather than wait on no pipe at all.
                    continue
                timeout = None
                if self.deadline_s is not None:
                    earliest = min(w.job[2] for w in busy.values())
                    timeout = max(0.0, earliest - time.monotonic())
                resolved = [self._reap(specs, busy[conn], queue)
                            for conn in _mpconn.wait(list(busy), timeout)]
                now = time.monotonic()
                for worker in busy.values():
                    job = worker.job
                    if job is not None and job[2] is not None \
                            and now >= job[2]:
                        worker.respawn()
                        resolved.append(self._failed(
                            specs, job[0], job[1], "deadline",
                            f"run exceeded its {self.deadline_s:g}s "
                            f"wall-clock deadline; worker terminated",
                            queue=queue))
                for slot in resolved:
                    if slot is not None:
                        outstanding -= 1
                        yield slot
        finally:
            pool.give_back(workers)
            if pool is not self.pool:
                pool.close()

    def _dispatch(self, specs, workers, queue):
        """Hand every idle worker the next queued run."""
        for worker in workers:
            if worker.job is not None or not queue:
                continue
            index, attempt = queue.popleft()
            try:
                worker.assign(index, attempt, specs[index], self.deadline_s)
            except (OSError, ValueError):
                # The worker died between runs; put the run back and
                # bring up a replacement.
                queue.appendleft((index, attempt))
                worker.respawn()
                continue
            self.executed += 1

    def _reap(self, specs, worker, queue):
        """Resolve the run of a worker whose pipe is ready: its outcome,
        or the worker's death.  ``(index, run or RunFailure)``, or None
        when the run was re-queued."""
        index, attempt, _ = worker.job
        try:
            outcome = worker.conn.recv()
        except (EOFError, OSError):
            # The worker died mid-run (segfault, OOM-kill, hard exit).
            exitcode = worker.proc.exitcode
            worker.respawn()
            return self._failed(
                specs, index, attempt, "crash",
                f"worker process died (exit code {exitcode})", queue=queue)
        worker.job = None
        if outcome[0] == "ok":
            return index, outcome[1]
        _, name, message, remote_tb = outcome
        return self._failed(specs, index, attempt, _kind(name),
                            f"{name}: {message}", remote_tb, queue)

    def _failed(self, specs, index, attempt, kind, detail, tb="",
                queue=None):
        """Charge one failed attempt of run ``index``: None when it goes
        again at once (onto ``queue``, or in place by the serial backend,
        which passes none), ``(index, RunFailure)`` when it is
        quarantined."""
        if attempt <= self.retries:
            self.retried += 1
            if queue is not None:
                queue.append((index, attempt + 1))
            return None
        spec = specs[index]
        return index, RunFailure(
            index=index, app=_app_name(spec),
            seed=spec.kwargs.get("seed", 0), kind=kind, attempts=attempt,
            detail=detail, remote_traceback=tb)


def _kind(exc_name):
    """Failure kind of an attempt that raised ``exc_name`` (by name, so
    a pipe-serialized worker error classifies like an in-process one)."""
    return "invalid-trace" if exc_name == "TraceValidationError" else "crash"
