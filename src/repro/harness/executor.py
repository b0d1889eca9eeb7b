"""Execution engine: fan out independent simulation grid points.

Every measurement the harness takes — an iteration of the Table II
protocol, one cell of the Fig. 8 SMT grid, one core count of the
Fig. 4 scaling sweep — is an independent, seed-determined simulation:
it builds its own :class:`~repro.sim.environment.Environment`, its own
kernel and its own trace session.  Nothing is shared between grid
points, so they can run in any order and on any number of worker
processes and still produce bit-identical results.

This module is the single submission path for those grid points:

* :class:`RunSpec` — a picklable description of one simulation
  (application, machine, seed, scheduler knobs);
* ``_CachingExecutor.map`` — the one ``map`` every executor inherits:
  cache lookup, plausibility check, store-as-it-lands and the
  :class:`RunFailure` bookkeeping.  A backend supplies only
  ``_execute``, which yields each pending slot as it resolves;
* :class:`SerialExecutor` — runs specs in submission order in the
  current process (the seed behaviour);
* :class:`ParallelExecutor` — fans specs out over a
  ``concurrent.futures.ProcessPoolExecutor``; specs that cannot be
  pickled (e.g. an application instance carrying a lambda) fall back
  to in-process execution instead of failing;
* :class:`~repro.harness.supervisor.SupervisedExecutor` — the third
  backend, with deadlines, retries and quarantine (every CLI verb
  runs on it);
* :func:`resolve_executor` — maps the library's ``jobs=N`` /
  ``executor=`` / ``cache=`` keyword surface onto a backend.

With a :class:`~repro.harness.cache.ResultCache`, ``map`` restores
every cached grid point it can and stores each fresh result as soon
as it lands, so re-running a benchmark suite skips already-computed
grid points, and a sweep that dies keeps every run it finished.  A
quarantined slot is never stored.  ``keep_trace=True`` runs bypass
the cache entirely: traces are large, and callers who keep them want
the live artifacts.
"""

import os
import pickle
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from dataclasses import dataclass, field, replace

from repro.automation import AUTOIT
from repro.hardware import paper_machine
from repro.sim import SECOND

#: Default values of every :func:`repro.harness.runner.run_app_once`
#: knob.  Specs are normalized against these so the same grid point
#: hashes to the same cache key regardless of which keywords the
#: caller spelled out.  (The 60-second duration mirrors
#: ``runner.DEFAULT_DURATION_US``; it lives here to keep the import
#: graph acyclic — runner imports this module.)
RUN_DEFAULTS = {
    "machine": None,
    "duration_us": 60 * SECOND,
    "seed": 0,
    "driver_mode": AUTOIT,
    "keep_trace": False,
    "gpu_method": "sum",
    "background_services": True,
    "turbo": True,
    "dispatch_policy": "spread",
    "quantum": None,
    "streaming": False,
    "validate": False,
    "fault": None,
    "fault_seed": 0,
}


@dataclass
class RunSpec:
    """One independent simulation grid point.

    ``app`` is either a registry key (preferred for process fan-out:
    the worker instantiates a fresh model) or an
    :class:`~repro.apps.base.AppModel` instance.  ``config`` holds
    ``create_app`` keyword arguments and only applies to the former.
    ``kwargs`` is the full, normalized keyword set for
    :func:`~repro.harness.runner.run_app_once`.
    """

    app: object
    config: dict = field(default_factory=dict)
    kwargs: dict = field(default_factory=dict)


def make_spec(app, config=None, **overrides):
    """Build a normalized :class:`RunSpec`.

    Unspecified knobs take their ``run_app_once`` defaults and
    ``machine=None`` resolves to the paper machine, so equivalent
    calls produce equivalent specs (and therefore equal cache keys).
    """
    unknown = set(overrides) - set(RUN_DEFAULTS)
    if unknown:
        raise TypeError(f"unknown run knobs: {sorted(unknown)}")
    kwargs = dict(RUN_DEFAULTS)
    kwargs.update(overrides)
    if kwargs["machine"] is None:
        kwargs["machine"] = paper_machine()
    return RunSpec(app=app, config=dict(config or {}), kwargs=kwargs)


def execute_spec(spec):
    """Run one spec to a :class:`~repro.harness.runner.SingleRun`.

    Module-level so a ``ProcessPoolExecutor`` worker can import it;
    the heavyweight imports stay inside to keep executor importable
    without dragging in the whole harness.
    """
    from repro.apps import create_app
    from repro.harness.runner import run_app_once

    app = spec.app
    if isinstance(app, str):
        app = create_app(app, **spec.config)
    elif spec.config:
        raise ValueError("config kwargs only apply when app is a name")
    return run_app_once(app, **spec.kwargs)


def default_jobs():
    """Worker count for ``jobs=0`` (auto): the usable CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: The complete failure taxonomy, in the order the docs present it.
FAILURE_KINDS = ("crash", "deadline", "invalid-trace", "cache-corrupt")


@dataclass(frozen=True)
class RunFailure:
    """One quarantined grid point.

    Takes the failed run's slot in the executor's result list (callers
    distinguish it from a run by type) and is collected on
    ``executor.failures``; ``kind`` is one of :data:`FAILURE_KINDS`.
    ``spec_key`` is the slot's cache key (``None`` without a cache).
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


class _CachingExecutor:
    """The shared ``map`` of every backend, and its counters.

    ``executed`` counts simulation attempts actually run (cache hits
    excluded) — the warm-cache acceptance check reads it.
    ``cache_hits`` counts grid points restored from the cache, and
    ``rejected`` cached entries that failed the reuse-time
    plausibility validation and were recomputed instead.  ``retried``
    counts attempts that went again after a failure, ``failures``
    holds the quarantined slots' :class:`RunFailure` records, and
    ``incidents`` the non-fatal ``cache-corrupt`` recoveries.  Only
    the supervised backend retries or quarantines.
    """

    def __init__(self, cache=None):
        self.cache = cache
        self.executed = 0
        self.cache_hits = 0
        self.rejected = 0
        self.retried = 0
        self.failures = []
        self.incidents = []

    def map(self, specs):
        """Run every spec; returns runs (or the :class:`RunFailure` of
        a quarantined one) in submission order."""
        specs = list(specs)
        results = [None] * len(specs)
        keys = [None] * len(specs)
        pending = []
        for i, spec in enumerate(specs):
            if self.cache is not None and not spec.kwargs.get("keep_trace"):
                keys[i] = self.cache.key_for(spec)
            if keys[i] is not None:
                status, hit = self.cache.load_classified(keys[i])
                if status == "hit" and _cached_result_ok(hit[0], spec):
                    results[i] = hit[0]
                    self.cache_hits += 1
                    continue
                if status == "hit":
                    # Implausible (stale physics, foreign payload): drop
                    # it and recompute.
                    self.rejected += 1
                    self.cache.invalidate(keys[i])
                elif status == "corrupt":
                    # The classified load already deleted the bad file.
                    self.incidents.append(RunFailure(
                        index=i, app=_app_name(spec),
                        seed=spec.kwargs.get("seed", 0),
                        kind="cache-corrupt", attempts=0, spec_key=keys[i],
                        detail="cache entry unreadable; deleted and "
                               "recomputed"))
            pending.append(i)
        for i, outcome in self._execute(specs, pending):
            if isinstance(outcome, RunFailure):
                outcome = replace(outcome, spec_key=keys[i])
                self.failures.append(outcome)
            elif keys[i] is not None:
                self.cache.store(keys[i], outcome)
            results[i] = outcome
        return results

    def _execute(self, specs, pending):
        """Yield ``(index, run or RunFailure)`` for every pending spec
        as it resolves."""
        raise NotImplementedError


def _cached_result_ok(run, spec):
    """Validate a cached result before reuse (cheap plausibility pass).

    Cached entries skip the simulator entirely, so a bad entry would
    feed every downstream table silently; this applies the
    :func:`repro.validate.invariants.check_single_run` invariants
    against the spec's machine before trusting it.
    """
    from repro.validate.invariants import check_single_run

    machine = spec.kwargs.get("machine")
    n_logical = machine.logical_cpus if machine is not None else None
    return not check_single_run(run, n_logical=n_logical)


class SerialExecutor(_CachingExecutor):
    """Run specs one after another in the current process."""

    jobs = 1

    def _execute(self, specs, pending):
        for i in pending:
            result = execute_spec(specs[i])
            self.executed += 1
            yield i, result


class ParallelExecutor(_CachingExecutor):
    """Fan specs out over a process pool.

    Results are bit-identical to :class:`SerialExecutor` because each
    grid point is fully seed-determined and owns its environment; the
    determinism regression test in ``tests/test_executor.py`` asserts
    it.  Unpicklable specs run in-process rather than failing.
    """

    def __init__(self, jobs=0, cache=None):
        super().__init__(cache)
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = auto)")
        self.jobs = jobs or default_jobs()

    def _execute(self, specs, pending):
        remote, local = [], []
        for i in pending:
            (remote if self.jobs > 1 and _picklable(specs[i])
             else local).append(i)
        if len(remote) == 1:
            local.append(remote.pop())
        if remote:
            pool = _ProcessPool(max_workers=min(self.jobs, len(remote)))
            try:
                futures = [(i, pool.submit(execute_spec, specs[i]))
                           for i in remote]
                for i, future in futures:
                    try:
                        result = future.result()
                    except Exception as exc:
                        # The pool re-raises worker exceptions with the
                        # remote traceback only as a chained cause that
                        # plain `str(exc)` loses; pin it on the
                        # exception so callers can report where in the
                        # worker the run actually died.
                        if exc.__cause__ is not None:
                            exc.remote_traceback = str(exc.__cause__)
                        raise
                    self.executed += 1
                    yield i, result
            except BaseException:
                # KeyboardInterrupt or a worker failure: drop queued
                # work and do not block on stragglers — the caller
                # needs control back now.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            pool.shutdown(wait=True)
        for i in local:
            result = execute_spec(specs[i])
            self.executed += 1
            yield i, result


def _picklable(spec):
    try:
        pickle.dumps(spec)
        return True
    except Exception:
        return False


def resolve_executor(jobs=None, executor=None, cache=None):
    """Map the harness keyword surface onto an executor backend.

    ``executor`` wins when given (``jobs`` must then be unset);
    ``jobs=None`` or ``1`` selects the serial backend, ``jobs=0``
    auto-sizes a process pool, ``jobs>1`` pins its worker count.
    """
    if executor is not None:
        if jobs is not None:
            raise ValueError("pass either jobs or executor, not both")
        return executor
    if jobs is None or jobs == 1:
        return SerialExecutor(cache=cache)
    if jobs == 0 and default_jobs() == 1:
        # Auto mode on a single usable CPU: a process pool is pure
        # IPC/startup overhead, so auto degrades to serial.  An
        # explicit jobs=N pool is still honoured.
        return SerialExecutor(cache=cache)
    return ParallelExecutor(jobs=jobs, cache=cache)


def _app_name(spec):
    return spec.app if isinstance(spec.app, str) else spec.app.name
