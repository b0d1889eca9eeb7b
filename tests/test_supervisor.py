"""Supervised execution: deadlines, retries, quarantine, checkpoint.

These tests drive :class:`repro.harness.supervisor.SupervisedExecutor`
through every failure mode in the taxonomy and prove the two headline
properties: a failing grid point never takes the sweep down with it,
and a re-run over the same result cache re-simulates only what never
finished.
"""

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache, spec_key
from repro.harness.executor import (
    ParallelExecutor,
    SerialExecutor,
    make_spec,
)
from repro.harness.runner import SingleRun
from repro.harness.supervisor import (
    FAILURE_KINDS,
    RunFailure,
    SupervisedExecutor,
    WorkerPool,
    sweep_digest,
)
from repro.sim import SECOND
from repro.validate import InjectedCrash, fingerprint_run

SHORT = SECOND // 2


def spec(name="chrome", seed=0, **overrides):
    return make_spec(name, duration_us=SHORT, seed=seed, **overrides)


class TestConstruction:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            SupervisedExecutor(retries=-1)

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError):
            SupervisedExecutor(deadline_s=0)


class TestCleanSweep:
    def test_serial_matches_unsupervised(self):
        specs = [spec(seed=s) for s in (0, 1, 2)]
        supervised = SupervisedExecutor().map(specs)
        plain = SerialExecutor().map(specs)
        assert all(isinstance(r, SingleRun) for r in supervised)
        assert [fingerprint_run(r) for r in supervised] == \
            [fingerprint_run(r) for r in plain]

    def test_pool_matches_serial(self):
        specs = [spec(seed=s) for s in range(4)]
        serial = SupervisedExecutor().map(specs)
        pooled = SupervisedExecutor(jobs=2).map(specs)
        assert [fingerprint_run(r) for r in pooled] == \
            [fingerprint_run(r) for r in serial]


class TestQuarantine:
    def test_serial_crash_is_quarantined(self):
        results = SupervisedExecutor().map(
            [spec(seed=0), spec(seed=1, fault="worker-crash")])
        assert isinstance(results[0], SingleRun)
        failure = results[1]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 1
        assert "InjectedCrash" in failure.detail

    def test_quarantined_run_carries_its_key_without_a_cache(self):
        crashing = spec(seed=1, fault="worker-crash")
        [failure] = SupervisedExecutor().map([crashing])
        assert isinstance(failure, RunFailure)
        assert failure.spec_key is not None
        assert failure.spec_key == spec_key(crashing)

    def test_invalid_trace_classified(self):
        executor = SupervisedExecutor()
        results = executor.map(
            [spec(seed=0, fault="timestamp-skew", validate=True)])
        assert results[0].kind == "invalid-trace"
        assert executor.failures == [results[0]]

    def test_pool_crash_keeps_remote_traceback(self):
        executor = SupervisedExecutor(jobs=2)
        results = executor.map(
            [spec(seed=0), spec(seed=1, fault="worker-crash")])
        assert isinstance(results[0], SingleRun)
        failure = results[1]
        assert failure.kind == "crash"
        assert "InjectedCrash" in failure.remote_traceback

    def test_deadline_kills_hung_worker(self):
        executor = SupervisedExecutor(jobs=2, deadline_s=1.0)
        results = executor.map(
            [spec(seed=0), spec(seed=1, fault="worker-hang")])
        assert isinstance(results[0], SingleRun)
        assert results[1].kind == "deadline"
        assert "deadline" in results[1].detail

    def test_deadline_forces_killable_worker_even_serial(self):
        # jobs=None would run in-process, which cannot be killed; a
        # deadline must force a one-worker pool.
        executor = SupervisedExecutor(deadline_s=1.0)
        results = executor.map([spec(seed=0, fault="worker-hang")])
        assert results[0].kind == "deadline"

    def test_every_kind_in_taxonomy(self):
        assert FAILURE_KINDS == \
            ("crash", "deadline", "invalid-trace", "cache-corrupt")


class TestRetries:
    def test_flaky_fault_heals_with_retries(self, tmp_path):
        fault = f"flaky-crash:{tmp_path / 'strike'}"
        executor = SupervisedExecutor(retries=2)
        results = executor.map([spec(seed=0, fault=fault)])
        assert isinstance(results[0], SingleRun)
        assert executor.retried == 1
        assert executor.failures == []

    def test_flaky_fault_heals_in_pool(self, tmp_path):
        fault = f"flaky-crash:{tmp_path / 'strike'}"
        executor = SupervisedExecutor(jobs=2, retries=2)
        results = executor.map([spec(seed=0), spec(seed=1, fault=fault)])
        assert all(isinstance(r, SingleRun) for r in results)
        assert executor.retried == 1

    def test_persistent_fault_exhausts_budget(self):
        executor = SupervisedExecutor(retries=2)
        results = executor.map([spec(seed=0, fault="worker-crash")])
        assert results[0].attempts == 3
        assert executor.retried == 2


class TestCacheCorruption:
    def test_corrupt_entry_deleted_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        one = spec(seed=3)
        first = SupervisedExecutor(cache=cache).map([one])[0]
        key = cache.key_for(one)
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        cache2 = ResultCache(tmp_path / "cache")
        executor = SupervisedExecutor(cache=cache2)
        again = executor.map([one])[0]
        assert isinstance(again, SingleRun)
        assert fingerprint_run(again) == fingerprint_run(first)
        assert cache2.corrupt == 1
        # The bad file was deleted, then the recomputed result was
        # stored back under the same key — the entry is healthy again.
        status, _ = cache2.load_classified(key)
        assert status == "hit"
        incident, = executor.incidents
        assert incident.kind == "cache-corrupt"
        assert executor.failures == []  # non-fatal: recomputed

    def test_clean_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        one = spec(seed=3)
        SupervisedExecutor(cache=cache).map([one])
        executor = SupervisedExecutor(cache=cache)
        executor.map([one])
        assert executor.executed == 0


class TestResume:
    def test_failed_entries_get_a_fresh_chance(self, tmp_path):
        # A one-shot flaky fault quarantines the run on the first
        # sweep, and a quarantined run leaves no cache entry; the
        # strike file is consumed, so a re-run over the same cache
        # re-runs it clean and restores the other run from the cache.
        fault = f"flaky-crash:{tmp_path / 'strike'}"
        specs = [spec(seed=0), spec(seed=1, fault=fault)]
        first = SupervisedExecutor(
            cache=ResultCache(tmp_path / "cache")).map(specs)
        assert isinstance(first[1], RunFailure)

        executor = SupervisedExecutor(cache=ResultCache(tmp_path / "cache"))
        rerun = executor.map(specs)
        assert isinstance(rerun[1], SingleRun)
        assert executor.failures == []
        assert executor.executed == 1
        assert executor.cache_hits == 1
        assert fingerprint_run(rerun[0]) == fingerprint_run(first[0])

    def test_digest_covers_order(self):
        assert sweep_digest(["a", "b"]) != sweep_digest(["b", "a"])
        assert sweep_digest([None, "a"]) != sweep_digest(["a", None])


class TestParallelExecutorHardening:
    def test_worker_exception_carries_remote_traceback(self):
        executor = ParallelExecutor(jobs=2)
        with pytest.raises(InjectedCrash) as excinfo:
            executor.map([spec(seed=0, fault="worker-crash"),
                          spec(seed=1)])
        assert "InjectedCrash" in getattr(
            excinfo.value, "remote_traceback", "")


class TestWorkerPool:
    """Idle workers lent across ``map`` calls, as the daemon keeps them."""

    def test_concurrent_takes_get_distinct_workers(self):
        pool = WorkerPool()
        try:
            pool.give_back(pool.take(3))
            batches = []
            threads = [threading.Thread(
                target=lambda: batches.append(pool.take(2)))
                for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            workers = [w for batch in batches for w in batch]
            assert len({id(w) for w in workers}) == 4
            assert len({w.proc.pid for w in workers}) == 4
            pool.give_back(workers)
        finally:
            pool.close()

    def test_returned_workers_are_lent_again(self):
        pool = WorkerPool()
        try:
            workers = pool.take(4)
            pool.give_back(workers)
            again = pool.take(4)
            assert {w.proc.pid for w in again} == \
                {w.proc.pid for w in workers}
            pool.give_back(again)
        finally:
            pool.close()

    def test_worker_killed_while_idle_is_respawned(self):
        pool = WorkerPool()
        try:
            [worker] = pool.take(1)
            pool.give_back([worker])
            dead = worker.proc.pid
            os.kill(dead, signal.SIGKILL)
            worker.proc.join(timeout=10)
            [again] = pool.take(1)
            assert again.proc.is_alive() and again.proc.pid != dead
            pool.give_back([again])
            # A deadline forces the one run into a worker: the pool's.
            executor = SupervisedExecutor(deadline_s=60.0, pool=pool)
            [result] = executor.map([spec(seed=0)])
            assert isinstance(result, SingleRun)
            [last] = pool.take(1)
            assert last.proc.pid == again.proc.pid
            pool.give_back([last])
        finally:
            pool.close()

    def test_busy_worker_given_back_is_shut_down(self):
        pool = WorkerPool()
        try:
            [worker] = pool.take(1)
            worker.assign(0, 1, spec(seed=0, fault="worker-hang"), None)
            pool.give_back([worker])
            assert worker.job is None and not worker.proc.is_alive()
            [fresh] = pool.take(1)
            assert fresh is not worker
            pool.give_back([fresh])
        finally:
            pool.close()

    def test_give_back_after_close_shuts_workers_down(self):
        pool = WorkerPool()
        workers = pool.take(2)
        pool.close()
        pool.give_back(workers)
        assert not any(w.proc.is_alive() for w in workers)

    def test_close_leaves_no_live_child(self):
        pool = WorkerPool()
        workers = pool.take(3)
        pool.give_back(workers)
        pool.close()
        live = {p.pid for p in multiprocessing.active_children()}
        assert not live & {w.proc.pid for w in workers}
        assert not any(w.proc.is_alive() for w in workers)

    def test_executor_without_a_pool_reaps_its_workers(self):
        before = {p.pid for p in multiprocessing.active_children()}
        results = SupervisedExecutor(jobs=2).map(
            [spec(seed=s) for s in range(2)])
        assert all(isinstance(r, SingleRun) for r in results)
        assert {p.pid for p in multiprocessing.active_children()} <= before


#: A pooled sweep that prints each worker's pid as the worker starts.
_ANNOUNCED_SWEEP = """
from repro.harness import supervisor
from repro.harness.executor import make_spec
from repro.sim import SECOND

spawn = supervisor._Worker._spawn


def announce(worker):
    spawn(worker)
    print(worker.proc.pid, flush=True)


supervisor._Worker._spawn = announce
specs = [make_spec("arizona-sunshine", duration_us=5 * SECOND, seed=seed)
         for seed in range(60)]
supervisor.SupervisedExecutor(jobs=2).map(specs)
"""


def _running(pid):
    """True while ``pid`` exists and has not exited (zombies count as
    exited: nobody may be left to reap an orphan)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def _read_lines(pipe, count, timeout_s):
    """Up to ``count`` complete lines from ``pipe`` within ``timeout_s``
    (raw reads: a buffered reader could hold a line that ``select``
    no longer sees)."""
    data = b""
    deadline = time.monotonic() + timeout_s
    while data.count(b"\n") < count:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([pipe], [], [], left)[0]:
            break
        chunk = os.read(pipe.fileno(), 4096)
        if not chunk:
            break
        data += chunk
    return data.split(b"\n")[:-1][:count]


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="needs /proc to see process states")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_supervisor_is_killed(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen([sys.executable, "-c", _ANNOUNCED_SWEEP],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        pids = []
        try:
            pids = [int(line) for line in
                    _read_lines(proc.stdout, 2, timeout_s=60)]
            assert len(pids) == 2, "the sweep never started its workers"
            time.sleep(0.5)     # both workers are mid-run
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 20
            while (any(_running(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
