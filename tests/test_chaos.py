"""Chaos suite: every fault injector through the supervised executor.

The robustness contract under test: no injected fault — trace-level or
execution-level — ever escapes the supervisor as an unhandled
exception.  Each one either heals on retry or lands in the result list
as a :class:`RunFailure` with the right taxonomy tag, while every
clean grid point completes normally.  A final property drives a
150-run grid seeded with failures end to end, and a golden-config
sweep proves resume reproduces bit-identical fingerprints.
"""

import json

import pytest

from repro.harness.cache import ResultCache
from repro.harness.executor import make_spec
from repro.harness.runner import SingleRun
from repro.harness.supervisor import (
    FAILURE_KINDS,
    RunFailure,
    SupervisedExecutor,
    SweepJournal,
)
from repro.sim import SECOND
from repro.validate import (
    EXEC_FAULTS,
    FAULTS,
    GOLDEN_CONFIGS,
    fingerprint_run,
    golden_spec,
)

SHORT = SECOND // 2

#: Trace faults are only *detected* when the run validates its trace.
TRACE_FAULTS = sorted(FAULTS)

APPS = ("chrome", "word", "excel", "firefox", "vlc", "photoshop")


def spec(name="chrome", seed=0, **overrides):
    return make_spec(name, duration_us=SHORT, seed=seed, **overrides)


class TestEveryInjectorIsContained:
    @pytest.mark.parametrize("fault", TRACE_FAULTS)
    def test_trace_fault_quarantined_as_invalid_trace(self, fault):
        executor = SupervisedExecutor()
        results = executor.map(
            [spec(seed=1, fault=fault, validate=True)])
        failure = results[0]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "invalid-trace"

    @pytest.mark.parametrize("fault", TRACE_FAULTS)
    def test_trace_fault_salvaged_to_partial_run(self, fault):
        executor = SupervisedExecutor()
        results = executor.map(
            [spec(seed=1, fault=fault, salvage=True)])
        run = results[0]
        assert isinstance(run, SingleRun)
        assert run.partial is True
        assert executor.failures == []

    def test_worker_crash_quarantined(self):
        executor = SupervisedExecutor()
        results = executor.map([spec(seed=1, fault="worker-crash")])
        assert results[0].kind == "crash"

    def test_worker_hang_quarantined_by_deadline(self):
        executor = SupervisedExecutor(jobs=2, deadline_s=1.0)
        results = executor.map(
            [spec(seed=0), spec(seed=1, fault="worker-hang")])
        assert isinstance(results[0], SingleRun)
        assert results[1].kind == "deadline"

    def test_flaky_exec_faults_heal_with_retries(self, tmp_path):
        for mode, deadline in (("crash", None), ("hang", 1.0)):
            fault = f"flaky-{mode}:{tmp_path / mode}"
            executor = SupervisedExecutor(
                jobs=2 if deadline else None, retries=1,
                deadline_s=deadline)
            results = executor.map(
                [spec(seed=0), spec(seed=1, fault=fault)])
            assert all(isinstance(r, SingleRun) for r in results), mode
            assert executor.retried == 1
            assert executor.failures == []

    def test_exec_fault_registry_is_closed(self):
        assert set(EXEC_FAULTS) == {"worker-crash", "worker-hang"}


def chaos_grid(n=150):
    """A deterministic 150-point grid seeded with every failure mode:
    trace corruption under validation, trace corruption under salvage,
    and worker crashes, scattered through clean runs."""
    specs, expected_failures = [], set()
    trace_faults = TRACE_FAULTS
    for i in range(n):
        app = APPS[i % len(APPS)]
        overrides = {}
        if i % 10 == 3:
            overrides = {"fault": trace_faults[i % len(trace_faults)],
                         "fault_seed": i, "validate": True}
            expected_failures.add(i)
        elif i % 10 == 7:
            overrides = {"fault": trace_faults[i % len(trace_faults)],
                         "fault_seed": i, "salvage": True}
        elif i % 25 == 11:
            overrides = {"fault": "worker-crash"}
            expected_failures.add(i)
        specs.append(spec(app, seed=i, **overrides))
    return specs, expected_failures


class TestChaosGrid:
    def test_150_run_sweep_completes_with_quarantine(self, tmp_path):
        path = tmp_path / "chaos.jsonl"
        specs, expected_failures = chaos_grid()
        executor = SupervisedExecutor(jobs=2, journal=path)
        results = executor.map(specs)

        assert len(results) == 150
        for i, slot in enumerate(results):
            assert isinstance(slot, (SingleRun, RunFailure)), i
            if isinstance(slot, RunFailure):
                assert slot.kind in FAILURE_KINDS
        quarantined = {f.index for f in executor.failures}
        assert quarantined == expected_failures
        salvaged = [r for r in results
                    if isinstance(r, SingleRun) and r.partial]
        assert len(salvaged) == sum(1 for s in specs
                                    if s.kwargs["salvage"])
        # Every grid point is resolved in the journal.
        _, entries = SweepJournal.load(path)
        assert sorted(entries) == list(range(150))
        assert {i for i, e in entries.items()
                if e["status"] == "failed"} == expected_failures


class TestGoldenResume:
    def test_kill_resume_reproduces_golden_fingerprints(self, tmp_path):
        """Interrupt a golden-config sweep after two runs; the resumed
        sweep must reproduce the uninterrupted fingerprints bit for
        bit (fingerprints compare float.hex strings, so this is exact
        equality, not tolerance)."""
        path = tmp_path / "golden.jsonl"
        specs = [golden_spec("chrome", cores, smt)
                 for cores, smt in GOLDEN_CONFIGS]
        baseline = SupervisedExecutor(journal=path).map(specs)
        expected = [fingerprint_run(run) for run in baseline]

        lines = path.read_text().splitlines()
        cache = ResultCache(str(path) + ".cache")
        for line in lines[3:]:      # header + 2 kept runs
            cache.invalidate(json.loads(line)["key"])
        path.write_text("\n".join(lines[:3]) + "\n")

        executor = SupervisedExecutor(resume=path)
        resumed = executor.map(specs)
        assert executor.resumed == 2
        assert executor.executed == len(specs) - 2
        assert [fingerprint_run(run) for run in resumed] == expected


class TestServiceChaos:
    """Execution faults through the *service*: a supervised worker
    dying mid-sweep must surface in the API response as the exact
    quarantine taxonomy — never as a hung connection."""

    @staticmethod
    def _serve(service):
        import threading

        from repro.service import ServiceServer

        server = ServiceServer(service, port=0)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.wait_ready(15)
        return server, thread

    @staticmethod
    def _http(port, method, path, body=None):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _run_fault_sweep(self, service, sweep):
        server, thread = self._serve(service)
        try:
            status, body = self._http(server.port, "POST", "/sweeps", sweep)
            assert status == 202
            job_id = json.loads(body)["id"]
            # The stream must terminate (done event) instead of
            # hanging the connection on the dead worker.
            import http.client

            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=120)
            try:
                conn.request("GET", f"/sweeps/{job_id}/stream")
                events = [json.loads(line) for line in conn.getresponse()]
            finally:
                conn.close()
            assert events[-1]["event"] == "done"
            status, body = self._http(server.port, "GET",
                                      f"/sweeps/{job_id}")
            assert status == 200
            return json.loads(body), events[-1]
        finally:
            server.request_stop()
            thread.join(timeout=30)
            service.close()

    def test_worker_crash_quarantined_as_crash_in_api(self):
        from repro.service import SweepService

        payload, done = self._run_fault_sweep(
            SweepService(),
            {"apps": ["chrome"], "duration_s": 0.5, "iterations": 1,
             "fault": "worker-crash"})
        assert payload["state"] == "done"
        kinds = [f["kind"] for f in payload["failures"]]
        assert kinds == ["crash"]
        assert all(k in FAILURE_KINDS for k in kinds)
        assert [f["kind"] for f in done["failures"]] == ["crash"]

    def test_worker_hang_quarantined_as_deadline_in_api(self):
        from repro.service import SweepService

        payload, done = self._run_fault_sweep(
            SweepService(deadline_s=1.0),
            {"apps": ["chrome"], "duration_s": 0.5, "iterations": 1,
             "fault": "worker-hang"})
        assert payload["state"] == "done"
        assert [f["kind"] for f in payload["failures"]] == ["deadline"]
        assert [f["kind"] for f in done["failures"]] == ["deadline"]


class TestDispatcherChaos:
    """Faults in the *dispatcher* layer, one level above the executor:
    whatever would end a dispatcher thread fails only its own job with
    the standard quarantine taxonomy (streams terminate, never hang),
    and the same thread goes on to serve later jobs.  There is no
    watchdog: a dispatcher never dies or wedges on its own account."""

    SWEEP = {"apps": ["chrome"], "duration_s": 0.4, "iterations": 1}

    def test_crashed_dispatcher_fails_only_its_job_and_serves_on(
            self, tmp_path, monkeypatch):
        import threading

        from repro.service import SweepService

        served_by = []
        run_span = SupervisedExecutor.map

        def crash_once(executor, specs):
            served_by.append(threading.current_thread())
            if len(served_by) == 1:
                raise SystemExit    # would end the dispatcher thread
            return run_span(executor, specs)

        monkeypatch.setattr(SupervisedExecutor, "map", crash_once)
        service = SweepService(cache=tmp_path / "cache", job_workers=1)
        server, thread = TestServiceChaos._serve(service)
        try:
            status, body = TestServiceChaos._http(
                server.port, "POST", "/sweeps", self.SWEEP)
            assert status == 202
            job_id = json.loads(body)["id"]

            # The stream terminates with a failed event — it must not
            # hang on the crashed dispatcher.
            import http.client

            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=120)
            try:
                conn.request("GET", f"/sweeps/{job_id}/stream")
                events = [json.loads(line)
                          for line in conn.getresponse()]
            finally:
                conn.close()
            assert events[-1]["event"] == "failed"

            status, body = TestServiceChaos._http(
                server.port, "GET", f"/sweeps/{job_id}")
            payload = json.loads(body)
            assert payload["state"] == "failed"
            kinds = [f["kind"] for f in payload["failures"]]
            assert kinds == ["crash"]
            assert all(k in FAILURE_KINDS for k in kinds)
            assert "dispatcher" in payload["failures"][0]["detail"]

            # Only its own job died; the same dispatcher thread
            # completes a subsequent sweep normally.
            status, body = TestServiceChaos._http(
                server.port, "POST", "/sweeps",
                dict(self.SWEEP, duration_s=0.45))
            next_id = json.loads(body)["id"]
            job = service.store.find(next_id)
            assert job.wait_done(60) and job.state == "done"
            assert job.failures == []
            assert len(served_by) == 2
            assert served_by[1] is served_by[0]
            assert served_by[0].is_alive()
        finally:
            server.request_stop()
            thread.join(timeout=30)
            service.close()

    def test_job_workers_threads_and_no_watchdog(self):
        import threading

        from repro.service import SweepService

        before = set(threading.enumerate())
        service = SweepService(job_workers=3)
        try:
            started = set(threading.enumerate()) - before
            names = sorted(t.name for t in started)
            assert names == ["dispatch-0", "dispatch-1", "dispatch-2"]
            assert "sweep-watchdog" not in {
                t.name for t in threading.enumerate()}
        finally:
            service.close()
        assert not any(t.is_alive() for t in started)
