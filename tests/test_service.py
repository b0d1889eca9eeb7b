"""End-to-end tests for the sweep service.

Covers the full daemon lifecycle against a real server on an ephemeral
port — submit, poll, stream, fetch — plus the framing layer, request
validation, content-addressed dedup and conditional reuse, the
CLI-byte-identity acceptance check, mutation conflicts, graceful
drain, and the per-submission executor re-resolution regression.

Admission control (bounded queue -> 429 + ``Retry-After``,
``/readyz``), TTL job eviction, the bounded shutdown drain, and
write-ahead ledger recovery, a record that lost its newline included.

The daemon's worker pool: one set of simulation workers serves every
sweep, survives deadline kills and crashed runs, and a ledger replay
appends only what the ledger does not already hold.

The event loop: reads are dispatched on it and POSTs on a thread,
stream followers hold no thread (so they cannot starve the daemon) and
leave no watcher behind, HEAD responses carry no content, and a
chunked request body is refused instead of desyncing the connection.
"""

import asyncio
import contextlib
import http.client
import json
import os
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.harness import run_suite, supervisor
from repro.harness.cache import spec_key
from repro.reporting.payloads import canonical_json_bytes, suite_payload
from repro.service import ServiceServer, SweepRequest, SweepService
from repro.service.daemon import EventFeed
from repro.service.http import (
    BadRequest,
    HttpRequest,
    HttpResponse,
    parse_head,
    read_request,
    render_head,
)
from repro.service.jobs import SweepJob
from repro.service.ledger import replay
from repro.sim import SECOND
from repro.validate.golden import default_golden_path

DSE_PATH = default_golden_path().parent / "golden_dse.json"

#: Small, fast sweep shared by most lifecycle tests.
SWEEP = {"apps": ["excel", "vlc"], "duration_s": 0.4, "iterations": 1}


# -- helpers -------------------------------------------------------------

def make_request(method, path, body=None, headers=None):
    """An in-process :class:`HttpRequest` (no sockets involved)."""
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    return HttpRequest(method=method, target=path, path=path, query={},
                       headers=headers or {}, body=payload)


def http_call(port, method, path, body=None, headers=None, timeout=120):
    """One request over a real TCP connection; returns
    ``(status, headers, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = (json.dumps(body).encode("utf-8")
                   if body is not None else None)
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def wait_job(service, job_id, timeout=120.0):
    job = service.store.find(job_id)
    assert job is not None and job.wait_done(timeout)
    return job


def submit_and_wait(service, body, timeout=120.0):
    response = service.dispatch(make_request("POST", "/sweeps", body))
    return wait_job(service, json.loads(response.body)["id"], timeout)


def suite_bytes(body):
    """What ``repro suite --json`` saves for the sweep ``body`` asks for,
    computed straight through the harness."""
    sweep = SweepRequest.from_payload(body)
    suite = run_suite(sweep.apps, machine=sweep.machine(),
                      duration_us=int(sweep.duration_s * SECOND),
                      iterations=sweep.iterations)
    return canonical_json_bytes(
        suite_payload(suite, metadata=sweep.metadata()))


@pytest.fixture
def spawned(monkeypatch):
    """Pids of the supervised worker processes forked during a test."""
    pids = []
    spawn = supervisor._Worker._spawn

    def counted(worker):
        spawn(worker)
        pids.append(worker.proc.pid)

    monkeypatch.setattr(supervisor._Worker, "_spawn", counted)
    return pids


@contextlib.contextmanager
def running_server(service):
    server = ServiceServer(service, port=0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.wait_ready(15)
    try:
        yield server
    finally:
        server.request_stop()
        thread.join(timeout=15)
        service.close()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("service-cache")


@pytest.fixture(scope="module")
def server(cache_dir):
    with running_server(SweepService(cache=cache_dir)) as srv:
        yield srv


# -- framing -------------------------------------------------------------

def _read(blob):
    async def go():
        reader = asyncio.StreamReader(limit=64 * 1024)
        reader.feed_data(blob)
        reader.feed_eof()
        return await read_request(reader)
    return asyncio.run(go())


class TestHttpFraming:
    def test_request_with_query_and_body(self):
        request = _read(b"POST /sweeps?x=1&y=b%20c HTTP/1.1\r\n"
                        b"Host: h\r\nContent-Length: 7\r\n\r\n"
                        b'{"a":1}')
        assert request.method == "POST"
        assert request.path == "/sweeps"
        assert request.query == {"x": "1", "y": "b c"}
        assert request.json() == {"a": 1}

    def test_clean_eof_between_requests_is_none(self):
        assert _read(b"") is None

    def test_truncated_head_rejected(self):
        with pytest.raises(BadRequest):
            _read(b"GET / HTTP/1.1\r\nHos")

    def test_malformed_request_line_rejected(self):
        with pytest.raises(BadRequest):
            _read(b"NONSENSE\r\n\r\n")

    def test_bad_content_length_rejected(self):
        with pytest.raises(BadRequest):
            _read(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")

    def test_truncated_body_rejected(self):
        with pytest.raises(BadRequest):
            _read(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort")

    def test_parse_head_lowercases_header_names(self):
        method, target, headers = parse_head(
            b"GET /x HTTP/1.1\r\nIf-None-Match: \"abc\"")
        assert method == "GET"
        assert target == "/x"
        assert headers == {"if-none-match": '"abc"'}

    def test_render_head_fixed_and_chunked(self):
        response = HttpResponse(status=200, body=b"hello",
                                headers={"X-Test": "1"})
        head = render_head(response)
        assert b"HTTP/1.1 200 OK" in head
        assert b"Content-Length: 5" in head
        head = render_head(response, chunked=True, keep_alive=False)
        assert b"Transfer-Encoding: chunked" in head
        assert b"Connection: close" in head

    def test_non_object_body_rejected(self):
        request = make_request("POST", "/sweeps")
        request.body = b"[1, 2]"
        with pytest.raises(BadRequest):
            request.json()

    def test_transfer_encoding_rejected(self):
        with pytest.raises(BadRequest, match="Transfer-Encoding"):
            _read(b"POST /sweeps HTTP/1.1\r\n"
                  b"Transfer-Encoding: chunked\r\n\r\n"
                  b"2\r\n{}\r\n0\r\n\r\n")


# -- request validation --------------------------------------------------

class TestSweepRequestValidation:
    def test_defaults_match_cli_surface(self):
        request = SweepRequest.from_payload({"apps": ["excel"]})
        assert request.duration_s == 60.0
        assert request.iterations == 3
        assert request.smt is True

    def test_machine_resolution_matches_cli(self):
        request = SweepRequest.from_payload({
            "apps": ["excel"],
            "machine": {"cores": 4, "smt": False, "gpu": "gtx-680"}})
        machine = request.machine()
        assert machine.logical_cpus == 4
        assert machine.smt_enabled is False
        assert machine.gpu.name == "NVIDIA GTX 680"

    @pytest.mark.parametrize("payload,fragment", [
        ({}, "apps"),
        ({"apps": []}, "apps"),
        ({"apps": "excel"}, "apps"),
        ({"apps": ["minesweeper"]}, "unknown applications"),
        ({"apps": ["excel"], "duration_s": 0}, "duration_s"),
        ({"apps": ["excel"], "duration_s": "long"}, "duration_s"),
        ({"apps": ["excel"], "iterations": 0}, "iterations"),
        ({"apps": ["excel"], "machine": {"sockets": 2}}, "machine"),
        ({"apps": ["excel"], "machine": {"cores": 0}}, "cores"),
        ({"apps": ["excel"], "machine": {"gpu": "voodoo2"}}, "GPU"),
        ({"apps": ["excel"], "streaming": "yes"}, "streaming"),
        # A trace fault corrupts the recorded trace; a streaming run
        # records none, so the request could only end in a crash.
        ({"apps": ["excel"], "streaming": True,
          "fault": "timestamp-skew"}, "incompatible"),
        ({"apps": ["excel"], "fault": "meteor-strike"}, "fault"),
        ({"apps": ["excel"], "turbo": False}, "unknown request fields"),
        ({"apps": ["excel"], "salvage": False}, "unknown request fields"),
        ({"apps": ["excel"], "salvage": True}, "unknown request fields"),
    ])
    def test_invalid_payloads_rejected(self, payload, fragment):
        with pytest.raises(BadRequest, match=fragment):
            SweepRequest.from_payload(payload)

    def test_invalid_submission_is_a_400_not_a_500(self):
        service = SweepService()
        try:
            response = service.dispatch(
                make_request("POST", "/sweeps", {"apps": ["nope"]}))
            assert response.status == 400
            assert "unknown applications" in json.loads(response.body)["error"]
        finally:
            service.close()

    @pytest.mark.parametrize("payload,fragment", [
        # JSON true decodes to a bool, which Python counts as the int 1.
        ({"apps": ["excel"], "duration_s": True}, "duration_s"),
        ({"apps": ["excel"], "iterations": True}, "iterations"),
        ({"apps": ["excel"], "machine": {"cores": True}}, "cores"),
        ({"apps": ["excel"], "fault_seed": True}, "fault_seed"),
        # `repro suite` refuses under 1 µs of simulated time too.
        ({"apps": ["excel"], "duration_s": 1e-9}, "duration_s"),
        # The Table I machine has 12 logical CPUs, 6 without SMT.
        ({"apps": ["excel"], "machine": {"cores": 64}}, "cores"),
        ({"apps": ["excel"], "machine": {"cores": 8, "smt": False}},
         "cores"),
        ({"apps": [["excel"]]}, "unknown applications"),
    ], ids=lambda value: json.dumps(value) if isinstance(value, dict)
        else value)
    def test_values_that_cannot_run_are_400(self, payload, fragment):
        service = SweepService()
        try:
            response = service.dispatch(
                make_request("POST", "/sweeps", payload))
            assert response.status == 400
            assert fragment in json.loads(response.body)["error"]
            assert service.store.all() == []
        finally:
            service.close()

    def test_non_string_apps_in_a_goldens_update_are_400(self):
        service = SweepService()
        try:
            response = service.dispatch(
                make_request("POST", "/goldens", {"apps": [{"a": 1}]}))
            assert response.status == 400
            assert "unknown applications" in \
                json.loads(response.body)["error"]
        finally:
            service.close()

    # NaN passed `< 0` and made the drain loop spin on a NaN timeout;
    # infinity (what `1e400` decodes to) came back as a bare
    # `Infinity` token that strict JSON parsers reject.
    @pytest.mark.parametrize("drain_s", [True, float("nan"), float("inf")])
    def test_drain_that_is_not_a_number_is_400(self, drain_s):
        service = SweepService()
        try:
            response = service.dispatch(
                make_request("POST", "/shutdown", {"drain_s": drain_s}))
            assert response.status == 400
            assert "drain_s" in json.loads(response.body)["error"]
            assert service.state == "running"
        finally:
            service.close()

    def test_integer_duration_is_the_cli_float(self, tmp_path):
        path = tmp_path / "suite.json"
        assert main(["suite", "--apps", "excel", "--duration", "1",
                     "--iterations", "1", "--json", str(path)],
                    out=lambda line: None) == 0
        service = SweepService()
        try:
            sweep = {"apps": ["excel"], "iterations": 1}
            job = submit_and_wait(service, dict(sweep, duration_s=1))
            again = service.dispatch(make_request(
                "POST", "/sweeps", dict(sweep, duration_s=1.0)))
            assert again.status == 200
            assert json.loads(again.body)["id"] == job.id
            assert job.result_bytes == path.read_bytes()
        finally:
            service.close()


# -- lifecycle over a real server ----------------------------------------

class TestServiceLifecycle:
    def test_submit_poll_stream_fetch(self, server):
        status, _, body = http_call(server.port, "POST", "/sweeps", SWEEP)
        assert status == 202
        submission = json.loads(body)
        job_id = submission["id"]
        assert submission["total_runs"] == 2
        assert submission["deduplicated"] is False
        assert submission["backend"].startswith(("serial", "pool"))

        # Stream progress as NDJSON; one app event per application,
        # then the terminal done event — read incrementally off the
        # chunked response while the sweep runs.
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=120)
        try:
            conn.request("GET", f"/sweeps/{job_id}/stream")
            response = conn.getresponse()
            assert response.status == 200
            events = [json.loads(line) for line in response]
        finally:
            conn.close()
        assert [e["event"] for e in events] == ["app", "app", "done"]
        assert {e["app"] for e in events[:2]} == {"excel", "vlc"}
        assert events[0]["completed"] < events[1]["completed"] == 2
        assert events[-1]["executed"] >= 0

        status, _, body = http_call(server.port, "GET",
                                    f"/sweeps/{job_id}")
        payload = json.loads(body)
        assert status == 200
        assert payload["state"] == "done"
        assert payload["progress"]["completed_runs"] == 2
        assert payload["failures"] == []

        status, headers, body = http_call(server.port, "GET",
                                          f"/sweeps/{job_id}/result")
        assert status == 200
        assert headers["ETag"] == f'"{job_id}"'
        assert "immutable" in headers["Cache-Control"]
        document = json.loads(body)
        assert set(document["results"]) == {"excel", "vlc"}
        assert document["metadata"] == {"duration_s": 0.4, "iterations": 1}

    def test_result_bytes_identical_to_cli_suite_json(self, server,
                                                      tmp_path):
        path = tmp_path / "suite.json"
        lines = []
        code = main(["suite", "--apps", "excel,vlc", "--duration", "0.4",
                     "--iterations", "1", "--json", str(path)],
                    out=lines.append)
        assert code == 0
        status, _, body = http_call(server.port, "POST", "/sweeps", SWEEP)
        job_id = json.loads(body)["id"]
        wait_job(server.service, job_id)
        status, _, body = http_call(server.port, "GET",
                                    f"/sweeps/{job_id}/result")
        assert status == 200
        assert body == path.read_bytes()

    def test_duplicate_submission_dedups_in_flight(self, server):
        status, _, body = http_call(server.port, "POST", "/sweeps", SWEEP)
        first = json.loads(body)
        status, _, body = http_call(server.port, "POST", "/sweeps", SWEEP)
        second = json.loads(body)
        assert status == 200
        assert second["deduplicated"] is True
        assert second["id"] == first["id"]

    def test_pending_result_answers_202_and_unknown_404(self):
        from repro.service.jobs import SweepJob

        service = SweepService()
        try:
            # A job parked in the store without ever being submitted
            # to the runner stays deterministically queued.
            sweep = SweepRequest.from_payload(SWEEP)
            spans, specs = sweep.build()
            digest = "ab" * 32
            service.store.add(SweepJob(sweep, digest, spans, specs,
                                       executor=None, backend="serial"))
            response = service.dispatch(
                make_request("GET", f"/sweeps/{digest}/result"))
            assert response.status == 202
            assert json.loads(response.body)["state"] == "queued"
            response = service.dispatch(
                make_request("GET", "/sweeps/" + "0" * 64))
            assert response.status == 404
        finally:
            service.close()

    def test_conditional_get_revalidates_with_304(self, server):
        status, _, body = http_call(server.port, "POST", "/sweeps", SWEEP)
        job_id = json.loads(body)["id"]
        wait_job(server.service, job_id)
        status, headers, _ = http_call(server.port, "GET",
                                       f"/sweeps/{job_id}/result")
        etag = headers["ETag"]
        status, headers, body = http_call(
            server.port, "GET", f"/sweeps/{job_id}/result",
            headers={"If-None-Match": etag})
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag

    def test_warm_cache_reads_never_resimulate(self, cache_dir):
        """A fresh service over a warmed cache serves the same result
        with zero simulations (verified by executor call counting)."""
        warm = SweepService(cache=cache_dir)
        try:
            response = warm.dispatch(
                make_request("POST", "/sweeps", SWEEP))
            job_id = json.loads(response.body)["id"]
            job = wait_job(warm, job_id)
            assert job.state == "done"
            assert job.executor.executed == 0
            status = json.loads(warm.dispatch(
                make_request("GET", f"/sweeps/{job_id}")).body)
            assert status["executed"] == 0
        finally:
            warm.close()

    def test_frontiers_bytes_match_committed_goldens(self, server):
        committed = json.loads(DSE_PATH.read_text())["frontiers"]
        status, headers, body = http_call(server.port, "GET",
                                          "/frontiers/excel")
        assert status == 200
        assert body == canonical_json_bytes(committed["excel"])
        etag = headers["ETag"]
        status, _, _ = http_call(server.port, "GET", "/frontiers/excel",
                                 headers={"If-None-Match": etag})
        assert status == 304
        status, _, body = http_call(server.port, "GET", "/frontiers")
        assert json.loads(body) == committed

    def test_goldens_table_serves_committed_fingerprints(self, server):
        status, _, body = http_call(server.port, "GET",
                                    "/tables/goldens/excel")
        assert status == 200
        assert "c04-smt" in json.loads(body)
        status, _, _ = http_call(server.port, "GET",
                                 "/tables/goldens/minesweeper")
        assert status == 404

    def test_index_and_health(self, server):
        status, _, body = http_call(server.port, "GET", "/")
        assert status == 200
        assert "POST /sweeps" in json.loads(body)["endpoints"]
        status, _, body = http_call(server.port, "GET", "/healthz")
        assert json.loads(body)["state"] == "running"

    def test_unknown_route_404_and_wrong_method_405(self, server):
        status, _, _ = http_call(server.port, "GET", "/nope")
        assert status == 404
        status, _, _ = http_call(server.port, "DELETE", "/sweeps")
        assert status == 405
        status, _, _ = http_call(server.port, "GET", "/shutdown")
        assert status == 405

    def test_concurrent_goldens_update_conflicts_with_409(self, server):
        service = server.service
        assert service.tables.mutation_lock.acquire(blocking=False)
        try:
            status, _, body = http_call(server.port, "POST", "/goldens",
                                        {"apps": ["excel"]})
            assert status == 409
            assert "in progress" in json.loads(body)["error"]
        finally:
            service.tables.mutation_lock.release()

    def test_goldens_update_writes_file_and_refreshes_etag(self, tmp_path):
        golden = tmp_path / "goldens.json"
        service = SweepService(golden_path=golden, dse_path=DSE_PATH)
        try:
            response = service.dispatch(
                make_request("GET", "/tables/goldens"))
            assert response.status == 404
            response = service.dispatch(
                make_request("POST", "/goldens", {"apps": ["excel"]}))
            assert response.status == 200
            assert json.loads(response.body)["updated"] == ["excel"]
            assert golden.exists()
            response = service.dispatch(
                make_request("GET", "/tables/goldens/excel"))
            assert response.status == 200
            assert "c04-smt" in json.loads(response.body)
        finally:
            service.close()


class TestGracefulShutdown:
    def test_drain_completes_inflight_then_stops(self, tmp_path):
        service = SweepService(cache=tmp_path / "cache")
        server = ServiceServer(service, port=0)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.wait_ready(15)

        # A cold multi-second sweep keeps the drain window comfortably
        # wider than the 503 probe below — a sub-second job can finish
        # (and stop the server) before the probe even connects.
        inflight = dict(SWEEP, duration_s=4.0)
        status, _, body = http_call(server.port, "POST", "/sweeps",
                                    inflight)
        assert status == 202
        job_id = json.loads(body)["id"]

        status, _, body = http_call(server.port, "POST", "/shutdown")
        assert status == 202
        assert json.loads(body)["state"] in ("draining", "stopped")

        # New submissions are refused while draining / stopped...
        different = dict(SWEEP, iterations=2)
        status, _, body = http_call(server.port, "POST", "/sweeps",
                                    different)
        assert status == 503
        assert "draining" in json.loads(body)["error"]

        # ...but the in-flight sweep runs to completion before the
        # server exits.
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert service.state == "stopped"
        job = service.store.find(job_id)
        assert job.state == "done"
        assert job.result_bytes is not None
        service.close()


class TestExecutorReResolution:
    """PR-7 regression: the auto-mode clamp is decided per submission,
    not once at daemon startup."""

    def test_backend_tracks_cpu_count_across_submissions(self, tmp_path,
                                                         monkeypatch):
        service = SweepService(jobs=0, cache=tmp_path / "cache")
        try:
            monkeypatch.setattr("repro.harness.supervisor.default_jobs",
                                lambda: 1)
            response = service.dispatch(make_request(
                "POST", "/sweeps",
                {"apps": ["excel"], "duration_s": 0.3, "iterations": 1}))
            assert json.loads(response.body)["backend"] == "serial"

            # The daemon "gains CPUs" between submissions: the next
            # sweep must pick a pool without a restart.
            monkeypatch.setattr("repro.harness.supervisor.default_jobs",
                                lambda: 8)
            response = service.dispatch(make_request(
                "POST", "/sweeps",
                {"apps": ["vlc"], "duration_s": 0.3, "iterations": 2}))
            payload = json.loads(response.body)
            assert payload["backend"] == "pool-2"
            job = wait_job(service, payload["id"])
            assert job.state == "done"
        finally:
            service.close()


class _Gate:
    """Parks every dispatched job at its first app span until released,
    by standing in for ``SupervisedExecutor.map``."""

    def __init__(self, monkeypatch):
        self.release = threading.Event()
        self.blocked = threading.Event()
        run_span = supervisor.SupervisedExecutor.map

        def parked(executor, specs):
            self.blocked.set()
            self.release.wait(60)
            return run_span(executor, specs)

        monkeypatch.setattr(supervisor.SupervisedExecutor, "map", parked)


class TestAdmissionControl:
    def test_queue_cap_answers_429_with_retry_after(self, tmp_path,
                                                    monkeypatch):
        service = SweepService(cache=tmp_path / "cache", job_workers=1,
                               max_queue=1)
        gate = _Gate(monkeypatch)
        try:
            response = service.dispatch(make_request(
                "POST", "/sweeps", dict(SWEEP, duration_s=0.31)))
            assert response.status == 202
            assert gate.blocked.wait(15)    # job 1 occupies the worker

            response = service.dispatch(make_request(
                "POST", "/sweeps", dict(SWEEP, duration_s=0.32)))
            assert response.status == 202   # job 2 fills the queue

            response = service.dispatch(make_request(
                "POST", "/sweeps", dict(SWEEP, duration_s=0.33)))
            assert response.status == 429
            assert int(response.headers["Retry-After"]) >= 1
            assert "capacity" in json.loads(response.body)["error"]

            response = service.dispatch(make_request("GET", "/readyz"))
            assert response.status == 503
            assert json.loads(response.body)["ready"] is False
            assert "Retry-After" in response.headers

            # Liveness is not admission: /healthz still answers 200.
            response = service.dispatch(make_request("GET", "/healthz"))
            assert response.status == 200
            health = json.loads(response.body)
            assert health["queue"]["depth"] == 1
            assert health["queue"]["max"] == 1
            assert health["queue"]["rejected"] == 1

            # A duplicate of an admitted sweep dedups instead of 429ing.
            response = service.dispatch(make_request(
                "POST", "/sweeps", dict(SWEEP, duration_s=0.32)))
            assert response.status == 200
            assert json.loads(response.body)["deduplicated"] is True

            gate.release.set()
            deadline = time.monotonic() + 30
            while (service.runner.queue_depth()
                    and time.monotonic() < deadline):
                time.sleep(0.02)
            response = service.dispatch(make_request("GET", "/readyz"))
            assert response.status == 200
            assert json.loads(response.body)["ready"] is True

            # The rejection rolled back cleanly: the same sweep is
            # admittable (not deduped to a ghost) once capacity frees.
            response = service.dispatch(make_request(
                "POST", "/sweeps", dict(SWEEP, duration_s=0.33)))
            assert response.status == 202
            assert json.loads(response.body)["deduplicated"] is False
        finally:
            gate.release.set()
            service.close()

    def test_readyz_refuses_while_draining(self):
        service = SweepService()
        try:
            service.state = "draining"
            response = service.dispatch(make_request("GET", "/readyz"))
            assert response.status == 503
            assert json.loads(response.body)["state"] == "draining"
        finally:
            service.close()


class TestJobEviction:
    def test_done_jobs_evicted_after_ttl(self, tmp_path):
        service = SweepService(cache=tmp_path / "cache", job_ttl_s=0.2)
        try:
            response = service.dispatch(
                make_request("POST", "/sweeps", SWEEP))
            job_id = json.loads(response.body)["id"]
            job = wait_job(service, job_id)
            assert job.state == "done"
            assert service.store.find(job_id) is not None

            time.sleep(0.3)
            assert service.store.find(job_id) is None
            response = service.dispatch(make_request("GET", "/healthz"))
            assert json.loads(response.body)["evicted_jobs"] == 1

            # An evicted sweep resubmits as a fresh job that restores
            # entirely from the result cache — eviction costs memory
            # recall, never re-simulation.
            response = service.dispatch(
                make_request("POST", "/sweeps", SWEEP))
            assert response.status == 202
            assert json.loads(response.body)["deduplicated"] is False
            job = wait_job(service, job_id)
            assert job.executed == 0
            assert job.cache_hits == len(job.specs)
        finally:
            service.close()


class TestDrainDeadline:
    def test_expired_drain_fails_inflight_as_deadline(self, tmp_path,
                                                      monkeypatch):
        service = SweepService(cache=tmp_path / "cache", job_workers=1)
        gate = _Gate(monkeypatch)
        try:
            response = service.dispatch(make_request(
                "POST", "/sweeps", dict(SWEEP, duration_s=0.35)))
            job_id = json.loads(response.body)["id"]
            assert gate.blocked.wait(15)

            response = service.dispatch(make_request(
                "POST", "/shutdown", {"drain_s": 0.3}))
            assert response.status == 202
            assert json.loads(response.body)["drain_s"] == 0.3

            deadline = time.monotonic() + 15
            while service.state != "stopped" \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert service.state == "stopped"

            job = service.store.find(job_id)
            assert job.state == "failed"
            assert [f.kind for f in job.failures] == ["deadline"]
            # The stream terminates instead of hanging on the wedge.
            events, exhausted = job.events_since(0)
            assert events[-1]["event"] == "failed"
            assert exhausted
        finally:
            gate.release.set()
            service.close()

    def test_invalid_drain_deadline_rejected(self):
        service = SweepService()
        try:
            response = service.dispatch(make_request(
                "POST", "/shutdown", {"drain_s": -1}))
            assert response.status == 400
            assert service.state == "running"
        finally:
            service.close()


def _on_a_loop():
    """True when called on a thread that runs an asyncio event loop."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


def _raw(port):
    return socket.create_connection(("127.0.0.1", port), timeout=10)


def _read_head(stream):
    """One response's status line and header lines, through the blank
    line that ends them."""
    lines = []
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            return lines
        lines.append(line.rstrip(b"\r\n"))


def _read_to_eof(sock):
    received = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        received.append(chunk)
    return b"".join(received)


#: A one-run sweep the tests below park behind a :class:`_Gate`.
TINY = {"apps": ["excel"], "duration_s": 0.1, "iterations": 1}


class TestEventLoop:
    def test_reads_run_on_the_loop_and_posts_on_a_thread(
            self, tmp_path, monkeypatch):
        seen = []
        dispatch = SweepService.dispatch

        def recorded(service, request):
            seen.append((request.method, request.path, _on_a_loop()))
            return dispatch(service, request)

        monkeypatch.setattr(SweepService, "dispatch", recorded)
        with running_server(SweepService(cache=tmp_path / "cache")) as srv:
            port = srv.port
            status, _, body = http_call(port, "POST", "/sweeps", TINY)
            assert status == 202
            job_id = json.loads(body)["id"]
            for path in (f"/sweeps/{job_id}/stream",
                         f"/sweeps/{job_id}/result", f"/sweeps/{job_id}",
                         "/sweeps", "/healthz", "/frontiers"):
                assert http_call(port, "GET", path)[0] == 200
            assert http_call(port, "HEAD", "/readyz")[0] == 200
            assert http_call(port, "POST", "/goldens", {})[0] == 400
        assert {method for method, _, _ in seen} == {"GET", "HEAD", "POST"}
        assert [(method, path) for method, path, on_loop in seen
                if on_loop != (method in ("GET", "HEAD"))] == []

    def test_stream_followers_cannot_wedge_the_daemon(self, tmp_path,
                                                      monkeypatch):
        gate = _Gate(monkeypatch)
        conns, followers = [], []
        service = SweepService(cache=tmp_path / "cache", job_workers=1)
        with running_server(service) as srv:
            try:
                status, _, body = http_call(srv.port, "POST", "/sweeps",
                                            TINY)
                assert status == 202
                job_id = json.loads(body)["id"]
                assert gate.blocked.wait(15)
                # More followers than the loop's default executor has
                # threads: not one of them may hold a thread.
                for _ in range(min(32, (os.cpu_count() or 1) + 4) + 2):
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", srv.port, timeout=5)
                    conns.append(conn)
                    conn.request("GET", f"/sweeps/{job_id}/stream")
                    response = conn.getresponse()
                    assert response.status == 200
                    followers.append((conn, response))

                status, _, _ = http_call(srv.port, "GET", "/healthz",
                                         timeout=2)
                assert status == 200
                status, _, _ = http_call(
                    srv.port, "POST", "/sweeps",
                    dict(TINY, duration_s=0.11), timeout=2)
                assert status == 202

                gate.release.set()
                for conn, response in followers:
                    conn.sock.settimeout(60)
                    events = [json.loads(line) for line in response]
                    assert [e["event"] for e in events] == ["app", "done"]
            finally:
                gate.release.set()
                for conn in conns:
                    conn.close()

    def test_disconnected_follower_leaves_no_watcher(self, tmp_path,
                                                     monkeypatch):
        gate = _Gate(monkeypatch)
        service = SweepService(cache=tmp_path / "cache", job_workers=1)
        with running_server(service) as srv:
            try:
                status, _, body = http_call(srv.port, "POST", "/sweeps",
                                            TINY)
                assert status == 202
                job = service.store.find(json.loads(body)["id"])
                assert gate.blocked.wait(15)
                conn = http.client.HTTPConnection("127.0.0.1", srv.port,
                                                  timeout=10)
                conn.request("GET", f"/sweeps/{job.id}/stream")
                assert conn.getresponse().status == 200
                deadline = time.monotonic() + 5
                while not job._watchers and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert len(job._watchers) == 1
                conn.close()            # the follower hangs up mid-job
            finally:
                gate.release.set()
            assert job.wait_done(60) and job.state == "done"
            deadline = time.monotonic() + 5
            while job._watchers and time.monotonic() < deadline:
                time.sleep(0.01)
            assert job._watchers == []

    def test_watchers_wake_on_appends_and_terminal_transitions(self):
        job = SweepJob(SweepRequest(["excel"]), "ab" * 32, spans=[],
                       specs=[], executor=None, backend="serial")
        feed = EventFeed(job)
        wakes = []
        unwatch = feed.watch(lambda: wakes.append(len(job._events)))
        assert feed.pull() == (b"", False)
        job.mark_running()
        assert wakes == []              # no event, no wake
        job.add_event({"event": "app", "app": "excel"})
        job.add_event({"event": "app", "app": "vlc"})
        assert wakes == [1, 2]
        chunk, exhausted = feed.pull()
        assert not exhausted
        assert chunk == (b'{"app":"excel","event":"app"}\n'
                         b'{"app":"vlc","event":"app"}\n')
        assert feed.pull() == (b"", False)
        assert job.fail(RuntimeError("boom"))
        assert wakes == [1, 2, 3]
        chunk, exhausted = feed.pull()
        assert exhausted and json.loads(chunk)["event"] == "failed"
        unwatch()
        unwatch()                       # idempotent
        assert job._watchers == []


class TestRawFraming:
    """Raw keep-alive sockets, which read exactly what the server
    sends — unlike ``http.client``, which knows HEAD has no body."""

    @staticmethod
    def _head_then_get(port, path):
        """``HEAD path`` then ``GET /readyz`` on one connection; returns
        the HEAD's head lines and the first line read after them."""
        with contextlib.closing(_raw(port)) as sock:
            stream = sock.makefile("rb")
            sock.sendall(b"HEAD %s HTTP/1.1\r\nHost: t\r\n\r\n"
                         % path.encode())
            head = _read_head(stream)
            sock.sendall(b"GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n")
            return head, stream.readline()

    def test_head_carries_no_body(self, server):
        head, after = self._head_then_get(server.port, "/healthz")
        assert head[0] == b"HTTP/1.1 200 OK"
        assert any(line.startswith(b"Content-Length: ") for line in head)
        assert after.startswith(b"HTTP/1.1 200")

    def test_head_of_a_stream_carries_no_chunks(self, server):
        _, _, body = http_call(server.port, "POST", "/sweeps", SWEEP)
        job = wait_job(server.service, json.loads(body)["id"])
        head, after = self._head_then_get(server.port,
                                          f"/sweeps/{job.id}/stream")
        assert head[0] == b"HTTP/1.1 200 OK"
        assert b"Transfer-Encoding: chunked" in head
        assert after.startswith(b"HTTP/1.1 200")

    def test_chunked_request_body_is_refused_and_closes(self, tmp_path):
        body = json.dumps(SWEEP).encode()
        request = (b"POST /sweeps HTTP/1.1\r\nHost: t\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body))
        with running_server(SweepService(cache=tmp_path / "cache")) as srv:
            with contextlib.closing(_raw(srv.port)) as sock:
                sock.sendall(request)
                received = _read_to_eof(sock)
            status, _, listing = http_call(srv.port, "GET", "/sweeps")
        head, _, content = received.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 400 Bad Request"
        assert b"Connection: close" in lines
        length = next(int(line.split(b":")[1]) for line in lines
                      if line.startswith(b"Content-Length:"))
        # Exactly one response, then EOF.
        assert len(content) == length
        assert "Transfer-Encoding" in json.loads(content)["error"]
        assert status == 200 and json.loads(listing)["jobs"] == []


class TestWorkerReuse:
    def test_daemon_forks_its_workers_once(self, spawned):
        service = SweepService(jobs=2, deadline_s=60.0)
        try:
            for duration_s in (0.3, 0.35, 0.4):
                job = submit_and_wait(service, {
                    "apps": ["excel", "vlc"], "duration_s": duration_s,
                    "iterations": 2})
                assert job.state == "done" and job.failures == []
                assert job.backend == "pool-2" and job.executed == 4
        finally:
            service.close()
        # Two workers serve all six app spans; forking a pool per span
        # would have spawned twelve.
        assert len(spawned) == 2

    @pytest.mark.parametrize("fault, kind, forks", [
        ("worker-hang", "deadline", 2),     # killed and respawned once
        ("worker-crash", "crash", 1),       # the raising run's worker
    ])
    def test_clean_sweep_after_a_fault_reuses_the_worker(
            self, spawned, fault, kind, forks):
        service = SweepService(jobs=1, deadline_s=1.0)
        try:
            job = submit_and_wait(service, {
                "apps": ["chrome"], "duration_s": 0.5, "iterations": 1,
                "fault": fault})
            assert [f.kind for f in job.failures] == [kind]
            job = submit_and_wait(service, SWEEP)
            assert job.state == "done" and job.failures == []
            assert job.result_bytes == suite_bytes(SWEEP)
        finally:
            service.close()
        assert len(spawned) == forks


class TestLedgerRecovery:
    def test_finished_job_restored_without_resimulation(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        first = SweepService(ledger=ledger, cache=tmp_path / "cache")
        try:
            response = first.dispatch(
                make_request("POST", "/sweeps", SWEEP))
            job_id = json.loads(response.body)["id"]
            job = wait_job(first, job_id)
            assert job.state == "done" and job.executed > 0
            original = job.result_bytes
        finally:
            first.close()

        restarted = SweepService(ledger=ledger, cache=tmp_path / "cache")
        try:
            job = restarted.store.find(job_id)
            assert job is not None and job.recovered == "finished"
            assert job.wait_done(120)
            assert job.state == "done"
            assert job.executed == 0
            assert job.cache_hits == len(job.specs)
            assert job.result_bytes == original
            assert job.etag() == f'"{job_id}"'
            response = restarted.dispatch(
                make_request("GET", "/healthz"))
            assert json.loads(response.body)["recovered"] == {
                "finished": 1, "interrupted": 0}
        finally:
            restarted.close()

    def test_interrupted_job_reenqueued_and_completed(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        request_payload = SweepRequest.from_payload(SWEEP).to_payload()
        lines = [
            {"format": "repro-job-ledger-v1"},
            {"event": "submitted", "id": "ab" * 32,
             "request": request_payload},
            {"event": "started", "id": "ab" * 32},
        ]
        ledger.write_text("".join(json.dumps(line) + "\n"
                                  for line in lines))
        service = SweepService(ledger=ledger, cache=tmp_path / "cache")
        try:
            jobs = service.store.all()
            assert len(jobs) == 1
            job = jobs[0]
            assert job.recovered == "interrupted"
            assert job.wait_done(120)
            assert job.state == "done" and job.failures == []
            assert job.result_bytes is not None
            response = service.dispatch(make_request("GET", "/healthz"))
            assert json.loads(response.body)["recovered"] == {
                "finished": 0, "interrupted": 1}
        finally:
            service.close()

    @staticmethod
    def _older_ledger(path, salvage):
        """A ledger holding one interrupted job whose submitted record
        carries the ``salvage`` field older ledgers wrote."""
        request_payload = dict(SweepRequest.from_payload(SWEEP).to_payload(),
                               salvage=salvage)
        path.write_text("".join(json.dumps(line) + "\n" for line in [
            {"format": "repro-job-ledger-v1"},
            {"event": "submitted", "id": "ef" * 32,
             "request": request_payload},
            {"event": "started", "id": "ef" * 32},
        ]))

    def test_older_record_with_salvage_false_recovers(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        self._older_ledger(ledger, salvage=False)
        service = SweepService(ledger=ledger, cache=tmp_path / "cache")
        try:
            [job] = service.store.all()
            assert job.recovered == "interrupted"
            # Recovered under the digest of today's spec keys.
            assert job.id == supervisor.sweep_digest(
                [spec_key(spec)
                 for spec in SweepRequest.from_payload(SWEEP).build()[1]])
            assert job.wait_done(120)
            assert job.state == "done" and job.failures == []
            response = service.dispatch(make_request("GET", "/healthz"))
            assert json.loads(response.body)["recovered"] == {
                "finished": 0, "interrupted": 1}
        finally:
            service.close()

    def test_older_record_with_salvage_true_is_skipped(self, tmp_path,
                                                       caplog):
        ledger = tmp_path / "ledger.jsonl"
        self._older_ledger(ledger, salvage=True)
        with caplog.at_level("WARNING", logger="repro.service"):
            service = SweepService(ledger=ledger,
                                   cache=tmp_path / "cache")
        try:
            assert service.store.all() == []
            assert "not recoverable" in caplog.text
            assert "salvage" in caplog.text
            response = service.dispatch(make_request("GET", "/healthz"))
            assert response.status == 200
            assert json.loads(response.body)["recovered"] == {
                "finished": 0, "interrupted": 0}
            assert submit_and_wait(service, SWEEP).state == "done"
        finally:
            service.close()

    def test_restarts_leave_a_finished_ledger_unchanged(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        first = SweepService(ledger=ledger, cache=tmp_path / "cache")
        try:
            assert submit_and_wait(first, SWEEP).state == "done"
        finally:
            first.close()
        recorded = ledger.read_bytes()
        for _ in range(2):
            restarted = SweepService(ledger=ledger,
                                     cache=tmp_path / "cache")
            try:
                [job] = restarted.store.all()
                assert job.wait_done(120) and job.state == "done"
                assert job.executed == 0
            finally:
                restarted.close()
            assert ledger.read_bytes() == recorded

    def test_finished_record_that_lost_its_newline_reruns_once(
            self, tmp_path):
        # A kill between a record's last byte and its newline leaves a
        # line that parses but was never acknowledged: the job replays
        # as interrupted, completes from the cache, and the ledger then
        # holds its `finished` record for good.
        ledger = tmp_path / "ledger.jsonl"
        first = SweepService(ledger=ledger, cache=tmp_path / "cache")
        try:
            assert submit_and_wait(first, SWEEP).state == "done"
        finally:
            first.close()
        ledger.write_bytes(ledger.read_bytes()[:-1])
        restarted = SweepService(ledger=ledger, cache=tmp_path / "cache")
        try:
            [job] = restarted.store.all()
            assert job.recovered == "interrupted"
            assert job.wait_done(120) and job.state == "done"
            assert job.executed == 0
        finally:
            restarted.close()
        assert [entry.state for entry in replay(ledger)] == ["finished"]
        recorded = ledger.read_bytes()
        again = SweepService(ledger=ledger, cache=tmp_path / "cache")
        try:
            [job] = again.store.all()
            assert job.recovered == "finished"
            assert job.wait_done(120) and job.state == "done"
        finally:
            again.close()
        assert ledger.read_bytes() == recorded

    def test_interrupted_job_appends_started_and_finished(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        sweep = SweepRequest.from_payload(SWEEP)
        digest = supervisor.sweep_digest(
            [spec_key(spec) for spec in sweep.build()[1]])
        ledger.write_text("".join(json.dumps(line) + "\n" for line in [
            {"format": "repro-job-ledger-v1"},
            {"event": "submitted", "id": digest,
             "request": sweep.to_payload()},
            {"event": "started", "id": digest},
        ]))
        before = ledger.read_text().splitlines()
        service = SweepService(ledger=ledger, cache=tmp_path / "cache")
        try:
            job = service.store.find(digest)
            assert job.recovered == "interrupted"
            assert job.wait_done(120) and job.state == "done"
        finally:
            service.close()
        lines = ledger.read_text().splitlines()
        assert lines[:len(before)] == before
        appended = [json.loads(line) for line in lines[len(before):]]
        assert [(r["event"], r["id"]) for r in appended] == \
            [("started", digest), ("finished", digest)]

    def test_recovered_job_settles_under_its_ledger_id(self, tmp_path):
        # The record's id is not the request's digest (an older ledger,
        # or a changed key scheme): the job recovers under the digest,
        # but its transitions go under the record's id, so the next
        # boot finds it finished and appends nothing.
        ledger = tmp_path / "ledger.jsonl"
        request_payload = SweepRequest.from_payload(SWEEP).to_payload()
        ledger.write_text("".join(json.dumps(line) + "\n" for line in [
            {"format": "repro-job-ledger-v1"},
            {"event": "submitted", "id": "ab" * 32,
             "request": request_payload},
            {"event": "started", "id": "ab" * 32},
        ]))
        kinds, executed, recorded = [], [], []
        for _ in range(3):
            service = SweepService(ledger=ledger, cache=tmp_path / "cache")
            try:
                [job] = service.store.all()
                kinds.append(job.recovered)
                assert job.wait_done(120) and job.state == "done"
                executed.append(job.executed)
            finally:
                service.close()
            recorded.append(ledger.read_bytes())
        assert kinds == ["interrupted", "finished", "finished"]
        assert executed[0] > 0 and executed[1:] == [0, 0]
        # Boot 1 appended the record id's started and finished; boots 2
        # and 3 appended nothing.
        assert recorded[0] == recorded[1] == recorded[2]
        assert len(recorded[2].splitlines()) == 5
        assert [(entry.id, entry.state) for entry in replay(ledger)] == \
            [("ab" * 32, "finished")]

    def test_failed_jobs_stay_failed_across_restart(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        request_payload = SweepRequest.from_payload(SWEEP).to_payload()
        lines = [
            {"format": "repro-job-ledger-v1"},
            {"event": "submitted", "id": "cd" * 32,
             "request": request_payload},
            {"event": "failed", "id": "cd" * 32, "error": "boom"},
        ]
        ledger.write_text("".join(json.dumps(line) + "\n"
                                  for line in lines))
        service = SweepService(ledger=ledger, cache=tmp_path / "cache")
        try:
            assert service.store.all() == []
        finally:
            service.close()

    def test_ledger_implies_cache(self, tmp_path):
        service = SweepService(ledger=tmp_path / "jobs.jsonl")
        try:
            assert service.cache_dir == str(tmp_path / "jobs.jsonl") \
                + ".cache"
        finally:
            service.close()


class TestServeCli:
    def test_serve_verb_serves_and_shuts_down(self):
        lines = []
        thread = threading.Thread(
            target=main, args=(["serve", "--port", "0"],),
            kwargs={"out": lines.append}, daemon=True)
        thread.start()
        base = None
        deadline = time.monotonic() + 15
        while base is None and time.monotonic() < deadline:
            base = next((line for line in list(lines)
                         if line.startswith("serving on ")), None)
            time.sleep(0.05)
        assert base is not None
        port = int(base.rsplit(":", 1)[1])
        status = None
        while status is None and time.monotonic() < deadline:
            try:
                status, _, body = http_call(port, "GET", "/healthz")
            except (OSError, http.client.HTTPException):
                time.sleep(0.1)
        assert status == 200
        status, _, _ = http_call(port, "POST", "/shutdown")
        assert status == 202
        thread.join(timeout=30)
        assert not thread.is_alive()
        text = "\n".join(lines)
        assert "GET /sweeps/{id}/result" in text
        assert "service stopped" in text
