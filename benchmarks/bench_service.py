"""Perf — sweep-service read path: requests/s, p50/p99, cold vs warm,
plus the PR-10 robustness dimensions: crash-recovery time and behavior
at queue saturation.

Starts a real daemon on an ephemeral port, computes one small sweep,
then load-tests ``GET /sweeps/{id}/result`` over a keep-alive
connection two ways: *cold-cache* reads (full 200 bodies — the client
holds nothing) and *warm-cache* reads (``If-None-Match`` revalidations
answered 304 — the client holds the content-addressed payload).  A
resubmission of the same sweep through a fresh service over the same
result cache proves repeat traffic never re-simulates (zero executor
calls).

Two robustness measurements ride along: *recovery* times a restart
over a completed write-ahead ledger until the replayed job is done
again (all cache hits, zero re-simulation), and *saturation* wedges a
one-worker/one-slot dispatcher pool, then measures both the 429
rejection latency and — the acceptance gate — warm 304 reads staying
under the p99 ceiling while the queue is full.  Numbers land in
``BENCH_service.json``; the p99 gate is a generous ceiling that
catches a pathological read path, not a tight SLO.

``REPRO_BENCH_QUICK=1`` shrinks the request counts for smoke CI; it
prints its numbers but writes neither the JSON nor the report, which
hold full-mode numbers only.
"""

import http.client
import json
import os
import pathlib
import tempfile
import threading
import time

from repro.harness.supervisor import SupervisedExecutor
from repro.service import ServiceServer, SweepService
from repro.service.http import HttpRequest

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
N_READS = 200 if QUICK else 1500
N_REJECTS = 100 if QUICK else 500
#: Generous p99 ceiling (seconds) — the read path serves precomputed
#: bytes, so anything near this is a regression, not noise.
MAX_P99_S = 0.5

SWEEP = {"apps": ["excel", "vlc"], "duration_s": 0.4, "iterations": 1}

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_service.json"


def percentile(latencies, q):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]


def read_loop(port, path, n, headers=None, expect=200):
    """``n`` sequential reads over one keep-alive connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    latencies = []
    try:
        for _ in range(n):
            start = time.perf_counter()
            conn.request("GET", path, headers=headers or {})
            response = conn.getresponse()
            response.read()
            latencies.append(time.perf_counter() - start)
            assert response.status == expect, response.status
    finally:
        conn.close()
    return latencies


def phase_stats(latencies):
    wall = sum(latencies)
    return {
        "requests": len(latencies),
        "requests_per_s": round(len(latencies) / wall, 1),
        "p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
    }


def post(service, body):
    """One in-process sweep submission; returns the HttpResponse."""
    return service.dispatch(HttpRequest(
        method="POST", target="/sweeps", path="/sweeps", query={},
        headers={}, body=json.dumps(body).encode("utf-8")))


def submit_and_wait(service, sweep=SWEEP):
    """Submit ``sweep`` in-process and block until the job is done."""
    response = post(service, sweep)
    assert response.status in (200, 202), response.status
    job = service.store.find(json.loads(response.body)["id"])
    assert job is not None and job.wait_done(300)
    return job


def reject_loop(port, n, body):
    """``n`` sequential 429'd submissions over one keep-alive
    connection; asserts every rejection carries ``Retry-After``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    payload = json.dumps(body).encode("utf-8")
    latencies = []
    try:
        for _ in range(n):
            start = time.perf_counter()
            conn.request("POST", "/sweeps", body=payload)
            response = conn.getresponse()
            response.read()
            latencies.append(time.perf_counter() - start)
            assert response.status == 429, response.status
            assert response.getheader("Retry-After") is not None
    finally:
        conn.close()
    return latencies


def run_measurement():
    cache_dir = tempfile.mkdtemp(prefix="bench-service-cache-")

    service = SweepService(cache=cache_dir)
    server = ServiceServer(service, port=0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.wait_ready(15)
    try:
        job = submit_and_wait(service)
        path = f"/sweeps/{job.id}/result"
        read_loop(server.port, path, 25)    # warm-up, discarded
        cold = read_loop(server.port, path, N_READS)
        warm = read_loop(server.port, path, N_READS,
                         headers={"If-None-Match": job.etag()},
                         expect=304)
        body_bytes = len(job.result_bytes)
    finally:
        server.request_stop()
        thread.join(timeout=30)
        service.close()

    # Repeat traffic never re-simulates: a fresh daemon over the same
    # result cache resolves the same sweep with zero simulator calls.
    resubmitted = SweepService(cache=cache_dir)
    try:
        job = submit_and_wait(resubmitted)
        resubmit_executed = job.executor.executed
    finally:
        resubmitted.close()
    return cold, warm, body_bytes, resubmit_executed


def run_recovery_measurement():
    """Complete a sweep over a write-ahead ledger, then time a full
    restart-and-replay until the recovered job is done again."""
    tmp = tempfile.mkdtemp(prefix="bench-service-recovery-")
    ledger = os.path.join(tmp, "jobs.jsonl")
    cache = os.path.join(tmp, "cache")
    service = SweepService(ledger=ledger, cache=cache)
    try:
        grid_points = len(submit_and_wait(service).specs)
    finally:
        service.close()

    start = time.perf_counter()
    recovered = SweepService(ledger=ledger, cache=cache)
    try:
        (job,) = recovered.store.all()
        assert job.wait_done(300) and job.state == "done"
        recovery_s = time.perf_counter() - start
        assert job.executed == 0        # replay is all cache hits
        return {
            "recovery_ms": round(recovery_s * 1e3, 1),
            "grid_points": grid_points,
            "resimulated": job.executed,
            "cache_hits": job.cache_hits,
        }
    finally:
        recovered.close()


def run_saturation_measurement():
    """Wedge a one-worker/one-slot pool, then measure 429 rejections
    and warm 304 reads while the queue is at capacity."""
    cache_dir = tempfile.mkdtemp(prefix="bench-service-saturated-")
    service = SweepService(cache=cache_dir, job_workers=1, max_queue=1)
    server = ServiceServer(service, port=0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.wait_ready(15)
    release = threading.Event()
    blocked = threading.Event()
    run_span = SupervisedExecutor.map

    def parked(executor, specs):
        blocked.set()
        release.wait(300)
        return run_span(executor, specs)

    try:
        # A completed job first, so the read path has warm bytes.
        done_job = submit_and_wait(service)
        SupervisedExecutor.map = parked
        assert post(service, dict(SWEEP, duration_s=0.41)).status == 202
        assert blocked.wait(30)         # worker occupied
        assert post(service, dict(SWEEP, duration_s=0.42)).status == 202

        rejected = reject_loop(server.port, N_REJECTS,
                               dict(SWEEP, duration_s=0.43))
        warm = read_loop(server.port, f"/sweeps/{done_job.id}/result",
                         N_READS, headers={"If-None-Match":
                                           done_job.etag()}, expect=304)
        return rejected, warm
    finally:
        SupervisedExecutor.map = run_span
        release.set()
        server.request_stop()
        thread.join(timeout=30)
        service.close()


def test_perf_service(experiment, report):
    def run_all():
        cold, warm, body_bytes, resubmit_executed = run_measurement()
        recovery = run_recovery_measurement()
        rejected, saturated_warm = run_saturation_measurement()
        return (cold, warm, body_bytes, resubmit_executed, recovery,
                rejected, saturated_warm)

    (cold, warm, body_bytes, resubmit_executed, recovery, rejected,
     saturated_warm) = experiment(run_all)

    assert resubmit_executed == 0

    payload = {
        "benchmark": "perf_service",
        "sweep": SWEEP,
        "result_bytes": body_bytes,
        "cold_full_body": phase_stats(cold),
        "warm_conditional_304": phase_stats(warm),
        "resubmit_executed": resubmit_executed,
        "recovery": recovery,
        "saturated_rejects_429": phase_stats(rejected),
        "saturated_warm_304": phase_stats(saturated_warm),
        "quick": QUICK,
    }
    c, w = payload["cold_full_body"], payload["warm_conditional_304"]
    r, sw = payload["saturated_rejects_429"], payload["saturated_warm_304"]
    lines = [
        "Perf — sweep-service read path (cold/warm, recovery, "
        "saturation)",
        "",
        f"result body : {body_bytes} bytes "
        f"({len(SWEEP['apps'])} apps, content-addressed)",
        f"cold (200)  : {c['requests_per_s']:8.1f} req/s   "
        f"p50 {c['p50_ms']:7.3f} ms   p99 {c['p99_ms']:7.3f} ms",
        f"warm (304)  : {w['requests_per_s']:8.1f} req/s   "
        f"p50 {w['p50_ms']:7.3f} ms   p99 {w['p99_ms']:7.3f} ms",
        "resubmit    : 0 simulations (dedup via shared result cache)",
        f"recovery    : {recovery['recovery_ms']:8.1f} ms to replay "
        f"{recovery['grid_points']} grid points "
        f"({recovery['resimulated']} re-simulated, "
        f"{recovery['cache_hits']} cache hits)",
        f"full queue  : {r['requests_per_s']:8.1f} rej/s   "
        f"p50 {r['p50_ms']:7.3f} ms   p99 {r['p99_ms']:7.3f} ms "
        f"(429 + Retry-After)",
        f"sat. warm   : {sw['requests_per_s']:8.1f} req/s   "
        f"p50 {sw['p50_ms']:7.3f} ms   p99 {sw['p99_ms']:7.3f} ms "
        f"(304s while saturated)",
    ]
    if QUICK:
        print("\n".join(lines))
    else:
        BENCH_JSON.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        report("perf_service", "\n".join(lines))

    # The acceptance gate: reads — including under a saturated queue —
    # and rejections all stay under the p99 ceiling.
    for phase in (c, w, r, sw):
        assert phase["p99_ms"] / 1e3 < MAX_P99_S, (
            f"read-path p99 {phase['p99_ms']} ms exceeds the "
            f"{MAX_P99_S * 1e3:.0f} ms ceiling")
