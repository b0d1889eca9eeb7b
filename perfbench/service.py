"""``service-mixed``: a closed loop against one ``repro serve`` daemon.

The daemon runs in its own process with ``--port 0 --ledger <tmp>
--job-workers 1 --retries 1 --deadline-us 60000000``, so every sweep runs
in supervised worker processes.  ``min(2, usable CPUs)`` keep-alive
connections each work through their share of a seeded plan of 120 sweep
sessions; a session POSTs a sweep, follows its NDJSON stream to
``done``, reads the result once (200) and revalidates it
:data:`REVALIDATIONS` times with ``If-None-Match`` (304).  About two in
three sessions repeat a request their connection made before: each of
40 distinct new requests is sent once and repeated twice.

A pass is: boot the daemon on a fresh ledger (plus one warm-up sweep),
the closed loop, ``POST /shutdown``, then a restart over the same
ledger, timed until every recovered job is done again.
"""

import http.client
import itertools
import json
import random
import subprocess
import sys
import threading
from collections import defaultdict

from perfbench.common import (
    ROOT,
    child_env,
    clock,
    peak_rss_mib,
    sha256,
    simulated_records,
    usable_cpus,
)
from perfbench.probes import REQUEST_HEADER, self_intervals
from perfbench.stats import FailureTally, clip

#: Every new request is submitted once and then repeated this often,
#: so two in three sessions are repeats.
REPEATS = 2
NEW_REQUESTS = 40
REVALIDATIONS = 10
DEADLINE_US = 60_000_000
#: Result bodies re-computed with ``run_suite`` and compared per invocation.
BYTE_SAMPLE = 3
WARMUP = {"apps": ["excel"], "duration_s": 0.1, "iterations": 1,
          "machine": {"cores": 2}}
#: Requests of one app, per (cores, duration) group of ten apps; the
#: rest of each group goes out in pairs.  20 singles and 20 pairs.
SINGLES = (2, 4, 2, 4, 4, 4)


def new_requests(rng):
    """:data:`NEW_REQUESTS` distinct small sweep requests.

    Every suite app is simulated exactly twice per pass, at 0.25 s and
    at 0.5 s, on a core count fixed by its position in the suite (4, 8
    or 12), so the simulation work of a pass does not depend on the
    seed.  The seed decides which apps share a request, the order of
    the requests and which connection sends them.
    """
    from repro.apps import SUITE

    groups = [(cores, duration, list(SUITE[offset::3]))
              for offset, cores in enumerate((4, 8, 12))
              for duration in (0.25, 0.5)]
    singles = list(SINGLES)
    rng.shuffle(singles)
    requests = []
    for (cores, duration, apps), n_single in zip(groups, singles):
        rng.shuffle(apps)
        chunks = [apps[i:i + 1] for i in range(n_single)]
        chunks += [apps[i:i + 2] for i in range(n_single, len(apps), 2)]
        requests += [{"apps": chunk, "duration_s": duration,
                      "iterations": 1, "machine": {"cores": cores}}
                     for chunk in chunks]
    rng.shuffle(requests)
    return requests


def make_plan(seed, connections):
    """``[(connection, request, is_new), ...]`` in submission order per
    connection.  Each connection sends an equal share of the new
    requests, each followed later by :data:`REPEATS` repeats on the same
    connection, so a repeat always meets the daemon's digest dedup of a
    finished job."""
    rng = random.Random(f"service-mixed:{seed}")
    fresh = new_requests(rng)
    plan = []
    for conn in range(connections):
        mine = fresh[conn::connections]
        tokens = [i for i in range(len(mine)) for _ in range(1 + REPEATS)]
        rng.shuffle(tokens)
        sent = set()
        for i in tokens:
            plan.append((conn, mine[i], i not in sent))
            sent.add(i)
    return plan


class Daemon:
    """One ``repro serve`` process (see :mod:`perfbench.daemon`).

    The process is added to ``started`` before the banner is awaited,
    so whoever owns that list can kill it even if start-up is cut short.
    """

    def __init__(self, ledger, started, trace_out=None, log=None):
        self.spawned_at = clock()
        command = [sys.executable, "-m", "perfbench.daemon"]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", "--port", "0", "--ledger", str(ledger),
                    "--job-workers", "1", "--retries", "1",
                    "--deadline-us", str(DEADLINE_US)]
        self.trace_out = trace_out
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log or subprocess.DEVNULL,
            env=child_env(), cwd=ROOT)
        started.append(self)
        self.boot = None
        self.port = None
        for raw in self.proc.stdout:
            line = raw.decode().strip()
            if line.startswith("perfbench-boot "):
                self.boot = float(line.split()[1])
            elif line.startswith("serving on http://"):
                self.port = int(line.rsplit(":", 1)[1])
                break
        if self.port is None:
            self.kill()
            raise RuntimeError("repro serve did not come up")

    @property
    def pid(self):
        return self.proc.pid

    def stop(self, client):
        """``POST /shutdown`` and wait for the process to exit."""
        status = client.call("POST", "/shutdown", {})[0]
        # An open keep-alive connection would hold the drain for 5 s.
        client.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("repro serve did not stop after /shutdown")
        self.proc.stdout.close()
        if status != 202 or self.proc.returncode != 0:
            raise RuntimeError(f"shutdown answered {status}, daemon exited "
                               f"{self.proc.returncode}")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def spans(self):
        from perfbench.probes import load

        with open(self.trace_out) as handle:
            return load(json.load(handle))


class Client:
    """One keep-alive connection; every request is logged with its
    window, its id (sent as a header) and the job it concerns."""

    _ids = itertools.count(1)

    def __init__(self, port, log):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=120)
        self.log = log

    def call(self, method, path, body=None, headers=None, job=None):
        request_id = next(Client._ids)
        headers = dict(headers or {})
        headers[REQUEST_HEADER] = str(request_id)
        payload = None
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        start = clock()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        end = clock()
        self.log.append((request_id, job, start, end))
        return response.status, response, data, end - start

    def close(self):
        self.conn.close()


def run_session(client, request, is_new, out):
    """One sweep session; appends its measurements to ``out``."""
    tally = out["tally"]
    start = clock()
    status, _, data, _ = client.call("POST", "/sweeps", request)
    tally.reply(status, 202 if is_new else 200)
    submitted = json.loads(data)
    job = submitted["id"]
    out["backends"].add(submitted.get("backend"))
    if submitted.get("deduplicated") != (not is_new):
        out["problems"].append(f"sweep {job[:12]}: deduplicated="
                               f"{submitted.get('deduplicated')} for a "
                               f"{'new' if is_new else 'repeated'} request")
    status, _, data, _ = client.call("GET", f"/sweeps/{job}/stream", job=job)
    tally.reply(status, 200)
    events = [json.loads(line) for line in data.splitlines() if line]
    done = events[-1] if events else {}
    if done.get("event") != "done":
        out["problems"].append(f"sweep {job[:12]}: stream ended {done}")
    tally.runs(len(request["apps"]), len(done.get("failures", ())))
    status, response, body, latency = client.call(
        "GET", f"/sweeps/{job}/result", job=job)
    out["sweep_ms"]["new" if is_new else "repeat"].append(
        (clock() - start) * 1e3)
    tally.reply(status, 200)
    out["read_ms"].append(latency * 1e3)
    etag = response.getheader("ETag")
    out["bodies"].append((job, body))
    for _ in range(REVALIDATIONS):
        status, response, _, latency = client.call(
            "GET", f"/sweeps/{job}/result", headers={"If-None-Match": etag},
            job=job)
        tally.reply(status, 304)
        out["read_ms"].append(latency * 1e3)
        if status != 304 or response.getheader("ETag") != etag:
            out["problems"].append(f"sweep {job[:12]}: revalidation gave "
                                   f"{status} {response.getheader('ETag')}")
    out["points"] += len(request["apps"])


def _new_out():
    """Measurements of one connection (or of all, merged)."""
    return {"tally": FailureTally(), "sweep_ms": defaultdict(list),
            "read_ms": [], "bodies": [], "problems": [], "backends": set(),
            "points": 0, "log": []}


class ServiceMixed:
    name = "service-mixed"
    #: Set-up is the daemon boot plus a warm-up sweep, timed per pass.
    setup_modules = None

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.connections = min(2, usable_cpus())
        self.plan = make_plan(seed, self.connections)
        self.passes = 0
        self.backends = set()

    def provenance(self):
        new = sum(1 for _, _, is_new in self.plan if is_new)
        return {"sessions": len(self.plan), "new_requests": new,
                "repeated_requests": len(self.plan) - new,
                "revalidations_per_session": REVALIDATIONS,
                "connections": self.connections,
                "daemon": ["--port", "0", "--ledger", "<tmp>",
                           "--job-workers", "1", "--retries", "1",
                           "--deadline-us", str(DEADLINE_US)],
                "daemon_backend": sorted(b for b in self.backends if b)}

    def check(self, first):
        return _checks(self, first)

    def fidelity(self, first, golden):
        """The service serves no Table II run: the distance is the golden
        grid's paper-machine column, replayed by the gate."""
        return golden

    def layer_extras(self, first):
        repeats = sum(1 for _, _, is_new in self.plan if not is_new)
        return {"service.dedup_ratio": (repeats / len(self.plan), "ratio")}

    def events(self):
        """Trace records the daemon's workers simulate per pass: every
        new request once (repeats dedup, recovery restores from cache)."""
        from repro.service.jobs import SweepRequest

        specs = []
        for _, request, is_new in self.plan:
            if is_new:
                specs += SweepRequest.from_payload(request).build()[1]
        return simulated_records(specs)

    def run_pass(self, tracer=None):
        self.passes += 1
        base = self.work / f"service-{self.passes}"
        base.mkdir()
        ledger = base / "ledger.jsonl"
        traced = tracer is not None
        log = open(base / "daemon.log", "wb")
        started = []
        try:
            first = Daemon(ledger, started,
                           base / "spans-1.json" if traced else None, log)
            control = Client(first.port, [])
            self._sweep(control, WARMUP)
            setup = clock() - first.spawned_at
            out = self._closed_loop(first.port)
            rss = peak_rss_mib(first.pid)
            first.stop(control)
            second = Daemon(ledger, started,
                            base / "spans-2.json" if traced else None, log)
            control = Client(second.port, [])
            recovery = self._recover(control, second, out)
            second.stop(control)
        finally:
            for daemon in started:
                if daemon.proc.poll() is None:
                    daemon.kill()
            log.close()
        self.backends |= out["backends"]
        bodies = out.pop("bodies")
        out.update({
            "setup_s": setup, "peak_rss_mib": rss, "recovery_s": recovery,
            "digest": sha256(*(body for _, body in bodies)),
            "bodies": dict(bodies),
        })
        if traced:
            out["tracers"] = [first.spans(), second.spans()]
        return out

    @staticmethod
    def _sweep(client, request):
        _, _, data, _ = client.call("POST", "/sweeps", request)
        job = json.loads(data)["id"]
        client.call("GET", f"/sweeps/{job}/stream")
        status = client.call("GET", f"/sweeps/{job}/result")[0]
        if status != 200:
            raise RuntimeError(f"warm-up sweep answered {status}")

    def _closed_loop(self, port):
        outs = [_new_out() for _ in range(self.connections)]
        threads = [threading.Thread(
            target=self._connection, daemon=True,
            args=(port, [(request, is_new) for c, request, is_new
                         in self.plan if c == conn], outs[conn]))
            for conn in range(self.connections)]
        start = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = _new_out()
        merged["wall_s"] = clock() - start
        for out in outs:
            if "error" in out:
                raise out["error"]
            merged["tally"].merge(out["tally"])
            for kind, values in out["sweep_ms"].items():
                merged["sweep_ms"][kind] += values
            for key in ("read_ms", "bodies", "problems", "log"):
                merged[key] += out[key]
            merged["backends"] |= out["backends"]
            merged["points"] += out["points"]
        # One body per job, ordered by job id: the digest must not
        # depend on which connection finished first.
        merged["bodies"] = sorted(dict(merged["bodies"]).items())
        merged["jobs"] = [job for job, _ in merged["bodies"]]
        return merged

    @staticmethod
    def _connection(port, sessions, out):
        client = Client(port, out["log"])
        try:
            for request, is_new in sessions:
                run_session(client, request, is_new, out)
        except Exception as exc:    # surfaced by the joining thread
            out["error"] = exc
        finally:
            client.close()

    @staticmethod
    def _recover(client, daemon, out):
        """Seconds from the restarted daemon's boot until every recovered
        job is done; checks that recovery re-simulated nothing and
        served the same bytes."""
        while True:
            jobs = json.loads(client.call("GET", "/sweeps")[2])["jobs"]
            pending = [job["id"] for job in jobs
                       if job["state"] in ("queued", "running")]
            if not pending:
                break
            # One dispatcher drains the replayed jobs in ledger order,
            # so the last one finishing means all have.
            client.call("GET", f"/sweeps/{pending[-1]}/stream")
        recovered = clock() - daemon.boot
        seen = set()
        for job in jobs:
            seen.add(job["id"])
            if (job["state"] != "done" or job.get("executed") != 0
                    or job.get("recovered") != "finished"):
                out["problems"].append(
                    f"recovered job {job['id'][:12]}: {job['state']}, "
                    f"executed {job.get('executed')}")
        if not set(out["jobs"]) <= seen:
            out["problems"].append("jobs missing after recovery")
        for job, body in out["bodies"]:
            status, _, data, _ = client.call("GET", f"/sweeps/{job}/result")
            if status != 200 or data != body:
                out["problems"].append(f"recovered result of {job[:12]} "
                                       f"differs")
        return recovered


def attribute(log, tracer):
    """Split each client request's latency over daemon spans.

    A request owns the spans of its own group (its ``dispatch`` tree)
    and, for requests about one job, the spans the dispatcher thread ran
    for that job, clipped to the request's window.  What no span covers
    is framing, event loop, thread hand-off and queueing: the request's
    wait.  Returns ``({span name: seconds}, wait seconds)``.
    """
    intervals = self_intervals(tracer.spans)
    by_group = defaultdict(list)
    for span in tracer.spans:
        by_group[span[5]].append(span)
    attributed = defaultdict(float)
    wait = 0.0
    for request_id, job, start, end in log:
        covered = 0.0
        groups = [f"r{request_id}"] + ([f"job:{job}"] if job else [])
        for group in groups:
            for span in by_group.get(group, ()):
                inside = sum(e - s for s, e in
                             clip(intervals[span[0]], start, end))
                attributed[span[1]] += inside
                covered += inside
        wait += max(0.0, end - start - covered)
    return attributed, wait


def _job_id(request):
    """The daemon's job id (sweep digest) of a request body."""
    from repro.harness.cache import spec_key
    from repro.harness.supervisor import sweep_digest
    from repro.service.jobs import SweepRequest

    _, specs = SweepRequest.from_payload(request).build()
    return sweep_digest([spec_key(spec) for spec in specs])


def _checks(workload, first):
    """Invocation-level checks of ``service-mixed`` (untimed)."""
    from repro.harness import run_suite
    from repro.reporting.payloads import canonical_json_bytes, suite_payload
    from repro.service.jobs import SweepRequest
    from repro.sim import SECOND

    problems = list(first["problems"])
    new = [request for _, request, is_new in workload.plan if is_new]
    rng = random.Random(f"service-mixed-bytes:{workload.seed}")
    for request in rng.sample(new, min(BYTE_SAMPLE, len(new))):
        sweep = SweepRequest.from_payload(request)
        suite = run_suite(sweep.apps, machine=sweep.machine(),
                          duration_us=int(sweep.duration_s * SECOND),
                          iterations=sweep.iterations)
        expected = canonical_json_bytes(
            suite_payload(suite, metadata=sweep.metadata()))
        if first["bodies"].get(_job_id(request)) != expected:
            problems.append(f"served body of {request} differs from "
                            f"run_suite")
    return problems
