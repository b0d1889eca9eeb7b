"""Kill–recover integration for the *service*: SIGKILL a live
``repro serve`` daemon mid-sweep, restart it over the same ledger, and
prove the recovered result is byte-identical to an uninterrupted run
with zero re-simulation of the spans that finished before the kill.

This is the daemon-level counterpart of ``test_resume_kill.py``: a
real server process on a real port, a real SIGKILL, recovery driven
entirely by the write-ahead ledger + content-addressed cache, and
byte-equality of the result payload (every metric float serializes, so
this is bit-identity).

The daemon keeps its simulation workers between sweeps, so a SIGKILL
can leave idle workers behind: they must notice and exit on their own.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from tests.test_supervisor import _running as running

REPO_ROOT = Path(__file__).resolve().parent.parent
APPS = ["chrome", "word", "excel", "vlc"]
ITERATIONS = 2
TOTAL_RUNS = len(APPS) * ITERATIONS
SWEEP = {"apps": APPS, "duration_s": 4.0, "iterations": ITERATIONS}
#: Spans that must be on disk before the kill (the "mid-sweep" proof).
MIN_CACHED = 2


def run_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def start_server(ledger, cache, *options):
    """Launch ``repro serve`` on an ephemeral port; returns
    ``(process, port)`` once the banner announces the bound port."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--ledger", str(ledger), "--cache", str(cache), *options],
        env=run_env(), cwd=REPO_ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("serving on http://"):
            return proc, int(line.rsplit(":", 1)[1])
    proc.kill()
    proc.wait()
    raise AssertionError("server never announced its port")


def http(port, method, path, body=None, timeout=120):
    payload = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=payload, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def children_of(pid):
    """Pids whose parent is ``pid``, read from ``/proc/*/stat``."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue            # exited while we looked
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


def cached_entries(cache):
    return len(list(Path(cache).glob("*/*.pkl")))


def ledger_has_finished(ledger):
    try:
        text = Path(ledger).read_text()
    except FileNotFoundError:
        return False
    return '"event":"finished"' in text


def interrupted_serve(tmp_path):
    """SIGKILL a serving daemon once >= MIN_CACHED spans are cached but
    before the sweep finishes; returns ``(ledger, cache, job_id,
    pre_kill_entries)`` (retrying if the sweep outruns the kill)."""
    for attempt in range(5):
        ledger = tmp_path / f"serve-{attempt}.jsonl"
        cache = tmp_path / f"serve-{attempt}.cache"
        proc, port = start_server(ledger, cache)
        try:
            status, body = http(port, "POST", "/sweeps", SWEEP)
            assert status == 202, body
            job_id = json.loads(body)["id"]
            deadline = time.monotonic() + 240
            while cached_entries(cache) < MIN_CACHED:
                if proc.poll() is not None \
                        or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            pre_kill = cached_entries(cache)
        finally:
            proc.kill()
            proc.wait()
        if MIN_CACHED <= pre_kill and not ledger_has_finished(ledger):
            return ledger, cache, job_id, pre_kill
    pytest.skip("could not interrupt the served sweep mid-flight")


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """What an uninterrupted ``repro suite --json`` saves for SWEEP."""
    json_out = tmp_path_factory.mktemp("serve-baseline") / "suite.json"
    subprocess.run(
        [sys.executable, "-m", "repro", "suite",
         "--apps", ",".join(APPS), "--duration", str(SWEEP["duration_s"]),
         "--iterations", str(ITERATIONS), "--json", str(json_out)],
        env=run_env(), cwd=REPO_ROOT, check=True,
        stdout=subprocess.DEVNULL, timeout=600)
    return json_out.read_bytes()


class TestServeKillRecover:
    def test_sigkill_restart_recovers_byte_identical(self, tmp_path,
                                                     baseline):
        ledger, cache, job_id, pre_kill = interrupted_serve(tmp_path)

        proc, port = start_server(ledger, cache)
        try:
            # The interrupted job was re-admitted from the ledger under
            # the same content-addressed id.
            status, body = http(port, "GET", f"/sweeps/{job_id}")
            assert status == 200, body
            assert json.loads(body)["recovered"] == "interrupted"

            deadline = time.monotonic() + 240
            while time.monotonic() < deadline:
                status, body = http(port, "GET",
                                    f"/sweeps/{job_id}/result")
                if status == 200:
                    break
                assert status == 202, body
                time.sleep(0.2)
            assert status == 200

            # Byte-identical to the uninterrupted run...
            assert body == baseline

            # ...with zero re-simulation of the spans that finished
            # before the kill: they restored from the cache.
            status, body = http(port, "GET", f"/sweeps/{job_id}")
            payload = json.loads(body)
            assert payload["state"] == "done"
            assert payload["cache_hits"] >= pre_kill
            assert payload["executed"] <= TOTAL_RUNS - pre_kill
            assert payload["executed"] + payload["cache_hits"] \
                == TOTAL_RUNS

            status, body = http(port, "GET", "/healthz")
            assert json.loads(body)["recovered"]["interrupted"] == 1

            status, _ = http(port, "POST", "/shutdown",
                             {"drain_s": 30})
            assert status == 202
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="needs /proc to find the daemon's workers")
class TestIdleWorkersOrphaned:
    def test_idle_pooled_workers_exit_when_the_daemon_is_killed(
            self, tmp_path):
        proc, port = start_server(tmp_path / "ledger.jsonl",
                                  tmp_path / "cache", "--jobs", "2",
                                  "--deadline-us", "60000000")
        workers = []
        try:
            status, body = http(port, "POST", "/sweeps", {
                "apps": ["excel", "vlc"], "duration_s": 0.4,
                "iterations": 2})
            assert status == 202, body
            job_id = json.loads(body)["id"]
            deadline = time.monotonic() + 120
            state = None
            while state != "done" and time.monotonic() < deadline:
                state = json.loads(
                    http(port, "GET", f"/sweeps/{job_id}")[1])["state"]
                time.sleep(0.05)
            assert state == "done"
            # The sweep is over; its two workers wait idle in the pool.
            workers = children_of(proc.pid)
            assert len(workers) == 2
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 20
            while (any(running(pid) for pid in workers)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert not [pid for pid in workers if running(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in filter(running, workers):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
