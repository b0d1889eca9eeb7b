"""Kill–rerun integration: SIGKILL a live cached CLI sweep, run it again
over the same cache, and prove the results are byte-identical to an
uninterrupted run.

The result cache is the sweep's checkpoint: every run is stored as
soon as it finishes, so a re-run re-simulates only what never
finished.  This test drives a real ``python -m repro suite --cache``
process, a real signal mid-sweep, and a comparison of the saved JSON
files (which serialize every metric float, so byte equality is
bit-identity).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
APPS = "chrome,word,excel,firefox,vlc,photoshop"
ITERATIONS = 3
TOTAL_RUNS = 6 * ITERATIONS


def suite_cmd(json_out, cache=None):
    cmd = [sys.executable, "-m", "repro", "suite", "--apps", APPS,
           "--duration", "5", "--iterations", str(ITERATIONS),
           "--json", str(json_out)]
    if cache is not None:
        cmd += ["--cache", str(cache)]
    return cmd


def run_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def cache_entries(cache):
    return len(list(cache.glob("*/*.pkl")))


def start_and_kill(json_out, cache, sig, min_runs=2, timeout_s=60):
    """Start a cached sweep and signal it once ``min_runs`` are stored.

    Returns the process's exit code, or None if the sweep finished
    before the signal could land (callers retry with a fresh cache).
    """
    proc = subprocess.Popen(
        suite_cmd(json_out, cache=cache), env=run_env(),
        cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + timeout_s
    try:
        while cache_entries(cache) < min_runs:
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                return None
            time.sleep(0.002)
        proc.send_signal(sig)
        returncode = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if cache_entries(cache) >= TOTAL_RUNS:
        return None     # everything finished before the signal landed
    return returncode


def interrupted_sweep(tmp_path, sig, name):
    for attempt in range(5):
        cache = tmp_path / f"{name}-{attempt}.cache"
        json_out = tmp_path / f"{name}-{attempt}.json"
        returncode = start_and_kill(json_out, cache, sig)
        if returncode is not None:
            return cache, json_out, returncode
    pytest.skip("could not interrupt the sweep mid-flight")


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    json_out = tmp_path_factory.mktemp("baseline") / "suite.json"
    subprocess.run(
        suite_cmd(json_out), env=run_env(), cwd=REPO_ROOT, check=True,
        stdout=subprocess.DEVNULL, timeout=300)
    return json_out


def rerun(tmp_path, cache):
    """Run the sweep again over ``cache``; the saved JSON's path."""
    rerun_out = tmp_path / "rerun.json"
    done = subprocess.run(
        suite_cmd(rerun_out, cache=cache), env=run_env(),
        cwd=REPO_ROOT, stdout=subprocess.DEVNULL, timeout=300)
    assert done.returncode == 0
    assert cache_entries(cache) == TOTAL_RUNS
    return rerun_out


class TestKillResume:
    def test_sigkill_then_resume_is_bit_identical(self, tmp_path,
                                                  baseline):
        cache, json_out, returncode = interrupted_sweep(
            tmp_path, signal.SIGKILL, "killed")
        assert returncode != 0
        assert not json_out.exists()    # died before saving

        rerun_out = rerun(tmp_path, cache)
        assert rerun_out.read_bytes() == baseline.read_bytes()
        payload = json.loads(rerun_out.read_text())
        assert sorted(payload["results"]) == sorted(APPS.split(","))
        assert payload["failures"] == []

    def test_sigint_leaves_a_cache_that_reruns(self, tmp_path, baseline):
        cache, _, returncode = interrupted_sweep(
            tmp_path, signal.SIGINT, "interrupted")
        assert returncode != 0
        assert 0 < cache_entries(cache) < TOTAL_RUNS

        rerun_out = rerun(tmp_path, cache)
        assert rerun_out.read_bytes() == baseline.read_bytes()
