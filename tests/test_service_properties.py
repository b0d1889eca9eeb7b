"""Property-based proof of the service's dedup/identity guarantees.

The API's correctness claim: for *any* ordering of sweep submissions —
duplicates, interleavings, repeats across a service restart — every
result payload is byte-identical to what a direct ``run_suite`` of the
same specs persists, and the content-addressed ``ETag`` never moves.
Hypothesis draws arbitrary submission sequences over a small candidate
pool; expected bytes are memoized per candidate from an *independent*
harness run (its own cache), so a payload bug in the service cannot
cancel out.
"""

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.cache import ResultCache
from repro.harness.executor import SerialExecutor
from repro.harness.suite import run_suite
from repro.reporting.payloads import canonical_json_bytes, suite_payload
from repro.service import SweepService
from repro.service.http import HttpRequest
from repro.sim import SECOND

#: The candidate pool: distinct sweeps small enough that Hypothesis
#: examples stay cheap after the first (cached) simulation of each.
CANDIDATES = (
    {"apps": ["excel"], "duration_s": 0.25, "iterations": 1},
    {"apps": ["vlc"], "duration_s": 0.25, "iterations": 1},
    {"apps": ["excel", "vlc"], "duration_s": 0.25, "iterations": 1},
)

#: Module-level state (not function fixtures) keeps Hypothesis'
#: health checks quiet and amortizes simulations across examples.
_SERVICE_CACHE = tempfile.mkdtemp(prefix="svc-prop-cache-")
_EXPECTED_CACHE = tempfile.mkdtemp(prefix="svc-prop-expected-")
_SERVICE = None
_EXPECTED = {}
_ETAGS = {}


def service():
    global _SERVICE
    if _SERVICE is None:
        _SERVICE = SweepService(cache=_SERVICE_CACHE)
    return _SERVICE


@pytest.fixture(scope="module", autouse=True)
def close_shared_service():
    """Shut the shared service's idle workers down with the module."""
    global _SERVICE
    yield
    if _SERVICE is not None:
        _SERVICE.close()
        _SERVICE = None


def request(method, path, body=None):
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    return HttpRequest(method=method, target=path, path=path, query={},
                       headers={}, body=payload)


def expected_bytes(index):
    """What ``repro suite --json`` would persist for this candidate —
    computed straight through the harness, no service involved."""
    if index not in _EXPECTED:
        candidate = CANDIDATES[index]
        suite = run_suite(
            names=tuple(candidate["apps"]),
            duration_us=int(candidate["duration_s"] * SECOND),
            iterations=candidate["iterations"],
            executor=SerialExecutor(cache=ResultCache(_EXPECTED_CACHE)))
        _EXPECTED[index] = canonical_json_bytes(suite_payload(
            suite, metadata={"duration_s": candidate["duration_s"],
                             "iterations": candidate["iterations"]}))
    return _EXPECTED[index]


def submit_and_fetch(svc, index):
    """Submit candidate ``index``; returns ``(etag, body)`` once done."""
    response = svc.dispatch(request("POST", "/sweeps", CANDIDATES[index]))
    assert response.status in (200, 202)
    job_id = json.loads(response.body)["id"]
    job = svc.store.find(job_id)
    assert job is not None and job.wait_done(180)
    response = svc.dispatch(request("GET", f"/sweeps/{job_id}/result"))
    assert response.status == 200
    return response.headers["ETag"], response.body


@settings(max_examples=5, deadline=None)
@given(ordering=st.lists(st.sampled_from(range(len(CANDIDATES))),
                         min_size=1, max_size=6))
def test_any_submission_ordering_yields_cli_identical_payloads(ordering):
    svc = service()
    submissions = {}
    # Interleave all submissions first (duplicates dedup in flight),
    # then collect — results must not depend on arrival order.
    for index in ordering:
        response = svc.dispatch(
            request("POST", "/sweeps", CANDIDATES[index]))
        assert response.status in (200, 202)
        payload = json.loads(response.body)
        if index in submissions:
            # Same candidate resubmitted: same job, same digest.
            assert payload["id"] == submissions[index]
        submissions[index] = payload["id"]
    for index in set(ordering):
        etag, body = submit_and_fetch(svc, index)
        assert body == expected_bytes(index)
        assert etag == f'"{submissions[index]}"'
        previous = _ETAGS.setdefault(index, etag)
        assert etag == previous


def test_etag_and_payload_stable_across_service_restart():
    """A fresh service over the same cache reproduces every payload and
    ETag without one new simulation (the dedup/cache contract)."""
    for index in range(len(CANDIDATES)):
        submit_and_fetch(service(), index)     # ensure cache is warm
    restarted = SweepService(cache=_SERVICE_CACHE)
    try:
        for index in range(len(CANDIDATES)):
            etag, body = submit_and_fetch(restarted, index)
            assert body == expected_bytes(index)
            assert etag == _ETAGS.get(index, etag)
            job = restarted.store.find(etag.strip('"'))
            assert job.executor.executed == 0
    finally:
        restarted.close()
