"""Property-based proof of the job ledger's recovery guarantees.

The durability claim: a daemon killed at *any* moment — mid-record,
mid-line, between fsyncs — restarts from whatever prefix of the ledger
made it to disk, never crashes on the torn tail, never re-simulates a
span the content-addressed cache already holds, and serves payloads
byte-identical to the uninterrupted run.  Hypothesis truncates a real
ledger (built by running sweeps to completion once, module-level) at
arbitrary byte offsets and replays each prefix through a fresh
service; deterministic unit tests below pin the replay state machine
itself.
"""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import SweepService
from repro.service.http import HttpRequest
from repro.service.ledger import JobLedger, LedgerJob, replay

#: Distinct sweeps that populate the module ledger (cheap after the
#: first simulation warms the shared cache).
CANDIDATES = (
    {"apps": ["excel"], "duration_s": 0.25, "iterations": 1},
    {"apps": ["vlc"], "duration_s": 0.25, "iterations": 1},
    {"apps": ["excel", "vlc"], "duration_s": 0.25, "iterations": 1},
)

#: Module-level state: one completed run builds the reference ledger
#: and warms the cache every truncated replay restores from.
_TMP = tempfile.mkdtemp(prefix="ledger-prop-")
_CACHE = os.path.join(_TMP, "cache")
_LEDGER_BYTES = None
_BASELINE = {}          # job id -> result bytes from the clean run
_COUNTER = [0]


def request(method, path, body=None):
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    return HttpRequest(method=method, target=path, path=path, query={},
                       headers={}, body=payload)


def reference_ledger():
    """Run every candidate to completion once; returns the full ledger
    bytes (header + submitted/started/finished per candidate)."""
    global _LEDGER_BYTES
    if _LEDGER_BYTES is None:
        path = os.path.join(_TMP, "reference.jsonl")
        service = SweepService(ledger=path, cache=_CACHE)
        try:
            for candidate in CANDIDATES:
                response = service.dispatch(
                    request("POST", "/sweeps", candidate))
                job_id = json.loads(response.body)["id"]
                job = service.store.find(job_id)
                assert job.wait_done(180) and job.state == "done"
                _BASELINE[job_id] = job.result_bytes
        finally:
            service.close()
        _LEDGER_BYTES = open(path, "rb").read()
    return _LEDGER_BYTES


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_truncation_at_any_byte_recovers_without_resimulation(data):
    blob = reference_ledger()
    cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
    _COUNTER[0] += 1
    path = os.path.join(_TMP, f"truncated-{_COUNTER[0]}.jsonl")
    with open(path, "wb") as handle:
        handle.write(blob[:cut])

    # Replay never crashes on a torn tail, and never invents jobs.
    entries = replay(path)
    assert all(isinstance(e, LedgerJob) for e in entries)
    assert {e.id for e in entries} <= set(_BASELINE)

    service = SweepService(ledger=path, cache=_CACHE)
    try:
        jobs = service.store.all()
        assert {j.id for j in jobs} == {e.id for e in entries}
        for job in jobs:
            assert job.recovered in ("finished", "interrupted")
            assert job.wait_done(180) and job.state == "done"
            # Zero re-simulation: every span restores from the cache.
            assert job.executed == 0
            assert job.cache_hits == len(job.specs)
            assert job.result_bytes == _BASELINE[job.id]
    finally:
        service.close()
    # The healed ledger parses cleanly end to end: the torn tail was
    # truncated on open and the recovery's own records appended.
    final = replay(path)
    assert all(not e.interrupted for e in final
               if e.id in {j.id for j in jobs})
    assert open(path, "rb").read().endswith(b"\n") or cut == 0


class TestLedgerUnit:
    def test_round_trip_restores_states(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path).open()
        ledger.record_submitted("a" * 64, {"apps": ["excel"]})
        ledger.record_started("a" * 64)
        ledger.record_finished("a" * 64, executed=3, failures=[])
        ledger.record_submitted("b" * 64, {"apps": ["vlc"]})
        ledger.record_started("b" * 64)
        ledger.record_submitted("c" * 64, {"apps": ["word"]})
        ledger.close()

        jobs = {job.id: job for job in replay(path)}
        assert jobs["a" * 64].state == "finished"
        assert jobs["a" * 64].executed == 3
        assert not jobs["a" * 64].interrupted
        assert jobs["b" * 64].state == "started"
        assert jobs["b" * 64].interrupted
        assert jobs["c" * 64].state == "submitted"
        assert jobs["c" * 64].interrupted
        assert [job.id for job in replay(path)] == \
            ["a" * 64, "b" * 64, "c" * 64]

    def test_failed_jobs_are_not_interrupted(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path).open()
        ledger.record_submitted("a" * 64, {})
        ledger.record_started("a" * 64)
        ledger.record_failed("a" * 64, "boom")
        ledger.close()
        (job,) = replay(path)
        assert job.state == "failed" and job.error == "boom"
        assert not job.interrupted

    def test_resubmission_after_failure_restarts_lifecycle(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path).open()
        ledger.record_submitted("a" * 64, {"try": 1})
        ledger.record_failed("a" * 64, "boom")
        ledger.record_submitted("a" * 64, {"try": 2})
        ledger.close()
        (job,) = replay(path)
        assert job.state == "submitted" and job.interrupted
        assert job.request == {"try": 2}

    def test_missing_ledger_is_empty(self, tmp_path):
        assert replay(tmp_path / "absent.jsonl") == []

    def test_non_ledger_file_rejected(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("just some notes\n")
        try:
            replay(path)
        except ValueError as exc:
            assert "ledger" in str(exc)
        else:       # pragma: no cover - the assertion is the raise
            raise AssertionError("replay accepted a non-ledger file")

    def test_interior_corruption_rejected(self, tmp_path):
        # Garbage inside the file, and a complete final line that does
        # not parse: its newline made it, so no torn append explains it.
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path).open()
        ledger.record_submitted("a" * 64, {})
        ledger.close()
        blob = path.read_bytes()
        for damaged in (blob[:len(blob) // 2] + b"garbage\n" + b"{}\n",
                        blob + b'{"event": "submi\n'):
            path.write_bytes(damaged)
            try:
                replay(path)
            except ValueError as exc:
                assert "corrupt job ledger" in str(exc)
            else:       # pragma: no cover
                raise AssertionError("replay accepted a corrupt line")

    def test_open_heals_torn_tail(self, tmp_path):
        # A torn append, and one that lost only its newline: replay
        # drops either line, and open cuts off exactly that line.
        for torn in (b'{"event": "submi',
                     b'{"event":"submitted","id":"' + b"c" * 64
                     + b'","request":{}}'):
            path = tmp_path / "jobs.jsonl"
            path.unlink(missing_ok=True)
            ledger = JobLedger(path).open()
            ledger.record_submitted("a" * 64, {})
            ledger.close()
            blob = path.read_bytes()
            path.write_bytes(blob + torn)
            assert [job.id for job in replay(path)] == ["a" * 64]
            healed = JobLedger(path).open()
            assert path.read_bytes() == blob
            healed.record_submitted("b" * 64, {})
            healed.close()
            assert [job.id for job in replay(path)] == ["a" * 64, "b" * 64]
