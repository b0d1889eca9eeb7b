"""Self-tests of the benchmark's own arithmetic and probes.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from perfbench.probes import Tracer, install, layer_totals  # noqa: E402
from perfbench.service import attribute  # noqa: E402
from perfbench.stats import (  # noqa: E402
    FailureTally,
    highest_percentile,
    percentile,
    self_time,
    union_length,
)


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert percentile(list(range(1000)), 99) == 989
        with pytest.raises(ValueError):
            percentile(list(range(999)), 99)

    def test_p50_needs_twenty_samples(self):
        assert percentile(list(range(20)), 50) == 9
        with pytest.raises(ValueError):
            percentile(list(range(19)), 50)

    def test_highest_reportable_percentile(self):
        assert highest_percentile(list(range(1000)))[0] == 99
        assert highest_percentile(list(range(999)))[0] == 90
        assert highest_percentile(list(range(100)))[0] == 90
        assert highest_percentile(list(range(99)))[0] == 50
        assert highest_percentile(list(range(19))) is None


class TestSelfTime:
    def test_overlapping_children_from_two_threads_count_once(self):
        # Parent 0..10; thread A child 1..5, thread B child 3..7, and a
        # child straddling the parent's end: covered = 1..7 and 9..10.
        children = [(1.0, 5.0), (3.0, 7.0), (9.0, 12.0)]
        assert union_length(children) == pytest.approx(9.0)
        assert self_time(0.0, 10.0, children) == pytest.approx(3.0)

    def test_no_children(self):
        assert self_time(2.0, 5.0, []) == pytest.approx(3.0)

    def test_nested_recorded_and_folded_spans_sum_to_the_root(self):
        tracer = Tracer()

        def leaf():
            return sum(range(2000))

        folded = tracer.folded_wrapper("leaf", leaf)

        def middle():
            for _ in range(3):
                folded()
            return sum(range(5000))

        recorded = tracer.recorded_wrapper("middle", middle)
        with tracer.span("root"):
            recorded()
            recorded()
        totals, _ = layer_totals([tracer])
        root = totals["root"]["total_s"]
        assert totals["leaf"]["calls"] == 6
        assert totals["middle"]["calls"] == 2
        assert sum(t["self_s"] for t in totals.values()) == \
            pytest.approx(root, rel=1e-9)


class TestFailures:
    def test_429_and_quarantined_run_are_failures(self):
        tally = FailureTally()
        tally.reply(202, 202)
        tally.reply(429, 202)           # refused: counts as failed
        tally.reply(304, 304)
        tally.runs(attempted=2, quarantined=1)
        assert (tally.attempted, tally.failed) == (5, 2)
        assert tally.pct == pytest.approx(40.0)

    def test_empty_tally(self):
        assert FailureTally().pct == 0.0


class TestAttribution:
    def test_request_wait_excludes_its_own_and_its_jobs_spans(self):
        tracer = Tracer()
        # (id, name, start, end, parent, group, thread, folded)
        tracer.spans = [
            (1, "service.dispatch", 0.0, 1.0, 0, "r7", 1, 0.0),
            (2, "service.admit", 0.2, 0.6, 1, "r7", 1, 0.0),
            (3, "harness.supervisor.map", 1.5, 4.0, 0, "job:j", 2, 0.0),
            (4, "harness.cache.store", 3.0, 3.5, 3, "job:j", 2, 0.0),
            (5, "service.dispatch", 0.0, 9.0, 0, "r8", 1, 0.0),
        ]
        log = [(7, None, 0.0, 1.2), (9, "j", 1.2, 5.0)]
        attributed, wait = attribute(log, tracer)
        assert attributed["service.dispatch"] == pytest.approx(0.6)
        assert attributed["service.admit"] == pytest.approx(0.4)
        assert attributed["harness.supervisor.map"] == pytest.approx(2.0)
        assert attributed["harness.cache.store"] == pytest.approx(0.5)
        # Request 7: 1.2 s, 1.0 covered; request 9: 3.8 s, 2.5 covered.
        assert wait == pytest.approx(0.2 + 1.3)


def _terminate_scenario():
    """A hog and a victim on one CPU; the victim is killed both while
    queued and mid-burst, and one body catches the Interrupt."""
    from repro.hardware import paper_machine
    from repro.os import Kernel, WorkClass
    from repro.sim import MS, Environment, Interrupt
    from repro.trace import TraceSession

    env = Environment()
    session = TraceSession(env)
    kernel = Kernel(env, paper_machine().with_logical_cpus(1),
                    session=session, turbo=False)
    session.start()
    caught = []

    def spinner(ctx):
        while True:
            yield ctx.cpu(10 * MS, WorkClass.UI)

    def graceful(ctx):
        try:
            while True:
                yield ctx.cpu(7 * MS, WorkClass.UI)
        except Interrupt as interrupt:
            caught.append((ctx.now, interrupt.cause))

    hog = kernel.spawn_process("hog.exe")
    hog.spawn_thread(spinner)
    victim = kernel.spawn_process("victim.exe")
    victim.spawn_thread(spinner)
    victim.spawn_thread(graceful)

    def killer():
        yield env.timeout(23 * MS)
        victim.terminate(cause="bench")

    env.process(killer())
    env.run(until=200 * MS)
    return list(session.stop().cswitches), caught


def test_probes_forward_send_and_throw_unchanged():
    plain = _terminate_scenario()
    tracer = Tracer()
    undo = install(tracer)
    try:
        probed = _terminate_scenario()
    finally:
        undo()
    assert probed == plain
    assert plain[1], "the scenario must deliver an Interrupt"
    assert tracer.folded["os.scheduler.run_burst"][0] > 0
    assert _terminate_scenario() == plain   # the undo restored everything
