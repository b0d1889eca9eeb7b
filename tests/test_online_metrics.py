"""Streaming metrics engine: exact equivalence with the post-hoc path."""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import create_app
from repro.apps.base import AppRuntime
from repro.automation import AUTOIT, InputDriver
from repro.gpu import GpuDevice
from repro.hardware import paper_machine
from repro.harness.runner import run_app_once
from repro.metrics import OnlineMetricsEngine, OnlineSweep, fused_sweep
from repro.os import Kernel
from repro.sim import SECOND, Environment
from repro.trace import ContextSwitchRecord, TraceSession

intervals_strategy = st.lists(
    st.tuples(st.integers(0, 100), st.integers(0, 50)),
    max_size=25,
)


def _edges(intervals):
    """Time-ordered (time, kind, key) edge stream of the intervals."""
    events = []
    for key, (start, duration) in enumerate(intervals):
        events.append((start, "open", key))
        events.append((start + duration, "close", key))
    events.sort(key=lambda e: e[0])
    return events


class TestOnlineSweepProperty:
    @given(intervals_strategy, st.integers(0, 60), st.integers(0, 80))
    @settings(max_examples=200)
    def test_matches_fused_sweep_of_closed_intervals(
            self, intervals, w0, length):
        """Feeding the live edge stream reproduces fused_sweep over
        exactly the intervals a post-hoc trace would have recorded:
        those *closing* inside the recording window.  Open-at-stop
        intervals are dropped; straddling ones clamp to the window."""
        stop = w0 + length
        sweep = OnlineSweep()
        begun = False
        for time, kind, key in _edges(intervals):
            if not begun and time >= w0:
                sweep.begin(w0)
                begun = True
            if time > stop:
                break
            if kind == "open":
                sweep.open(key, time)
            else:
                sweep.close(key, time)
        if not begun:
            sweep.begin(w0)
        got = sweep.result(stop)

        recorded = [(s, s + d) for s, d in intervals if w0 <= s + d <= stop]
        want = fused_sweep(recorded, w0, stop)
        assert got.profile == want.profile
        assert got.union_length == want.union_length
        assert got.max_concurrency == want.max_concurrency

    @given(intervals_strategy, st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=100)
    def test_second_window_counts_straddlers(self, intervals, gap, length):
        """An interval left open across one window is measured by the
        next window from that window's start — like a record whose
        switch-in predates the second trace's start."""
        first_stop = 30
        w1 = first_stop + gap
        stop = w1 + length
        sweep = OnlineSweep()
        sweep.begin(0)
        edges = _edges(intervals)
        fed = []
        for time, kind, key in edges:
            if time > first_stop:
                break
            fed.append((time, kind, key))
            if kind == "open":
                sweep.open(key, time)
            else:
                sweep.close(key, time)
        sweep.result(first_stop)

        sweep.begin(w1)
        for time, kind, key in edges[len(fed):]:
            if time > stop:
                break
            if kind == "open":
                sweep.open(key, time)
            else:
                sweep.close(key, time)
        got = sweep.result(stop)

        recorded = [(s, s + d) for s, d in intervals
                    if w1 <= s + d <= stop]
        want = fused_sweep(recorded, w1, stop)
        assert got.profile == want.profile
        assert got.union_length == want.union_length
        assert got.max_concurrency == want.max_concurrency


def _run_pair(app_name, duration_us, seed):
    post = run_app_once(create_app(app_name), duration_us=duration_us,
                        seed=seed)
    live = run_app_once(create_app(app_name), duration_us=duration_us,
                        seed=seed, streaming=True)
    return post, live


class TestStreamingRunEquivalence:
    def test_bit_identical_metrics(self):
        for app_name in ("excel", "photoshop", "space-pirate"):
            post, live = _run_pair(app_name, 2 * SECOND, seed=11)
            assert live.tlp.tlp == post.tlp.tlp
            assert live.tlp.fractions == post.tlp.fractions
            assert live.tlp.max_instantaneous == post.tlp.max_instantaneous
            assert live.tlp.window_us == post.tlp.window_us
            assert (live.gpu_util.utilization_pct
                    == post.gpu_util.utilization_pct)
            assert (live.gpu_util.max_concurrent_packets
                    == post.gpu_util.max_concurrent_packets)
            assert live.gpu_util.capped == post.gpu_util.capped
            assert live.frame_stats == post.frame_stats

    def test_streaming_rejects_keep_trace(self):
        import pytest

        with pytest.raises(ValueError):
            run_app_once(create_app("excel"), duration_us=SECOND,
                         streaming=True, keep_trace=True)


def _streaming_engine_run(duration_us):
    machine = paper_machine()
    env = Environment()
    session = TraceSession(env, machine_name=machine.cpu.name,
                           retain_records=False)
    kernel = Kernel(env, machine, session=session, seed=3)
    gpu = GpuDevice(env, machine.gpu, session)
    driver = InputDriver(kernel, mode=AUTOIT, seed=10)
    runtime = AppRuntime(kernel, gpu, driver, duration_us, seed=3)
    engine = OnlineMetricsEngine(session, machine.logical_cpus,
                                 processes=runtime.process_names)
    session.start()
    create_app("excel").build(runtime)
    env.run(until=runtime.end_time)
    session.stop()
    return engine


class TestStreamingMemory:
    def test_edge_queue_flat_in_trace_length(self):
        """A 10x longer run must not grow the retained edge queue:
        memory is bounded by open-interval depth, not trace length."""
        short = _streaming_engine_run(SECOND)
        long = _streaming_engine_run(10 * SECOND)
        assert short.tlp_result().tlp > 0
        assert long.tlp_result().tlp > 0
        bound = 4 * (paper_machine().logical_cpus + 5)
        for engine in (short, long):
            pending = len(engine.cpu._pending) + len(engine.gpu._pending)
            assert pending <= bound

    def test_no_context_switch_records_retained(self):
        gc.collect()
        before = sum(1 for obj in gc.get_objects()
                     if isinstance(obj, ContextSwitchRecord))
        run = run_app_once(create_app("excel"), duration_us=2 * SECOND,
                           seed=9, streaming=True)
        assert run.tlp.tlp > 0
        gc.collect()
        after = sum(1 for obj in gc.get_objects()
                    if isinstance(obj, ContextSwitchRecord))
        assert after <= before
