"""Tests for the static concurrency analyzer (shadow build + lock order)."""

import pytest

from repro.analysis.static import (
    analyze_app,
    analyze_work_span,
    build_lock_order,
    check_bound,
    extract_structure,
)
from repro.analysis.static.shadow import ShadowKernel
from repro.apps import SUITE
from repro.apps.base import AppModel
from repro.hardware import paper_machine
from repro.os.sync import Lock
from repro.sim import MS


class _FixtureApp(AppModel):
    """Base for test-only models: build body supplied per subclass."""

    name = "test-fixture"


class DeadlockProneApp(_FixtureApp):
    """Classic ABBA inversion: t1 takes A then B, t2 takes B then A."""

    name = "test-deadlock"

    def build(self, rt):
        process = rt.spawn_process("deadlock.exe")
        lock_a = Lock(rt.kernel, name="lock-a")
        lock_b = Lock(rt.kernel, name="lock-b")

        def forward(ctx):
            yield ctx.wait(lock_a.acquire(ctx.thread))
            yield ctx.cpu(MS)
            yield ctx.wait(lock_b.acquire(ctx.thread))
            yield ctx.cpu(MS)
            lock_b.release(lock_b.owner)
            lock_a.release(lock_a.owner)

        def backward(ctx):
            yield ctx.wait(lock_b.acquire(ctx.thread))
            yield ctx.cpu(MS)
            yield ctx.wait(lock_a.acquire(ctx.thread))
            yield ctx.cpu(MS)
            lock_a.release(lock_a.owner)
            lock_b.release(lock_b.owner)

        process.spawn_thread(forward, name="forward")
        process.spawn_thread(backward, name="backward")


class OrderedLocksApp(_FixtureApp):
    """Both threads take A then B: edges but no cycle."""

    name = "test-ordered"

    def build(self, rt):
        process = rt.spawn_process("ordered.exe")
        lock_a = Lock(rt.kernel, name="lock-a")
        lock_b = Lock(rt.kernel, name="lock-b")

        def body(ctx):
            yield ctx.wait(lock_a.acquire(ctx.thread))
            yield ctx.wait(lock_b.acquire(ctx.thread))
            yield ctx.cpu(MS)
            lock_b.release(lock_b.owner)
            lock_a.release(lock_a.owner)

        process.spawn_thread(body, name="first")
        process.spawn_thread(body, name="second")


class RelockApp(_FixtureApp):
    """A thread re-acquires a non-reentrant lock it already holds."""

    name = "test-relock"

    def build(self, rt):
        process = rt.spawn_process("relock.exe")
        lock = Lock(rt.kernel, name="guard")

        def body(ctx):
            yield ctx.wait(lock.acquire(ctx.thread))
            yield ctx.wait(lock.acquire(ctx.thread))
            yield ctx.cpu(MS)

        process.spawn_thread(body, name="worker")


class LeakyLockApp(_FixtureApp):
    """A thread terminates while still holding a lock."""

    name = "test-leaky"

    def build(self, rt):
        process = rt.spawn_process("leaky.exe")
        lock = Lock(rt.kernel, name="held-forever")

        def body(ctx):
            yield ctx.wait(lock.acquire(ctx.thread))
            yield ctx.cpu(MS)

        process.spawn_thread(body, name="worker")


class TestShadowExtraction:
    def test_no_simulation_clock_advance(self):
        structure = extract_structure("chrome")
        assert structure.duration_us > 0
        # the harness itself asserts env.now == 0; double-check here
        kernel = ShadowKernel(paper_machine())
        assert kernel.env.now == 0

    def test_structure_is_complete_for_shipped_apps(self):
        structure = extract_structure("vlc")
        assert structure.complete
        assert not structure.build_error
        assert structure.processes == ["vlc.exe"]
        assert len(structure.threads) >= 5

    def test_dynamic_spawns_recorded(self):
        structure = extract_structure("chrome")
        dynamic = [t for t in structure.threads if t.dynamic]
        assert dynamic and all(t.spawn_site for t in dynamic)

    def test_sync_inventory_named_and_sited(self):
        structure = extract_structure("vlc")
        assert structure.sync
        assert all(s.name for s in structure.sync)
        assert all(s.site for s in structure.sync)

    def test_extraction_is_deterministic(self):
        first = extract_structure("firefox", seed=7)
        second = extract_structure("firefox", seed=7)
        assert len(first.threads) == len(second.threads)
        assert [t.cpu_us for t in first.threads] == \
            [t.cpu_us for t in second.threads]
        assert [s.name for s in first.sync] == \
            [s.name for s in second.sync]

    def test_rejects_non_app(self):
        with pytest.raises(TypeError):
            extract_structure(42)


class TestLockOrder:
    def test_injected_inversion_detected_with_cycle_named(self):
        structure = extract_structure(DeadlockProneApp())
        graph, findings = build_lock_order(structure)
        assert graph.cycles == [["lock-a", "lock-b"]]
        cycle_findings = [f for f in findings if f.code == "deadlock-cycle"]
        assert len(cycle_findings) == 1
        finding = cycle_findings[0]
        assert finding.severity == "error"
        assert "lock-a -> lock-b -> lock-a" in finding.message
        assert "'forward'" in finding.message
        assert "'backward'" in finding.message

    def test_ordered_locks_produce_no_cycle(self):
        structure = extract_structure(OrderedLocksApp())
        graph, findings = build_lock_order(structure)
        assert ("lock-a", "lock-b") in graph.edge_pairs
        assert graph.cycles == []
        assert not [f for f in findings if f.code == "deadlock-cycle"]

    def test_relock_flagged_as_self_deadlock(self):
        structure = extract_structure(RelockApp())
        _graph, findings = build_lock_order(structure)
        relocks = [f for f in findings if f.code == "lock-relock"]
        assert len(relocks) == 1
        assert "'guard'" in relocks[0].message
        assert relocks[0].severity == "error"

    def test_leaked_lock_flagged(self):
        structure = extract_structure(LeakyLockApp())
        _graph, findings = build_lock_order(structure)
        leaks = [f for f in findings if f.code == "acquire-without-release"]
        assert len(leaks) == 1
        assert "'held-forever'" in leaks[0].message

    def test_shipped_models_have_no_deadlock_cycles(self):
        for name in SUITE:
            structure = extract_structure(name)
            graph, findings = build_lock_order(structure)
            assert graph.cycles == [], name
            assert not findings, (name, findings)


class TestWorkSpan:
    def test_bound_respects_machine_and_width(self):
        structure = extract_structure("wineth")
        result = analyze_work_span(structure)
        assert result.width == 3
        assert result.tlp_bound == 3.0  # narrower than the machine
        assert result.work_us >= result.span_us > 0
        assert result.parallelism >= 1.0
        assert result.critical_thread

    def test_wide_app_bounded_by_machine(self):
        structure = extract_structure("chrome")
        result = analyze_work_span(structure)
        assert result.width > structure.logical_cpus
        assert result.tlp_bound == float(structure.logical_cpus)

    def test_check_bound_passes_and_fails(self):
        result = analyze_work_span(extract_structure("wineth"))
        assert check_bound(result, result.tlp_bound) is None
        error = check_bound(result, result.tlp_bound + 1.0, "c04-smt")
        assert error and "wineth" in error and "c04-smt" in error


class TestAnalyzeApp:
    def test_injected_fault_surfaces_in_findings(self):
        analysis = analyze_app(DeadlockProneApp())
        codes = {f.code for f in analysis.findings}
        assert "deadlock-cycle" in codes
        assert analysis.lock_order.cycles == [["lock-a", "lock-b"]]

    def test_clean_shipped_app_has_no_findings(self):
        analysis = analyze_app("vlc")
        assert analysis.findings == []
        assert analysis.structure.complete
        assert analysis.work_span.tlp_bound > 0
