"""Unit tests for the OS layer: topology, scheduling, SMT, tracing."""

import pytest

from repro.apps import SUITE, create_app
from repro.harness import run_app_once
from repro.hardware import GTX_1080_TI, MachineSpec, paper_machine
from repro.os import Kernel, ThreadState, WorkClass, build_topology
from repro.sim import MS, SECOND, Environment
from repro.trace import CpuUsagePreciseTable, TraceSession


def make_kernel(machine=None, session=None, turbo=False):
    env = Environment()
    machine = machine or paper_machine()
    session = session or TraceSession(env)
    kernel = Kernel(env, machine, session=session, turbo=turbo)
    return env, kernel, session


def cpu_burner(duration, work_class=WorkClass.BALANCED):
    def body(ctx):
        yield ctx.cpu(duration, work_class)

    return body


class TestTopology:
    def test_full_machine_exposes_12_lcpus(self):
        lcpus = build_topology(paper_machine())
        assert len(lcpus) == 12
        assert {lcpu.core for lcpu in lcpus} == set(range(6))

    def test_core_major_enumeration_pairs_siblings(self):
        lcpus = build_topology(paper_machine())
        assert (lcpus[0].core, lcpus[0].way) == (0, 0)
        assert (lcpus[1].core, lcpus[1].way) == (0, 1)
        assert (lcpus[2].core, lcpus[2].way) == (1, 0)

    def test_restricting_to_4_lcpus_gives_2_full_cores(self):
        lcpus = build_topology(paper_machine().with_logical_cpus(4))
        assert {lcpu.core for lcpu in lcpus} == {0, 1}

    def test_smt_off_gives_one_way_per_core(self):
        lcpus = build_topology(paper_machine().with_smt(False))
        assert len(lcpus) == 6
        assert all(lcpu.way == 0 for lcpu in lcpus)


class TestProcessesAndThreads:
    def test_pids_are_unique_and_increasing(self):
        _env, kernel, _ = make_kernel()
        pids = [kernel.spawn_process(f"p{i}").pid for i in range(5)]
        assert len(set(pids)) == 5
        assert pids == sorted(pids)

    def test_thread_lifecycle(self):
        env, kernel, _ = make_kernel()
        process = kernel.spawn_process("app.exe")
        thread = process.spawn_thread(cpu_burner(10 * MS), name="t")
        assert thread.is_alive or thread.state is ThreadState.NEW
        env.run()
        assert thread.state is ThreadState.TERMINATED

    def test_thread_join(self):
        env, kernel, _ = make_kernel()
        process = kernel.spawn_process("app.exe")

        def child(ctx):
            yield ctx.cpu(5 * MS)
            return "result"

        def parent(ctx):
            thread = process.spawn_thread(child, name="child")
            value = yield ctx.wait(thread.join())
            return value

        parent_thread = process.spawn_thread(parent, name="parent")
        env.run()
        assert parent_thread.joined.value == "result"

    def test_process_exited_event(self):
        env, kernel, _ = make_kernel()
        process = kernel.spawn_process("app.exe")
        process.spawn_thread(cpu_burner(5 * MS))
        process.spawn_thread(cpu_burner(15 * MS))
        env.run()
        assert process.exited.triggered

    def test_double_start_rejected(self):
        _env, kernel, _ = make_kernel()
        process = kernel.spawn_process("app.exe")
        thread = process.spawn_thread(cpu_burner(MS))
        with pytest.raises(RuntimeError):
            thread.start()

    def test_invalid_yield_from_body_raises(self):
        env, kernel, _ = make_kernel()
        process = kernel.spawn_process("app.exe")

        def bad(ctx):
            yield 42

        process.spawn_thread(bad)
        with pytest.raises(TypeError):
            env.run()


class TestSchedulingBehaviour:
    def test_single_burst_runs_for_nominal_time_without_contention(self):
        env, kernel, session = make_kernel()
        session.start()
        process = kernel.spawn_process("app.exe")
        process.spawn_thread(cpu_burner(40 * MS))
        env.run()
        trace = session.stop()
        busy = sum(r.duration for r in trace.cswitches
                   if r.process == "app.exe")
        assert busy == pytest.approx(40 * MS, rel=0.02)

    def test_threads_spread_across_physical_cores_first(self):
        env, kernel, session = make_kernel()
        session.start()
        process = kernel.spawn_process("app.exe")
        for _ in range(6):
            process.spawn_thread(cpu_burner(10 * MS))
        env.run()
        trace = session.stop()
        lcpus = build_topology(kernel.machine)
        cores_used = {lcpus[r.cpu].core for r in trace.cswitches
                      if r.process == "app.exe"}
        assert len(cores_used) == 6  # one thread per physical core

    def test_oversubscription_time_multiplexes(self):
        machine = paper_machine().with_logical_cpus(2)
        env, kernel, session = make_kernel(machine)
        session.start()
        process = kernel.spawn_process("app.exe")
        for _ in range(4):
            process.spawn_thread(cpu_burner(30 * MS, WorkClass.UI))
        env.run()
        trace = session.stop()
        table = CpuUsagePreciseTable.from_trace(trace)
        # Only 2 CPUs -> total wall time is at least 2x one burst.
        assert trace.duration >= 55 * MS
        cpus = {row[4] for row in table.rows if row[0] == "app.exe"}
        assert cpus == {0, 1}

    def test_preempted_threads_record_wait_time(self):
        machine = paper_machine().with_logical_cpus(2)
        env, kernel, session = make_kernel(machine)
        session.start()
        process = kernel.spawn_process("app.exe")
        for _ in range(4):
            process.spawn_thread(cpu_burner(40 * MS, WorkClass.UI))
        env.run()
        trace = session.stop()
        waits = [r.wait_time for r in trace.cswitches if r.process == "app.exe"]
        assert any(w > 0 for w in waits)

    def test_sleep_occupies_no_cpu(self):
        env, kernel, session = make_kernel()
        session.start()
        process = kernel.spawn_process("app.exe")

        def sleeper(ctx):
            yield ctx.sleep(100 * MS)
            yield ctx.cpu(MS)

        process.spawn_thread(sleeper)
        env.run()
        trace = session.stop()
        busy = sum(r.duration for r in trace.cswitches
                   if r.process == "app.exe")
        assert busy < 5 * MS

    def test_retired_work_accounts_nominal_time(self):
        env, kernel, _session = make_kernel()
        process = kernel.spawn_process("app.exe")
        process.spawn_thread(cpu_burner(25 * MS))
        env.run()
        assert kernel.scheduler.retired_work["app.exe"] == pytest.approx(
            25 * MS, rel=0.01)


class TestSmtContention:
    def _throughput(self, machine, n_threads, work_class):
        """Nominal work retired per wall µs with n_threads spinning."""
        env, kernel, _ = make_kernel(machine)
        process = kernel.spawn_process("spin.exe")

        def spinner(ctx):
            while ctx.now < SECOND:
                yield ctx.cpu(10 * MS, work_class)

        for _ in range(n_threads):
            process.spawn_thread(spinner)
        env.run(until=SECOND)
        return kernel.scheduler.retired_work["spin.exe"] / SECOND

    def test_fu_bound_smt_pair_is_slower_than_lone_thread_per_core(self):
        machine = MachineSpec(cpu=paper_machine().cpu, gpu=GTX_1080_TI,
                              active_logical_cpus=2)
        lone = self._throughput(machine, 1, WorkClass.FU_BOUND)
        pair = self._throughput(machine, 2, WorkClass.FU_BOUND)
        assert pair < lone  # combined throughput drops below 1.0 (Fig. 8)

    def test_memory_bound_smt_pair_gains(self):
        machine = MachineSpec(cpu=paper_machine().cpu, gpu=GTX_1080_TI,
                              active_logical_cpus=2)
        lone = self._throughput(machine, 1, WorkClass.MEMORY_BOUND)
        pair = self._throughput(machine, 2, WorkClass.MEMORY_BOUND)
        assert pair > lone * 1.2

    def test_smt_off_runs_at_full_speed(self):
        machine = paper_machine().with_smt(False)
        lone = self._throughput(machine, 1, WorkClass.FU_BOUND)
        six = self._throughput(machine, 6, WorkClass.FU_BOUND)
        assert six == pytest.approx(6 * lone, rel=0.05)


class TestTurbo:
    def test_turbo_speeds_up_lightly_loaded_chip(self):
        def retire(turbo):
            env = Environment()
            kernel = Kernel(env, paper_machine(), turbo=turbo)
            process = kernel.spawn_process("app.exe")

            def spinner(ctx):
                while ctx.now < SECOND:
                    yield ctx.cpu(10 * MS, WorkClass.BALANCED)

            process.spawn_thread(spinner)
            env.run(until=SECOND)
            return kernel.scheduler.retired_work["app.exe"]

        assert retire(True) > retire(False) * 1.15

    def test_clock_factor_declines_with_load(self):
        env, kernel, _ = make_kernel(turbo=True)
        table = kernel.scheduler._clock_table
        assert table[0] == pytest.approx(4.70 / 3.70)
        assert table == sorted(table, reverse=True)


class TestBackgroundServices:
    def test_services_appear_in_trace_but_are_light(self):
        env = Environment()
        session = TraceSession(env)
        kernel = Kernel(env, paper_machine(), session=session, seed=3)
        kernel.start_background_services()
        session.start()
        env.run(until=3 * SECOND)
        trace = session.stop()
        names = set(trace.processes)
        assert {"System", "svchost.exe", "dwm.exe"} <= names
        busy = sum(r.duration for r in trace.cswitches)
        assert busy < 0.1 * trace.duration * kernel.logical_cpus


class TestWarmCpuAffinity:
    def test_thread_returns_to_its_last_cpu(self):
        env, kernel, session = make_kernel()
        session.start()
        process = kernel.spawn_process("app.exe")

        def bursty(ctx):
            for _ in range(8):
                yield ctx.cpu(5 * MS, WorkClass.UI)
                yield ctx.sleep(5 * MS)

        process.spawn_thread(bursty)
        env.run()
        trace = session.stop()
        cpus = {r.cpu for r in trace.cswitches if r.process == "app.exe"}
        assert len(cpus) == 1  # warm affinity keeps it in place

    def test_warm_cpu_does_not_beat_idle_physical_core(self):
        # Thread A warms LCPU 0; while A runs again, thread B occupies
        # LCPU 0's sibling would be wrong — B must go to a fresh core.
        env, kernel, session = make_kernel()
        session.start()
        process = kernel.spawn_process("app.exe")

        def worker(ctx):
            for _ in range(4):
                yield ctx.cpu(10 * MS, WorkClass.UI)
                yield ctx.sleep(1 * MS)

        process.spawn_thread(worker)
        process.spawn_thread(worker)
        env.run()
        trace = session.stop()
        lcpus = build_topology(kernel.machine)
        cores = {lcpus[r.cpu].core for r in trace.cswitches
                 if r.process == "app.exe"}
        assert len(cores) == 2  # one physical core per thread


class TestSliceHistogram:
    """The side models see exactly the CPU time the trace records."""

    @pytest.mark.parametrize("name", SUITE)
    def test_histogram_matches_the_trace(self, name):
        run = run_app_once(create_app(name), duration_us=SECOND, seed=1,
                           keep_trace=True)
        traced = sum(r.switch_out_time - r.switch_in_time
                     for r in run.trace.cswitches
                     if r.process in run.process_names)
        counters = run.memory_counters
        assert traced > 0
        assert counters.work_us == traced
        assert sum(run.activity.values()) == traced
        assert sum(counters.by_class.values()) == traced

    def test_a_second_fold_adds_only_what_ran_since(self):
        env, kernel, _ = make_kernel()
        process = kernel.spawn_process("app.exe")

        def body(ctx):
            yield ctx.cpu(5 * MS, WorkClass.BALANCED)
            yield ctx.cpu(30 * MS, WorkClass.BALANCED)

        process.spawn_thread(body)
        env.run(until=10 * MS)
        kernel.scheduler.fold_slices()
        assert kernel.memory_model.counters("app.exe").work_us == 5 * MS
        # The second burst was in flight at the first fold.
        env.run()
        kernel.scheduler.fold_slices()
        kernel.scheduler.fold_slices()
        assert kernel.memory_model.counters("app.exe").work_us == 35 * MS
        assert kernel.energy_model.activity() == {
            (WorkClass.BALANCED, 1.0): 35 * MS}
