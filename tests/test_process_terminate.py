"""Tests for process termination (kill semantics)."""

from repro.hardware import paper_machine
from repro.os import Kernel, ThreadState, WorkClass
from repro.os.sync import Semaphore
from repro.sim import MS, SECOND, Environment
from repro.trace import TraceSession


def make_kernel(cores=12):
    env = Environment()
    machine = paper_machine().with_logical_cpus(cores)
    session = TraceSession(env)
    kernel = Kernel(env, machine, session=session, turbo=False)
    session.start()
    return env, kernel, session


def spinner(ctx):
    while True:
        yield ctx.cpu(10 * MS, WorkClass.UI)


def sleeper(ctx):
    while True:
        yield ctx.sleep(50 * MS)


class TestTerminate:
    def test_terminates_running_threads(self):
        env, kernel, _ = make_kernel()
        process = kernel.spawn_process("victim.exe")
        for _ in range(3):
            process.spawn_thread(spinner)

        def killer():
            yield env.timeout(100 * MS)
            process.terminate()

        env.process(killer())
        env.run(until=SECOND)
        assert all(t.state is ThreadState.TERMINATED
                   for t in process.threads)
        assert process.exited.triggered

    def test_terminates_sleeping_threads(self):
        env, kernel, _ = make_kernel()
        process = kernel.spawn_process("victim.exe")
        process.spawn_thread(sleeper)

        def killer():
            yield env.timeout(30 * MS)
            process.terminate()

        env.process(killer())
        env.run(until=SECOND)
        assert process.exited.triggered

    def test_terminates_blocked_threads(self):
        env, kernel, _ = make_kernel()
        process = kernel.spawn_process("victim.exe")
        gate = Semaphore(kernel)

        def blocked(ctx):
            yield ctx.wait(gate.acquire())   # never released

        thread = process.spawn_thread(blocked)

        def killer():
            yield env.timeout(30 * MS)
            process.terminate()

        env.process(killer())
        env.run(until=SECOND)
        assert thread.state is ThreadState.TERMINATED
        assert process.exited.triggered

    def test_killed_process_stops_consuming_cpu(self):
        env, kernel, session = make_kernel()
        process = kernel.spawn_process("victim.exe")
        process.spawn_thread(spinner)

        def killer():
            yield env.timeout(100 * MS)
            process.terminate()

        env.process(killer())
        env.run(until=SECOND)
        trace = session.stop()
        last_activity = max(r.switch_out_time for r in trace.cswitches
                            if r.process == "victim.exe")
        assert last_activity <= 110 * MS

    def test_cpus_released_after_kill(self):
        env, kernel, _ = make_kernel(cores=2)
        victim = kernel.spawn_process("victim.exe")
        for _ in range(2):
            victim.spawn_thread(spinner)  # saturate both CPUs
        survivor = kernel.spawn_process("survivor.exe")
        progressed = []

        def patient(ctx):
            yield ctx.cpu(500 * MS, WorkClass.UI)
            progressed.append(ctx.now)

        survivor.spawn_thread(patient)

        def killer():
            yield env.timeout(50 * MS)
            victim.terminate()

        env.process(killer())
        env.run(until=2 * SECOND)
        # The survivor got the CPUs back and finished its work.
        assert progressed

    def test_queued_thread_removed_from_ready_queue(self):
        env, kernel, _ = make_kernel(cores=1)
        hog = kernel.spawn_process("hog.exe")
        hog.spawn_thread(spinner)
        victim = kernel.spawn_process("victim.exe")
        victim.spawn_thread(spinner)  # will mostly sit in ready queue

        def killer():
            yield env.timeout(22 * MS)
            victim.terminate()

        env.process(killer())
        env.run(until=300 * MS)
        assert victim.exited.triggered
        assert len(kernel.scheduler._ready) <= 1

    def test_terminate_is_idempotent(self):
        env, kernel, _ = make_kernel()
        process = kernel.spawn_process("victim.exe")
        process.spawn_thread(spinner)

        def killer():
            yield env.timeout(20 * MS)
            process.terminate()
            yield env.timeout(20 * MS)
            process.terminate()  # second kill: no error

        env.process(killer())
        env.run(until=SECOND)
        assert process.exited.triggered

    def test_graceful_bodies_can_catch_the_interrupt(self):
        from repro.sim import Interrupt

        env, kernel, _ = make_kernel()
        process = kernel.spawn_process("victim.exe")
        cleaned = []

        def graceful(ctx):
            try:
                while True:
                    yield ctx.cpu(10 * MS, WorkClass.UI)
            except Interrupt as interrupt:
                cleaned.append(interrupt.cause)

        process.spawn_thread(graceful)

        def killer():
            yield env.timeout(30 * MS)
            process.terminate(cause="shutdown")

        env.process(killer())
        env.run(until=SECOND)
        assert cleaned == ["shutdown"]
