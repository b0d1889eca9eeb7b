"""Thread waits, sleeps and CPU grants that the event loop carries end
to end, and a thread's lifecycle states.

A wait on an event processed earlier resumes through the process's
relay event, and every sleep yields one timeout.  Each scenario sets up
the case where that event is the next one processed, with a second
thread contending for the one CPU afterwards; the resume times and the
context-switch rows are pinned, so any reordering by the general path
shows in them.

A CPU burst takes its CPU in one of three ways: synchronously, when
nothing else can run at the instant; through a grant event, when a CPU
is idle but a same-instant event is queued; or from the ready queue,
when every CPU is busy, with the running thread preempted at the
quantum.  One scenario each pins the same evidence.
"""

from repro.hardware import paper_machine
from repro.os import Kernel, ThreadState
from repro.os.sync import Semaphore
from repro.sim import MS, Environment
from repro.trace import TraceSession


def one_cpu():
    env = Environment()
    session = TraceSession(env)
    kernel = Kernel(env, paper_machine().with_logical_cpus(1),
                    session=session, turbo=False)
    session.start()
    return env, session, kernel.spawn_process("app.exe")


def test_wait_on_an_event_processed_earlier():
    env, session, process = one_cpu()
    done = env.event()
    times = []

    def waiter(ctx):
        yield ctx.sleep(10 * MS)            # ``done`` is processed meanwhile
        times.append(ctx.now)
        value = yield ctx.wait(done)        # nothing else queued at 10 ms
        times.append((ctx.now, value))
        yield ctx.cpu(3 * MS)
        times.append(ctx.now)

    def other(ctx):
        yield ctx.sleep(11 * MS)
        yield ctx.cpu(2 * MS)
        times.append(("other", ctx.now))

    process.spawn_thread(waiter, name="waiter")
    process.spawn_thread(other, name="other")
    done.succeed("ready")
    env.run(until=50 * MS)
    assert times == [10_000, (10_000, "ready"), 13_000, ("other", 15_000)]
    assert session.stop().cswitch_rows() == [
        ("app.exe", 8, 8001, "waiter", 0, 10_000, 10_000, 13_000),
        ("app.exe", 8, 8002, "other", 0, 11_000, 13_000, 15_000),
    ]


def test_sleep_with_nothing_queued_before_its_wakeup():
    env, session, process = one_cpu()
    times = []

    def sleeper(ctx):
        yield ctx.cpu(2 * MS)
        times.append(ctx.now)
        yield ctx.sleep(5 * MS)             # next event: wakes at 7 ms
        times.append(ctx.now)
        yield ctx.cpu(MS)
        times.append(ctx.now)

    def late(ctx):
        yield ctx.sleep(7_500)
        yield ctx.cpu(MS)
        times.append(("late", ctx.now))

    process.spawn_thread(sleeper, name="sleeper")
    process.spawn_thread(late, name="late")
    env.run(until=50 * MS)
    assert times == [2_000, 7_000, 8_000, ("late", 9_000)]
    assert session.stop().cswitch_rows() == [
        ("app.exe", 8, 8001, "sleeper", 0, 0, 0, 2_000),
        ("app.exe", 8, 8001, "sleeper", 0, 7_000, 7_000, 8_000),
        ("app.exe", 8, 8002, "late", 0, 7_500, 8_000, 9_000),
    ]


def test_cpu_grant_with_nothing_else_at_the_instant():
    env, session, process = one_cpu()
    times = []

    def worker(ctx):
        yield ctx.sleep(4 * MS)
        yield ctx.cpu(3 * MS)               # next event at 5 ms: taken now
        times.append(ctx.now)

    def late(ctx):
        yield ctx.sleep(5 * MS)
        yield ctx.cpu(MS)                   # the CPU is busy until 7 ms
        times.append(("late", ctx.now))

    process.spawn_thread(worker, name="worker")
    process.spawn_thread(late, name="late")
    env.run(until=50 * MS)
    assert times == [7_000, ("late", 8_000)]
    assert session.stop().cswitch_rows() == [
        ("app.exe", 8, 8001, "worker", 0, 4_000, 4_000, 7_000),
        ("app.exe", 8, 8002, "late", 0, 5_000, 7_000, 8_000),
    ]


def test_cpu_grant_behind_a_same_instant_event():
    env, session, process = one_cpu()
    times = []

    def first(ctx):
        yield ctx.sleep(4 * MS)
        yield ctx.cpu(20 * MS)              # CPU idle, ``second`` queued
        times.append(("first", ctx.now))

    def second(ctx):
        yield ctx.sleep(4 * MS)
        yield ctx.cpu(2 * MS)
        times.append(("second", ctx.now))

    process.spawn_thread(first, name="first")
    process.spawn_thread(second, name="second")
    env.run(until=50 * MS)
    # ``first`` sizes its slice when the grant fires, after ``second``
    # has queued: one quantum, not its whole 20 ms.
    assert times == [("second", 21_000), ("first", 26_000)]
    assert session.stop().cswitch_rows() == [
        ("app.exe", 8, 8001, "first", 0, 4_000, 4_000, 19_000),
        ("app.exe", 8, 8002, "second", 0, 4_000, 19_000, 21_000),
        ("app.exe", 8, 8001, "first", 0, 19_000, 21_000, 26_000),
    ]


def test_cpu_grant_from_the_ready_queue_with_quantum_preemption():
    env, session, process = one_cpu()
    times = []

    def hog(ctx):
        yield ctx.cpu(80 * MS)
        times.append(("hog", ctx.now))

    def queued(ctx):
        yield ctx.sleep(5 * MS)
        yield ctx.cpu(20 * MS)              # every CPU busy: queued
        times.append(("queued", ctx.now))

    process.spawn_thread(hog, name="hog")
    process.spawn_thread(queued, name="queued")
    env.run(until=200 * MS)
    assert times == [("queued", 85_000), ("hog", 100_000)]
    assert session.stop().cswitch_rows() == [
        ("app.exe", 8, 8001, "hog", 0, 0, 0, 50_000),
        ("app.exe", 8, 8002, "queued", 0, 5_000, 50_000, 65_000),
        ("app.exe", 8, 8001, "hog", 0, 50_000, 65_000, 80_000),
        ("app.exe", 8, 8002, "queued", 0, 65_000, 80_000, 85_000),
        ("app.exe", 8, 8001, "hog", 0, 80_000, 85_000, 100_000),
    ]


def test_a_thread_runs_from_its_first_step_to_its_exit():
    env, _session, process = one_cpu()
    scheduler = process.kernel.scheduler
    gate = Semaphore(process.kernel)

    def subject(ctx):
        yield ctx.sleep(10 * MS)
        yield ctx.wait(gate.acquire())      # released at 20 ms
        yield ctx.cpu(10 * MS)              # behind ``hog`` until 42 ms

    def hog(ctx):
        yield ctx.sleep(12 * MS)
        yield ctx.cpu(30 * MS)

    def releaser():
        yield env.timeout(20 * MS)
        gate.release()

    thread = process.spawn_thread(subject, name="subject")
    process.spawn_thread(hog, name="hog")
    env.process(releaser())
    # Started, but its body has not taken a step: still NEW, so a kill
    # in this instant has no body to throw into.
    assert thread.state is ThreadState.NEW and not thread.is_alive
    seen = []

    def monitor():
        for at in (5, 15, 25, 45, 60):
            yield env.timeout(at * MS - env.now)
            queued = any(t is thread for t, _grant in scheduler._ready)
            on_cpu = scheduler.lcpus[0].thread is thread
            seen.append((at, thread.state, thread.is_alive, queued, on_cpu))

    env.process(monitor())
    env.run(until=100 * MS)
    running, terminated = ThreadState.RUNNING, ThreadState.TERMINATED
    assert seen == [
        (5, running, True, False, False),       # asleep
        (15, running, True, False, False),      # blocked on ``gate``
        (25, running, True, True, False),       # in the ready queue
        (45, running, True, False, True),       # on the CPU
        (60, terminated, False, False, False),  # exited at 52 ms
    ]
