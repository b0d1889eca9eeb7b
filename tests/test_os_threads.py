"""Thread waits and sleeps that the event loop carries end to end.

A wait on an event processed earlier resumes through the process's
relay event, and every sleep yields one timeout.  Each scenario sets up
the case where that event is the next one processed, with a second
thread contending for the one CPU afterwards; the resume times and the
context-switch rows are pinned, so any reordering by the general path
shows in them.
"""

from repro.hardware import paper_machine
from repro.os import Kernel
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
