"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    Environment,
    Interrupt,
    SimulationError,
    Timeout,
)


@pytest.fixture
def env():
    return Environment()


class TestEnvironmentClock:
    def test_time_starts_at_zero(self, env):
        assert env.now == 0

    def test_initial_time_respected(self):
        assert Environment(initial_time=500).now == 500

    def test_timeout_advances_clock(self, env):
        env.timeout(250)
        env.run()
        assert env.now == 250

    def test_run_until_caps_clock(self, env):
        env.timeout(1000)
        env.run(until=400)
        assert env.now == 400

    def test_run_until_is_inclusive_of_events_at_bound(self, env):
        fired = []
        event = env.timeout(400)
        event.callbacks.append(lambda e: fired.append(env.now))
        env.run(until=400)
        assert fired == [400]

    def test_run_until_past_is_rejected(self, env):
        env.timeout(10)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=5)

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_run_until_must_be_a_time(self, env):
        with pytest.raises(TypeError):
            env.run(until=env.event())


class TestEvents:
    def test_succeed_delivers_value(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed(42)
        env.run()
        assert seen == [42]

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_timeout_carries_value(self, env):
        timeout = Timeout(env, 5, value="payload")
        env.run()
        assert timeout.value == "payload"

    def test_events_fire_in_time_order(self, env):
        order = []
        for delay in (30, 10, 20):
            env.timeout(delay).callbacks.append(
                lambda e, d=delay: order.append(d))
        env.run()
        assert order == [10, 20, 30]

    def test_same_time_events_fire_fifo(self, env):
        order = []
        for tag in range(5):
            env.timeout(10).callbacks.append(
                lambda e, t=tag: order.append(t))
        env.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcesses:
    def test_process_runs_to_completion(self, env):
        log = []

        def proc():
            log.append(env.now)
            yield env.timeout(100)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [0, 100]

    def test_process_return_value_is_event_value(self, env):
        def proc():
            yield env.timeout(1)
            return "done"

        process = env.process(proc())
        env.run()
        assert process.value == "done"

    def test_process_waits_on_another_process(self, env):
        def child():
            yield env.timeout(10)
            return 7

        def parent():
            value = yield env.process(child())
            return value * 2

        parent_proc = env.process(parent())
        env.run()
        assert parent_proc.value == 14

    def test_yielding_non_event_raises(self, env):
        def proc():
            yield "junk"

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_in_process_propagates(self, env):
        def proc():
            yield env.timeout(1)
            raise RuntimeError("boom")

        env.process(proc())
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_yield_already_processed_event_resumes(self, env):
        event = env.event()
        event.succeed("early")

        def proc():
            yield env.timeout(10)  # event processes meanwhile
            value = yield event
            return value

        process = env.process(proc())
        env.run()
        assert process.value == "early"

    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim():
            try:
                yield env.timeout(1000)
            except Interrupt as interrupt:
                causes.append((env.now, interrupt.cause))

        def attacker(target):
            yield env.timeout(50)
            target.interrupt(cause="preempt")

        target = env.process(victim())
        env.process(attacker(target))
        env.run()
        # Delivered at interrupt time, not when the timeout would fire.
        assert causes == [(50, "preempt")]

    def test_interrupt_after_termination_raises(self, env):
        def quick():
            yield env.timeout(1)

        process = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()


class TestDeterminism:
    def test_identical_runs_produce_identical_logs(self):
        def build_and_run():
            env = Environment()
            log = []

            def pinger(delay, tag):
                while env.now < 500:
                    yield env.timeout(delay)
                    log.append((env.now, tag))

            env.process(pinger(7, "a"))
            env.process(pinger(11, "b"))
            env.process(pinger(13, "c"))
            env.run(until=500)
            return log

        assert build_and_run() == build_and_run()
