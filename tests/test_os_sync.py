"""Unit tests for thread synchronization primitives."""

import pytest

from repro.hardware import paper_machine
from repro.os import CountdownLatch, Kernel, Lock, MessageQueue, Semaphore
from repro.sim import MS, Environment


@pytest.fixture
def kernel():
    return Kernel(Environment(), paper_machine(), turbo=False)


class TestLock:
    def test_uncontended_acquire_is_immediate(self, kernel):
        lock = Lock(kernel)
        grant = lock.acquire("a")
        assert grant.triggered
        assert lock.owner == "a"

    def test_contended_acquire_waits_for_release(self, kernel):
        lock = Lock(kernel)
        lock.acquire("a")
        second = lock.acquire("b")
        assert not second.triggered
        lock.release("a")
        assert second.triggered
        assert lock.owner == "b"

    def test_release_unheld_raises(self, kernel):
        with pytest.raises(RuntimeError,
                           match=r"release of unheld lock 'lock-1'"):
            Lock(kernel).release()

    def test_release_by_non_owner_raises(self, kernel):
        lock = Lock(kernel, name="render-mutex")
        lock.acquire("a")
        with pytest.raises(
                RuntimeError,
                match=r"lock 'render-mutex' released by non-owner 'b'; "
                      r"currently held by 'a'"):
            lock.release("b")
        assert lock.owner == "a"  # failed release leaves the lock held

    def test_owner_property(self, kernel):
        lock = Lock(kernel)
        assert lock.owner is None
        lock.acquire("a")
        assert lock.owner == "a"
        lock.release("a")
        assert lock.owner is None

    def test_repr_names_state_and_waiters(self, kernel):
        lock = Lock(kernel, name="demux")
        assert repr(lock) == "<Lock 'demux' free, 0 waiting>"
        lock.acquire("a")
        lock.acquire("b")
        assert repr(lock) == "<Lock 'demux' held by 'a', 1 waiting>"

    def test_error_messages_use_thread_names(self, kernel):
        class Thread:
            name = "ui-thread"

        lock = Lock(kernel)
        lock.acquire(Thread())
        with pytest.raises(RuntimeError, match="held by ui-thread"):
            lock.release("someone-else")

    def test_fifo_handoff(self, kernel):
        lock = Lock(kernel)
        lock.acquire("a")
        b = lock.acquire("b")
        c = lock.acquire("c")
        lock.release("a")
        assert b.triggered and not c.triggered

    def test_critical_sections_are_exclusive(self, kernel):
        env = kernel.env
        lock = Lock(kernel)
        process = kernel.spawn_process("app.exe")
        spans = []

        def body(ctx):
            yield ctx.wait(lock.acquire(ctx.thread))
            start = ctx.now
            yield ctx.cpu(10 * MS)
            spans.append((start, ctx.now))
            lock.release(ctx.thread)

        for _ in range(3):
            process.spawn_thread(body)
        env.run()
        spans.sort()
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert start >= stop


class TestSemaphore:
    def test_initial_value_grants(self, kernel):
        semaphore = Semaphore(kernel, value=2)
        assert semaphore.acquire().triggered
        assert semaphore.acquire().triggered
        assert not semaphore.acquire().triggered

    def test_release_wakes_waiter_before_counting(self, kernel):
        semaphore = Semaphore(kernel, value=0)
        waiter = semaphore.acquire()
        semaphore.release()
        assert waiter.triggered
        assert semaphore.value == 0

    def test_release_count(self, kernel):
        semaphore = Semaphore(kernel, value=0)
        waiters = [semaphore.acquire() for _ in range(3)]
        semaphore.release(count=2)
        assert [w.triggered for w in waiters] == [True, True, False]

    def test_negative_value_rejected(self, kernel):
        with pytest.raises(ValueError):
            Semaphore(kernel, value=-1)


class TestMessageQueue:
    def test_put_get_through_threads(self, kernel):
        env = kernel.env
        queue = MessageQueue(kernel, capacity=2)
        process = kernel.spawn_process("app.exe")
        received = []

        def producer(ctx):
            for item in range(5):
                yield ctx.wait(queue.put(item))
                yield ctx.cpu(MS)

        def consumer(ctx):
            for _ in range(5):
                item = yield ctx.wait(queue.get())
                received.append(item)
                yield ctx.cpu(2 * MS)

        process.spawn_thread(producer)
        process.spawn_thread(consumer)
        env.run()
        assert received == [0, 1, 2, 3, 4]

    def test_len(self, kernel):
        queue = MessageQueue(kernel)
        queue.put("x")
        assert len(queue) == 1


class TestNamingAndRegistry:
    def test_auto_names_are_stable_per_kind(self, kernel):
        assert Lock(kernel).name == "lock-1"
        assert Lock(kernel).name == "lock-2"
        assert Semaphore(kernel).name == "semaphore-1"
        assert MessageQueue(kernel).name == "queue-1"
        assert CountdownLatch(kernel, count=1).name == "latch-1"

    def test_explicit_name_wins(self, kernel):
        assert Lock(kernel, name="frame-lock").name == "frame-lock"

    def test_kernel_inventory_records_primitives(self, kernel):
        lock = Lock(kernel)
        queue = MessageQueue(kernel)
        assert lock in kernel.sync_primitives
        assert queue in kernel.sync_primitives

    def test_reprs_name_the_primitive(self, kernel):
        assert "'semaphore-1' value=2" in repr(Semaphore(kernel, value=2))
        assert "'queue-1' len=0" in repr(MessageQueue(kernel))
        assert "remaining=2" in repr(CountdownLatch(kernel, count=2))

    def test_primitives_work_without_registry(self):
        """Bare kernel doubles (env only) still get usable names."""
        class Double:
            def __init__(self, env):
                self.env = env

        from repro.sim import Environment

        lock = Lock(Double(Environment()))
        assert lock.name.startswith("lock@")
        assert lock.acquire("a").triggered


class TestCountdownLatch:
    def test_fires_after_count(self, kernel):
        latch = CountdownLatch(kernel, count=2)
        latch.count_down()
        assert not latch.done.triggered
        latch.count_down()
        assert latch.done.triggered

    def test_extra_countdowns_ignored(self, kernel):
        latch = CountdownLatch(kernel, count=1)
        latch.count_down()
        latch.count_down()  # no error
        assert latch.done.triggered

    def test_count_validation(self, kernel):
        with pytest.raises(ValueError):
            CountdownLatch(kernel, count=0)
