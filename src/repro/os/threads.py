"""Processes, threads and the thread-body programming interface.

Application models express thread behaviour as generator functions
receiving a :class:`ThreadContext`::

    def worker(ctx):
        while True:
            item = yield ctx.wait(queue.get())
            yield ctx.cpu(8 * MS, WorkClass.FU_BOUND)

``ctx.cpu`` consumes CPU time through the scheduler (occupying a
logical CPU, subject to SMT contention and preemption and emitting
context-switch trace records); ``ctx.sleep`` / ``ctx.wait`` block off
the CPU.
"""

from enum import Enum
from heapq import heappop

from repro.os.work import WorkClass
from repro.sim.exceptions import Interrupt


class ThreadState(Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    TERMINATED = "terminated"


class _CpuRequest:
    __slots__ = ("amount", "work_class")

    def __init__(self, amount, work_class):
        if amount <= 0:
            raise ValueError(f"cpu amount must be positive, got {amount}")
        self.amount = int(amount)
        self.work_class = work_class


class _SleepRequest:
    __slots__ = ("duration",)

    def __init__(self, duration):
        if duration < 0:
            raise ValueError(f"negative sleep {duration}")
        self.duration = int(duration)


class _WaitRequest:
    __slots__ = ("event",)

    def __init__(self, event):
        self.event = event


class ThreadContext:
    """The API surface handed to every thread body."""

    def __init__(self, thread):
        self._thread = thread
        self._env = thread.kernel.env

    @property
    def now(self):
        """Current simulation time in microseconds."""
        return self._env._now

    @property
    def thread(self):
        return self._thread

    @property
    def kernel(self):
        return self._thread.kernel

    def cpu(self, amount, work_class=WorkClass.BALANCED):
        """Consume ``amount`` µs of nominal CPU work."""
        return _CpuRequest(amount, work_class)

    def sleep(self, duration):
        """Block off-CPU for ``duration`` µs."""
        return _SleepRequest(duration)

    def wait(self, event):
        """Block until ``event`` fires; returns the event's value."""
        return _WaitRequest(event)


class Thread:
    """A schedulable thread belonging to an :class:`OsProcess`."""

    def __init__(self, kernel, process, tid, name, body, priority=0):
        self.kernel = kernel
        self.process = process
        self.tid = tid
        self.name = name
        self.body = body
        #: Scheduling priority (see scheduler.PRIORITY_*).
        self.priority = priority
        self.state = ThreadState.NEW
        #: Fires with the body's return value when the thread exits.
        self.joined = kernel.env.event()
        self._sim_process = None

    def start(self):
        """Begin executing the thread body."""
        if self._sim_process is not None:
            raise RuntimeError(f"thread {self.name!r} already started")
        self._sim_process = self.kernel.env.process(
            self._run(), name=f"{self.process.name}/{self.name}")
        return self

    def join(self):
        """Event that fires when this thread terminates."""
        return self.joined

    def interrupt(self, cause=None):
        """Deliver an :class:`~repro.sim.Interrupt` to the thread body."""
        if self._sim_process is None or not self._sim_process.is_alive:
            return
        self._sim_process.interrupt(cause)

    @property
    def is_alive(self):
        return self.state not in (ThreadState.NEW, ThreadState.TERMINATED)

    def _run(self):
        """The thread's simulation process: it interprets the body's
        requests.  A CPU burst is delegated to ``Scheduler.run_burst``,
        a sleep yields one timeout, and a wait yields its event unless
        that event heads the queue with nothing else to run first."""
        ctx = ThreadContext(self)
        generator = self.body(ctx)
        scheduler = self.kernel.scheduler
        env = self.kernel.env
        result = None
        try:
            request = next(generator)
            while True:
                try:
                    # Exact-type checks: the request classes are final
                    # by construction and ``type() is`` dispatches the
                    # per-yield hot loop faster than isinstance.
                    kind = type(request)
                    if kind is _CpuRequest:
                        yield from scheduler.run_burst(
                            self, request.amount, request.work_class)
                        value = None
                    elif kind is _SleepRequest:
                        self.state = ThreadState.SLEEPING
                        yield env.timeout(request.duration)
                        value = None
                    elif kind is _WaitRequest:
                        event = request.event
                        self.state = ThreadState.BLOCKED
                        # Epoch fast path: an uncontended sync op hands
                        # back a triggered event that heads the queue
                        # with nobody else waiting on it and no callback
                        # cascade in flight.  Its processing would be
                        # the very next step, so it is done here (popped
                        # from the queue) instead of parking the thread
                        # for one event round-trip.  Every other wait,
                        # failed events included, takes the event path.
                        queue = env._queue
                        if (event._ok and env._cb_pending == 0
                                and event.callbacks == []
                                and queue and queue[0][3] is event):
                            heappop(queue)
                            event.callbacks = None
                            value = event._value
                        else:
                            value = yield event
                    else:
                        raise TypeError(
                            f"thread {self.name!r} yielded {request!r}; "
                            "expected ctx.cpu/ctx.sleep/ctx.wait")
                except Interrupt as interrupt:
                    request = generator.throw(interrupt)
                else:
                    request = generator.send(value)
        except StopIteration as stop:
            result = stop.value
        except Interrupt:
            # The body did not catch the interrupt: the thread is
            # killed (OsProcess.terminate semantics).
            result = None
        finally:
            self.state = ThreadState.TERMINATED
            self.process._on_thread_exit(self)
        self.joined.succeed(result)


class OsProcess:
    """A process: a named container of threads (one address space)."""

    def __init__(self, kernel, pid, name, image=None):
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.image = image or name
        self.threads = []
        self._next_tid = 1
        #: Fires when the last thread of the process exits.
        self.exited = kernel.env.event()
        self._live_threads = 0

    def spawn_thread(self, body, name=None, priority=0):
        """Create and start a thread running ``body(ctx)``.

        ``priority`` above zero marks latency-critical threads that the
        scheduler dispatches ahead of queued normal work.
        """
        tid = self.pid * 1000 + self._next_tid
        self._next_tid += 1
        thread = Thread(self.kernel, self, tid,
                        name or f"thread-{self._next_tid - 1}", body,
                        priority=priority)
        self.threads.append(thread)
        self._live_threads += 1
        thread.start()
        return thread

    def terminate(self, cause="terminated"):
        """Kill the process: interrupt every live thread.

        Thread bodies receive an :class:`~repro.sim.Interrupt`; bodies
        that do not catch it unwind immediately (the common case).
        Idempotent — terminating a dead process is a no-op.
        """
        for thread in self.threads:
            if thread.is_alive:
                thread.interrupt(cause)

    def _on_thread_exit(self, _thread):
        self._live_threads -= 1
        if self._live_threads == 0 and not self.exited.triggered:
            self.exited.succeed(self)

    def __repr__(self):
        return f"<OsProcess {self.name!r} pid={self.pid} threads={len(self.threads)}>"
