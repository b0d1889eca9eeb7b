"""The simulation environment: clock, event queue and run loop.

Simulation time is an integer number of **microseconds**.  Using
integers keeps event ordering exact and runs deterministic — two runs
with the same seed produce bit-identical traces.
"""

import sys
from heapq import heappop, heappush
from sys import getrefcount

from repro.sim.events import Event, Process, Timeout
from repro.sim.exceptions import SimulationError, StopSimulation

#: Default event priority.  Lower numbers fire first at equal times.
NORMAL = 1
#: Priority used for urgent deliveries such as interrupts.
URGENT = 0

#: Upper bound on recycled Timeout objects kept per environment.  The
#: refcount-based recycling below is only meaningful on CPython;
#: elsewhere the pool stays empty and every timeout is freshly built.
_TIMEOUT_POOL_CAP = 1024 if sys.implementation.name == "cpython" else 0


class Environment:
    """Owns the simulation clock and executes events in time order."""

    def __init__(self, initial_time=0):
        self._now = int(initial_time)
        self._queue = []
        self._eid = 0
        self._timeout_pool = []
        #: Callbacks of the event being stepped that have not run yet.
        #: Together with the queue head this defines :meth:`quiescent`.
        self._cb_pending = 0
        #: Time bound of the innermost :meth:`run` call (``None`` when
        #: unbounded): :meth:`advance` must never move the clock past
        #: it, because a timeout beyond the horizon never fires.
        self._horizon = None

    @property
    def now(self):
        """Current simulation time in microseconds."""
        return self._now

    def schedule(self, event, priority=NORMAL, delay=0):
        """Queue ``event`` to fire ``delay`` microseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._eid += 1
        heappush(self._queue, (self._now + int(delay), priority, self._eid, event))

    def timeout(self, delay, value=None):
        """Return an event firing after ``delay`` microseconds.

        Timeouts dominate event allocation (every burst, wait and
        service interval is one), so fired timeouts proven unreachable
        by the caller (refcount check in :meth:`step`) are recycled
        from a free list instead of being rebuilt from scratch.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            event = pool.pop()
            event.callbacks = []
            event._ok = True
            event._value = value
            event.delay = delay
            self._eid += 1
            heappush(self._queue,
                     (self._now + int(delay), NORMAL, self._eid, event))
            return event
        return Timeout(self, delay, value)

    def event(self):
        """Return a fresh untriggered :class:`Event`."""
        return Event(self)

    def process(self, generator, name=None):
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator, name=name)

    def stop(self, value=None):
        """Halt the run loop immediately (usable from inside a process)."""
        raise StopSimulation(value)

    def quiescent(self):
        """True when no *other* event can run at the current instant.

        This is the epoch-boundary test of the partitioned run loop:
        when it holds, the code currently executing is the only engine
        that can act before simulation time advances, so it may keep
        running on its private virtual clock (e.g. the scheduler's
        synchronous CPU grant) without an observable ordering change.
        Two channels could interleave same-instant work and both are
        checked: queued events at ``now`` (the heap head) and the
        not-yet-run callbacks of the event being stepped — the latter
        are invisible to the queue, so :meth:`step` counts them.
        """
        return self._cb_pending == 0 and (
            not self._queue or self._queue[0][0] > self._now)

    def advance(self, delay):
        """Move the clock forward ``delay`` µs synchronously if — and
        only if — that is indistinguishable from yielding a timeout.

        This is the epoch-partitioned run loop's private virtual
        clock: a caller that would otherwise ``yield timeout(delay)``
        may instead keep executing with time advanced, skipping the
        schedule/heappop/callback/generator-resume round-trip.  The
        skip is provably equivalent when the timeout would have been
        the very next event processed *and* would actually fire:

        * no callback cascade is in flight (``_cb_pending``),
        * the target time does not pass the :meth:`run` horizon (a
          timeout past ``until`` never fires, so the caller must stay
          suspended exactly as it would on a real timeout), and
        * no queued event fires at or before the target — strict
          inequality, because an already-queued event at the same
          instant holds a smaller eid and would run first.

        Returns ``True`` after advancing, ``False`` (clock untouched)
        when the caller must fall back to a real timeout event.
        """
        if delay < 0:
            return False
        target = self._now + delay
        if (self._cb_pending == 0
                and (self._horizon is None or target <= self._horizon)
                and (not self._queue or self._queue[0][0] > target)):
            self._now = target
            return True
        return False

    def step(self):
        """Process exactly one event from the queue."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._now, _, _, event = heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        if len(callbacks) == 1:
            # Fast path: a single callback leaves ``_cb_pending`` at 0
            # throughout, so :meth:`quiescent` needs no bookkeeping.
            callbacks[0](event)
        else:
            remaining = len(callbacks)
            for callback in callbacks:
                remaining -= 1
                self._cb_pending = remaining
                callback(event)
        if not event._ok and not getattr(event, "defused", False):
            raise event._value
        # Recycle the timeout if nothing else references it: exactly
        # two refs means only the local `event` and the getrefcount
        # argument — no process, queue entry or caller can observe the
        # object being reused.
        if (type(event) is Timeout
                and len(self._timeout_pool) < _TIMEOUT_POOL_CAP
                and getrefcount(event) == 2):
            self._timeout_pool.append(event)

    def run(self, until=None):
        """Run until the queue drains, ``until`` µs, or an event fires.

        ``until`` may be an integer time, an :class:`Event` (run until
        it fires, returning its value), or ``None`` (run to exhaustion).
        """
        stop_event = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            until = int(until)
            if until < self._now:
                raise ValueError(
                    f"until ({until}) must not be before current time ({self._now})")
        self._horizon = until if stop_event is None else None
        # The loop below is :meth:`step` unrolled with everything bound
        # to locals — the dispatch overhead of the method call and the
        # repeated attribute loads is measurable at millions of events.
        queue = self._queue
        pool = self._timeout_pool
        pop = heappop
        bounded = stop_event is None and until is not None
        try:
            while queue:
                if stop_event is not None and stop_event.processed:
                    break
                if bounded and queue[0][0] > until:
                    self._now = until
                    break
                self._now, _, _, event = pop(queue)
                callbacks, event.callbacks = event.callbacks, None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    remaining = len(callbacks)
                    for callback in callbacks:
                        remaining -= 1
                        self._cb_pending = remaining
                        callback(event)
                if not event._ok and not getattr(event, "defused", False):
                    raise event._value
                if (type(event) is Timeout
                        and len(pool) < _TIMEOUT_POOL_CAP
                        and getrefcount(event) == 2):
                    pool.append(event)
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None
        finally:
            self._horizon = None
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError("run(until=event) exhausted the queue "
                                      "before the event fired")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        return None
