"""The simulation environment: clock, event queue and run loop.

Simulation time is an integer number of **microseconds**.  Using
integers keeps event ordering exact and runs deterministic — two runs
with the same seed produce bit-identical traces.
"""

from heapq import heappop, heappush

from repro.sim.events import Event, Process, Timeout

#: Default event priority.  Lower numbers fire first at equal times.
NORMAL = 1


class Environment:
    """Owns the simulation clock and executes events in time order."""

    def __init__(self, initial_time=0):
        self._now = int(initial_time)
        self._queue = []
        self._eid = 0
        #: Callbacks of the event being processed that have not run
        #: yet.  They are invisible to the queue, so the epoch fast
        #: paths (:meth:`advance`, ``run_burst``'s synchronous grant)
        #: act only while it is 0.
        self._cb_pending = 0
        #: Time bound of the current :meth:`run` call (``None`` when
        #: unbounded): :meth:`advance` must never move the clock past
        #: it, because a timeout beyond the horizon never fires.
        self._horizon = None

    @property
    def now(self):
        """Current simulation time in microseconds."""
        return self._now

    def schedule(self, event, priority=NORMAL):
        """Queue ``event`` to fire at the current time.  Priority 0,
        the interrupt priority, fires ahead of same-instant events."""
        self._eid += 1
        heappush(self._queue, (self._now, priority, self._eid, event))

    def timeout(self, delay, value=None):
        """Return a new event firing after ``delay`` microseconds."""
        return Timeout(self, delay, value)

    def event(self):
        """Return a fresh untriggered :class:`Event`."""
        return Event(self)

    def process(self, generator, name=None):
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator, name=name)

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

    def run(self, until=None):
        """Process events in time order until the queue drains or the
        next event lies past ``until``.

        ``until`` is an integer time in µs, or ``None`` to run to
        exhaustion; anything ``int()`` rejects (an event, say) raises
        ``TypeError``.  A run that stops at ``until`` leaves the clock
        there.  An event that failed unhandled — a thread body that
        raised fails its process — is raised from here.
        """
        if until is not None:
            until = int(until)
            if until < self._now:
                raise ValueError(
                    f"until ({until}) must not be before current time ({self._now})")
        self._horizon = until
        # Everything the loop touches is bound to locals: the repeated
        # attribute loads are measurable at millions of events.
        queue = self._queue
        pop = heappop
        bounded = until is not None
        try:
            while queue:
                # The horizon is tested on the entry just popped; the
                # one entry past it goes back once, when the run stops.
                now, _, _, event = entry = pop(queue)
                if bounded and now > until:
                    heappush(queue, entry)
                    self._now = until
                    break
                self._now = now
                callbacks, event.callbacks = event.callbacks, None
                if len(callbacks) == 1:
                    # A single callback leaves ``_cb_pending`` at 0
                    # throughout, so it needs no bookkeeping.
                    callbacks[0](event)
                else:
                    remaining = len(callbacks)
                    for callback in callbacks:
                        remaining -= 1
                        self._cb_pending = remaining
                        callback(event)
                if not event._ok and not getattr(event, "defused", False):
                    raise event._value
        finally:
            self._horizon = None
