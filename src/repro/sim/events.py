"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic coroutine style popularized by SimPy:
simulation *processes* are Python generators that ``yield`` events; the
:class:`~repro.sim.environment.Environment` resumes a process when the
event it is waiting on fires.

Only the features needed by the reproduction are implemented — this is
a deliberately small, fully-deterministic kernel, not a general-purpose
framework.
"""

from heapq import heappush

from repro.sim.exceptions import Interrupt, SimulationError

#: Sentinel for "event has not fired yet".
PENDING = object()

#: Mirrors :data:`repro.sim.environment.NORMAL` (imported lazily there
#: to avoid a cycle); the inlined scheduling fast paths below hardcode
#: the default priority exactly as ``Environment.schedule`` does.
_NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *pending* (just created),
    *triggered* (scheduled to fire, value decided) and *processed*
    (callbacks have run).  Waiting processes register callbacks; when
    the event is processed each callback receives the event.

    Events are the most-allocated objects in a run, so the whole
    hierarchy uses ``__slots__``.  ``defused`` is a slot rather than an
    ad-hoc attribute: it is set lazily (only on events whose failure is
    handled) and read with ``getattr(..., "defused", False)``, which
    still works for unset slots.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True

    @property
    def triggered(self):
        """True once the event has a value and is scheduled to fire."""
        return self._value is not PENDING

    @property
    def processed(self):
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event fired successfully (not failed)."""
        if not self.triggered:
            raise SimulationError("value of untriggered event is undecided")
        return self._ok

    @property
    def value(self):
        """The value the event fired with (or the exception on failure)."""
        if self._value is PENDING:
            raise SimulationError("value of untriggered event is undecided")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined ``env.schedule(self)`` — one call fewer on the path
        # every grant, join and wakeup takes.
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, _NORMAL, env._eid, self))
        return self

    def __repr__(self):
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` time units.

    Fired timeouts with no remaining references are recycled through
    :attr:`Environment._timeout_pool` — see ``Environment.timeout``.
    """

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        env._eid += 1
        heappush(env._queue,
                 (env._now + int(delay), _NORMAL, env._eid, self))


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event that fires (with the generator's
    return value) when the generator finishes, so processes can wait
    for each other simply by yielding the :class:`Process` object.
    """

    __slots__ = ("generator", "name")

    def __init__(self, env, generator, name=None):
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        init = Event(env)
        init._ok = True
        init._value = None
        env.schedule(init)
        init.callbacks.append(self._resume)

    @property
    def is_alive(self):
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process.

        The interrupt is delivered immediately (at the current
        simulation time) regardless of what the process is waiting on.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        self.env.schedule(event, priority=0)
        event.callbacks.append(self._resume)

    def _resume(self, event):
        # The single most-executed function of a run (every event with
        # a waiting process lands here): slot reads replace the
        # ``triggered``/``processed`` properties — same semantics,
        # fewer dispatches.
        if self._value is not PENDING:
            return
        try:
            if event._ok:
                next_target = self.generator.send(event._value)
            else:
                event.defused = True
                next_target = self.generator.throw(event._value)
        except StopIteration as stop:
            env = self.env
            self._ok = True
            self._value = stop.value
            env._eid += 1
            heappush(env._queue, (env._now, _NORMAL, env._eid, self))
            return
        except BaseException as error:
            self._fail_with(error)
            return
        if not isinstance(next_target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded a non-event: {next_target!r}")
            self.generator.throw(error)
            return
        if next_target.callbacks is None:
            # Already-processed events resume the process on the next
            # scheduling step to preserve FIFO ordering.
            relay = Event(self.env)
            relay._ok = next_target._ok
            relay._value = next_target._value
            relay.defused = True
            self.env.schedule(relay)
            relay.callbacks.append(self._resume)
        else:
            next_target.callbacks.append(self._resume)

    def _fail_with(self, error):
        self._ok = False
        self._value = error
        self.env.schedule(self)

    def __repr__(self):
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
