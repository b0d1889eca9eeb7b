"""Synchronization primitives for simulated threads.

All primitives hand out kernel events; thread bodies block on them via
``yield ctx.wait(...)``, which parks the thread off-CPU until the
primitive grants it.

Every primitive is *named*: pass ``name=`` or the kernel assigns a
stable ``lock-1`` / ``semaphore-2`` style name at construction.  Names
flow into non-owner release errors, ``repro lint`` deadlock findings
and the static lock-order graph, so diagnostics can say which
primitive misbehaved instead of printing object ids.

Two kernel hooks carry the bookkeeping: ``register_sync`` (assigns the
name, records the inventory) and ``note_sync_op`` (called on every
acquire/release/wait/put/get).  On the real kernel the latter is a
no-op; the shadow-build harness in
:mod:`repro.analysis.static.shadow` overrides both to extract each
application's concurrency structure without running the simulation.
"""

from collections import deque

from repro.sim.resources import Store


def token_label(token):
    """Human-readable identity of an acquire token.

    Tokens are usually thread objects, so prefer their ``name``.
    """
    if token is None:
        return "<none>"
    name = getattr(token, "name", None)
    return name if isinstance(name, str) else repr(token)


class _SyncPrimitive:
    """Naming/registration plumbing shared by all sync primitives."""

    kind = "sync"

    def _register(self, kernel, name):
        self.kernel = kernel
        self.env = kernel.env
        register = getattr(kernel, "register_sync", None)
        if register is not None:
            self.name = register(self, self.kind, name)
        else:  # bare test doubles without the kernel-side registry
            self.name = name or f"{self.kind}@{id(self):x}"
        note = getattr(kernel, "note_sync_op", None)
        if note is not None:
            # The base kernel's hook is a documented no-op; observers
            # (the static shadow kernel) override it.  Detecting the
            # no-op here removes a useless call from every sync op.
            from repro.os.kernel import Kernel
            if getattr(type(kernel), "note_sync_op", None) \
                    is Kernel.note_sync_op:
                note = None
        self._note = note

    def _record(self, op, token=None):
        if self._note is not None:
            self._note(self, op, token)


class Lock(_SyncPrimitive):
    """A FIFO mutual-exclusion lock."""

    kind = "lock"

    def __init__(self, kernel, name=None):
        self._register(kernel, name)
        self._owner = None
        self._waiters = deque()

    @property
    def owner(self):
        """The token currently holding the lock (None when free)."""
        return self._owner

    def acquire(self, token=None):
        """Event firing once the lock is held by ``token``.

        ``token`` is any hashable identity (typically the thread); it
        must be passed again to :meth:`release`.
        """
        token = token if token is not None else object()
        self._record("acquire", token)
        event = self.env.event()
        if self._owner is None:
            self._owner = token
            event.succeed(token)
        else:
            self._waiters.append((token, event))
        return event

    def release(self, token=None):
        """Release the lock, passing it to the next waiter if any."""
        self._record("release", token)
        if self._owner is None:
            raise RuntimeError(
                f"release of unheld lock {self.name!r} "
                f"by {token_label(token)}")
        if token is not None and self._owner is not token:
            raise RuntimeError(
                f"lock {self.name!r} released by non-owner "
                f"{token_label(token)}; currently held by "
                f"{token_label(self._owner)}")
        if self._waiters:
            self._owner, event = self._waiters.popleft()
            event.succeed(self._owner)
        else:
            self._owner = None

    def __repr__(self):
        state = (f"held by {token_label(self._owner)}"
                 if self._owner is not None else "free")
        return (f"<Lock {self.name!r} {state}, "
                f"{len(self._waiters)} waiting>")


class Semaphore(_SyncPrimitive):
    """A counting semaphore with FIFO wakeup."""

    kind = "semaphore"

    def __init__(self, kernel, value=0, name=None):
        if value < 0:
            raise ValueError("semaphore value must be >= 0")
        self._register(kernel, name)
        self._value = value
        self._waiters = deque()

    @property
    def value(self):
        return self._value

    def acquire(self):
        """Event firing when a unit has been taken."""
        self._record("acquire")
        event = self.env.event()
        if self._value > 0:
            self._value -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self, count=1):
        """Add ``count`` units, waking waiters in FIFO order."""
        self._record("release")
        for _ in range(count):
            if self._waiters:
                self._waiters.popleft().succeed()
            else:
                self._value += 1

    def __repr__(self):
        return (f"<Semaphore {self.name!r} value={self._value}, "
                f"{len(self._waiters)} waiting>")


class MessageQueue(_SyncPrimitive):
    """A bounded FIFO channel between threads (IPC substitute)."""

    kind = "queue"

    def __init__(self, kernel, capacity=None, name=None):
        self._register(kernel, name)
        self._store = Store(kernel.env, capacity=capacity)

    def __len__(self):
        return len(self._store)

    def put(self, item):
        """Event firing once ``item`` has been enqueued."""
        self._record("put")
        return self._store.put(item)

    def get(self):
        """Event firing with the next item."""
        self._record("get")
        return self._store.get()

    def __repr__(self):
        return f"<MessageQueue {self.name!r} len={len(self._store)}>"


class CountdownLatch(_SyncPrimitive):
    """Fires an event after being counted down ``count`` times."""

    kind = "latch"

    def __init__(self, kernel, count, name=None):
        if count < 1:
            raise ValueError("count must be >= 1")
        self._register(kernel, name)
        self._remaining = count
        self.done = self.env.event()

    def count_down(self):
        self._record("count_down")
        if self._remaining <= 0:
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.done.succeed()

    def wait(self):
        self._record("wait")
        return self.done

    def __repr__(self):
        return f"<CountdownLatch {self.name!r} remaining={self._remaining}>"
