"""A shared-resource primitive built on the event kernel.

:class:`Store` models bounded producer/consumer queues; the OS layer's
message queues (video pipelines, browser IPC) are built on it.
"""

from collections import deque

from repro.sim.events import Event


class Store:
    """A bounded FIFO buffer of items with blocking put/get.

    ``capacity=None`` means unbounded.
    """

    def __init__(self, env, capacity=None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items = deque()
        self._getters = deque()
        self._putters = deque()

    def __len__(self):
        return len(self.items)

    def put(self, item):
        """Return an event that fires once ``item`` is stored."""
        event = Event(self.env)
        self._putters.append((event, item))
        self._dispatch()
        return event

    def get(self):
        """Return an event that fires with the next item."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self):
        progressed = True
        while progressed:
            progressed = False
            while self._putters and (
                    self.capacity is None or len(self.items) < self.capacity):
                putter, item = self._putters.popleft()
                self.items.append(item)
                putter.succeed()
                progressed = True
            while self._getters and self.items:
                getter = self._getters.popleft()
                getter.succeed(self.items.popleft())
                progressed = True
