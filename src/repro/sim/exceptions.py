"""Exceptions raised by the discrete-event simulation kernel."""


class SimulationError(Exception):
    """Base class for all simulation kernel errors."""


class Interrupt(Exception):
    """Raised inside a process that was interrupted by another process.

    The interrupting party supplies ``cause``, which the interrupted
    process can inspect to decide how to react (e.g. a thread being
    preempted, or an application being asked to shut down).
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self):
        return f"Interrupt(cause={self.cause!r})"
