"""Deterministic discrete-event simulation kernel.

Time is an integer count of microseconds.  Processes are generators
that yield :class:`Event` objects and are resumed when those fire.
``Environment.run`` runs to an integer horizon, or drains the queue
without one; a process whose generator raises fails, and ``run``
raises that error.

Public surface::

    env = Environment()
    proc = env.process(my_generator())
    env.run(until=1_000_000)
"""

from repro.sim.environment import Environment, NORMAL, URGENT
from repro.sim.events import Event, Process, Timeout
from repro.sim.exceptions import Interrupt, SimulationError
from repro.sim.resources import Store

#: Microseconds per millisecond / second — helpers for readable literals.
MS = 1_000
SECOND = 1_000_000

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "MS",
    "NORMAL",
    "Process",
    "SECOND",
    "SimulationError",
    "Store",
    "Timeout",
    "URGENT",
]
