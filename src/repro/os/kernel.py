"""The simulated OS kernel facade.

Owns the process table, the scheduler, the memory model and the hooks
into the trace session.  Application models talk to this object to
spawn processes and threads; the harness creates one kernel per run.
"""

import random

from repro.os.energy import EnergyModel
from repro.os.memmodel import MemoryModel
from repro.os.scheduler import Scheduler
from repro.os.threads import OsProcess
from repro.os.work import WorkClass
from repro.sim import SECOND
from repro.trace.session import NullSession


class Kernel:
    """One booted instance of the simulated operating system."""

    def __init__(self, env, machine, session=None, seed=0, turbo=True,
                 dispatch_policy="spread", quantum=None):
        self.env = env
        self.machine = machine
        self.session = session if session is not None else NullSession()
        self.rng = random.Random(seed)
        self.memory_model = MemoryModel()
        self.energy_model = EnergyModel(machine)
        scheduler_kwargs = {"memory_model": self.memory_model,
                            "energy_model": self.energy_model,
                            "turbo": turbo,
                            "dispatch_policy": dispatch_policy}
        if quantum is not None:
            scheduler_kwargs["quantum"] = quantum
        self.scheduler = Scheduler(env, machine, self.session,
                                   **scheduler_kwargs)
        self.processes = []
        self._next_pid = 4  # Windows starts user PIDs above the System PID
        #: Inventory of sync primitives constructed against this kernel.
        self.sync_primitives = []
        self._sync_counts = {}

    @property
    def now(self):
        return self.env.now

    @property
    def logical_cpus(self):
        """Number of active logical CPUs in this boot configuration."""
        return len(self.scheduler.lcpus)

    def spawn_process(self, name, image=None):
        """Create a new (threadless) process."""
        self._next_pid += 4
        process = OsProcess(self, self._next_pid, name, image=image)
        self.processes.append(process)
        return process

    def register_sync(self, primitive, kind, name=None):
        """Record a sync primitive; returns its (auto-assigned) name.

        Auto-names are stable per kernel (``lock-1``, ``semaphore-2``,
        ...) so diagnostics and lint findings stay deterministic.
        """
        index = self._sync_counts.get(kind, 0) + 1
        self._sync_counts[kind] = index
        self.sync_primitives.append(primitive)
        return name if name is not None else f"{kind}-{index}"

    def note_sync_op(self, primitive, op, token=None):
        """Observation hook for sync operations.

        A no-op on the real kernel; the shadow-build kernel in
        :mod:`repro.analysis.static.shadow` overrides it to record
        acquisition sites without simulating.
        """

    def start_background_services(self, duty_cycle=0.004, services=None):
        """Spawn light OS background activity (System, svchost, dwm).

        The paper ends "unrelated background processes" before tracing
        but kernel services keep ticking; their presence exercises the
        application-level process filtering in the metrics pipeline.
        ``duty_cycle`` is the fraction of time each service computes.
        """
        names = services if services is not None else (
            "System", "svchost.exe", "dwm.exe")
        spawned = []
        for name in names:
            process = self.spawn_process(name)
            process.spawn_thread(
                self._service_body(duty_cycle), name=f"{name}-tick")
            spawned.append(process)
        return spawned

    def _service_body(self, duty_cycle):
        rng = random.Random(self.rng.getrandbits(32))

        def body(ctx):
            period = SECOND // 2
            busy = max(1, int(period * duty_cycle))
            while True:
                yield ctx.sleep(rng.randint(period // 2, period * 3 // 2))
                yield ctx.cpu(max(1, int(busy * rng.uniform(0.5, 1.5))),
                              WorkClass.UI)

        return body
