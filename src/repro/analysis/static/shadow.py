"""Shadow-build harness: extract app structure without simulating.

``AppModel.build`` normally wires generators into a discrete-event
kernel and the schedule emerges from running the event loop.  The
shadow harness runs the *same* build code against stub kernel / GPU /
driver objects whose event plumbing never advances a simulation clock:

* :class:`ShadowEnv` hands out real :class:`~repro.sim.events.Event`
  objects but its ``schedule`` is a no-op, so ``succeed()`` still
  marks events triggered synchronously and the unmodified sync
  primitives (Lock, Semaphore, Store...) work as-is.
* :class:`ShadowKernel` records ``spawn_process`` / ``spawn_thread``
  calls plus — via the ``register_sync`` / ``note_sync_op`` hooks —
  every sync-primitive construction and acquisition site.
* After the build, every thread body generator is *driven*: CPU and
  sleep requests advance a per-thread virtual progress counter (so
  ``while ctx.now < rt.end_time`` loops terminate), waits on
  already-triggered events deliver their value, and waits on pending
  events are force-woken with ``None``.  No global clock, event queue
  or scheduler is involved — the walk observes each thread's program
  order, which is exactly what lock-order and work/span analysis need.

The result is an :class:`AppStructure`: processes, threads (with
per-thread CPU work and sync-operation sequences), the sync-primitive
inventory, and completeness flags that downstream bounds treat
conservatively.
"""

import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps import create_app
from repro.apps.base import AppModel, AppRuntime
from repro.hardware import paper_machine
from repro.os.sync import MessageQueue
from repro.os.threads import _CpuRequest, _SleepRequest, _WaitRequest
from repro.sim import SECOND
from repro.sim.events import Event, Timeout
from repro.trace.session import NullSession

#: Default analysis window: matches the golden grid so static bounds
#: are directly comparable against the committed golden TLP values.
DEFAULT_SHADOW_DURATION_US = 1 * SECOND
#: Per-thread cap on driven generator steps (loop-truncation guard).
DEFAULT_MAX_STEPS = 200_000
#: Cap on consecutive force-woken waits with no virtual-time progress
#: (livelock guard for bodies gated purely on never-firing events).
MAX_IDLE_FORCED = 5_000

_PACKAGE_ROOT = Path(__file__).resolve().parents[3]
_SHADOW_FILES = (str(Path(__file__).resolve()),)
_SYNC_FILE = str((_PACKAGE_ROOT / "repro" / "os" / "sync.py").resolve())

#: Frame filename -> its name relative to the package root (the bare
#: file name outside it).  A shadow build records thousands of sync
#: ops from a handful of source files.
_SITE_NAMES = {}


def _site_name(filename):
    """The package-relative name :func:`_call_site` prints for a
    frame's filename, resolved once per filename."""
    name = _SITE_NAMES.get(filename)
    if name is None:
        path = Path(filename)
        try:
            name = str(path.relative_to(_PACKAGE_ROOT))
        except ValueError:
            name = path.name
        _SITE_NAMES[filename] = name
    return name


def _call_site(skip_files):
    """``file.py:line`` of the nearest frame outside ``skip_files``."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename in skip_files:
        frame = frame.f_back
    if frame is None:
        return None
    return f"{_site_name(frame.f_code.co_filename)}:{frame.f_lineno}"


@dataclass(frozen=True)
class SyncInfo:
    """One sync primitive observed during the shadow build."""

    name: str
    kind: str        # "lock" | "semaphore" | "queue" | "latch"
    site: str = None


@dataclass(frozen=True)
class SyncOp:
    """One operation on a sync primitive, in thread program order."""

    sync: SyncInfo
    op: str          # "acquire" | "release" | "wait" | "put" | "get" | ...
    site: str = None


class ShadowEnv:
    """Stand-in for :class:`~repro.sim.Environment` that never runs.

    Scheduling only accumulates — events still become *triggered*
    synchronously inside ``succeed()``, which is all the sync
    primitives and the shadow driver need.  The event fast paths
    (``Event.succeed``, ``Timeout.__init__``) push straight onto
    ``_queue`` without calling :meth:`schedule`, so the double exposes
    the same structural fields as the real environment; the queue is
    never drained here.
    """

    def __init__(self):
        self.now = 0
        self._now = 0
        self._eid = 0
        self._queue = []
        self.scheduled = 0

    def schedule(self, event, priority=1, delay=0):
        self.scheduled += 1

    def event(self):
        return Event(self)

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def process(self, generator, name=None):
        raise RuntimeError(
            "shadow builds must not start simulation processes "
            f"(attempted to start {name!r})")


class ShadowThread:
    """A recorded ``spawn_thread`` call plus its driven-path stats."""

    def __init__(self, process, tid, name, body, priority=0, dynamic=False,
                 spawn_site=None):
        self.process = process
        self.tid = tid
        self.name = name
        self.body = body
        self.priority = priority
        #: True when spawned from a driven thread body rather than
        #: during ``build`` — e.g. ``fan_out`` burst pools.
        self.dynamic = dynamic
        self.spawn_site = spawn_site
        self.ops = []
        self.cpu_us = 0
        self.sleep_us = 0
        self.clock = 0
        self.steps = 0
        self.forced_waits = 0
        self.completed = False
        self.truncated = False
        self.error = None

    def __repr__(self):
        return (f"<ShadowThread {self.process.name}/{self.name} "
                f"cpu={self.cpu_us} steps={self.steps}>")


class ShadowProcess:
    """A recorded ``spawn_process`` call; spawns :class:`ShadowThread`s."""

    def __init__(self, kernel, pid, name, image=None):
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.image = image or name
        self.threads = []
        self._next_tid = 1
        self.exited = kernel.env.event()

    def spawn_thread(self, body, name=None, priority=0):
        tid = self.pid * 1000 + self._next_tid
        self._next_tid += 1
        thread = ShadowThread(
            self, tid, name or f"thread-{self._next_tid - 1}", body,
            priority=priority, dynamic=not self.kernel.building,
            spawn_site=_call_site(_SHADOW_FILES))
        self.threads.append(thread)
        self.kernel.all_threads.append(thread)
        self.kernel.undriven.append(thread)
        return thread

    def terminate(self, cause="terminated"):
        """No-op: shadow threads are driven, not scheduled."""

    def __repr__(self):
        return (f"<ShadowProcess {self.name!r} pid={self.pid} "
                f"threads={len(self.threads)}>")


class ShadowKernel:
    """Kernel facade that records structure instead of simulating."""

    def __init__(self, machine, seed=0):
        import random

        self.env = ShadowEnv()
        self.machine = machine
        self.session = NullSession()
        self.rng = random.Random(seed)
        self.processes = []
        self._next_pid = 4
        self.building = True
        self.all_threads = []
        self.undriven = []
        self.current_thread = None
        self.sync_primitives = []
        self.sync_info = {}           # id(primitive) -> SyncInfo
        self._sync_counts = {}
        #: Ops issued outside any driven thread (during build itself).
        self.build_ops = []

    @property
    def now(self):
        return 0

    @property
    def logical_cpus(self):
        return self.machine.logical_cpus

    def spawn_process(self, name, image=None):
        self._next_pid += 4
        process = ShadowProcess(self, self._next_pid, name, image=image)
        self.processes.append(process)
        return process

    def start_background_services(self, duty_cycle=0.004, services=None):
        """Background services are outside the app's structure."""
        return []

    # -- sync hooks (see repro.os.sync) ---------------------------------

    def register_sync(self, primitive, kind, name=None):
        index = self._sync_counts.get(kind, 0) + 1
        self._sync_counts[kind] = index
        assigned = name if name is not None else f"{kind}-{index}"
        info = SyncInfo(name=assigned, kind=kind,
                        site=_call_site(_SHADOW_FILES + (_SYNC_FILE,)))
        self.sync_primitives.append(primitive)
        self.sync_info[id(primitive)] = info
        return assigned

    def note_sync_op(self, primitive, op, token=None):
        info = self.sync_info.get(id(primitive))
        if info is None:  # primitive built against another kernel
            return
        record = SyncOp(sync=info, op=op,
                        site=_call_site(_SHADOW_FILES + (_SYNC_FILE,)))
        if self.current_thread is not None:
            self.current_thread.ops.append(record)
        else:
            self.build_ops.append(record)


class ShadowGpu:
    """Records GPU packet submissions; completions never fire."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.packets = []            # (process_name, engine, packet_type)

    def submit(self, process, engine, packet_type, ref_us, priority=0):
        self.packets.append((process.name, engine, packet_type))
        return Event(self.kernel.env)


class ShadowDriver:
    """Input driver stub: delivers the whole script synchronously.

    Every scripted action is preloaded onto the queue (followed by the
    ``None`` end-of-script sentinel), so UI threads observe the full
    input sequence in program order without any replay timing.
    """

    mode = "shadow"

    def __init__(self, kernel):
        self.kernel = kernel
        self.delivered = 0

    def play(self, script, queue=None):
        queue = queue or MessageQueue(self.kernel)
        for action in script:
            queue.put(action)
            self.delivered += 1
        queue.put(None)
        return queue


class ShadowContext:
    """The ``ctx`` handed to thread bodies during shadow driving.

    Mirrors :class:`~repro.os.threads.ThreadContext` but ``now`` is the
    thread's private virtual progress counter — the sum of its own CPU
    and sleep requests — not a simulation clock.
    """

    __slots__ = ("_thread", "_kernel")

    def __init__(self, thread, kernel):
        self._thread = thread
        self._kernel = kernel

    @property
    def now(self):
        return self._thread.clock

    @property
    def thread(self):
        return self._thread

    @property
    def kernel(self):
        return self._kernel

    def cpu(self, amount, work_class=None):
        from repro.os.work import WorkClass

        return _CpuRequest(amount, work_class or WorkClass.BALANCED)

    def sleep(self, duration):
        return _SleepRequest(duration)

    def wait(self, event):
        return _WaitRequest(event)


@dataclass
class ThreadInfo:
    """Summary of one thread's driven path."""

    process: str
    name: str
    tid: int
    priority: int
    dynamic: bool
    spawn_site: str
    cpu_us: int
    sleep_us: int
    steps: int
    forced_waits: int
    completed: bool
    truncated: bool
    error: str
    ops: list = field(default_factory=list)


@dataclass
class AppStructure:
    """Statically extracted concurrency structure of one app model."""

    app_name: str
    machine_name: str
    logical_cpus: int
    duration_us: int
    seed: int
    processes: list = field(default_factory=list)
    threads: list = field(default_factory=list)      # ThreadInfo
    sync: list = field(default_factory=list)         # SyncInfo
    build_ops: list = field(default_factory=list)    # SyncOp
    gpu_engines: dict = field(default_factory=dict)  # engine -> packets
    build_error: str = None

    @property
    def complete(self):
        """True when every thread path was explored to termination or
        to the end of the analysis window without truncation."""
        return (self.build_error is None
                and not any(t.truncated or t.error for t in self.threads))


def _drive(kernel, thread, end_time, max_steps):
    """Walk one thread body, recording requests until it terminates,
    its virtual clock passes ``end_time``, or a cap trips."""
    kernel.current_thread = thread
    idle_forced = 0
    try:
        generator = thread.body(ShadowContext(thread, kernel))
        if not hasattr(generator, "send"):
            # Plain-function bodies (no yields) terminate immediately.
            thread.completed = True
            return
        request = generator.send(None)
        while True:
            thread.steps += 1
            if thread.steps >= max_steps:
                thread.truncated = True
                generator.close()
                return
            if isinstance(request, _CpuRequest):
                thread.cpu_us += request.amount
                thread.clock += request.amount
                idle_forced = 0
                value = None
            elif isinstance(request, _SleepRequest):
                thread.sleep_us += request.duration
                thread.clock += request.duration
                idle_forced = 0
                value = None
            elif isinstance(request, _WaitRequest):
                event = request.event
                if getattr(event, "triggered", False) and event.ok:
                    value = event.value
                else:
                    # Force-wake: deliver None, as a drained queue or a
                    # cancelled gate would.  Bodies treating None as an
                    # end-of-stream sentinel exit cleanly.
                    thread.forced_waits += 1
                    idle_forced += 1
                    value = None
                    if idle_forced > MAX_IDLE_FORCED:
                        thread.truncated = True
                        generator.close()
                        return
            else:
                thread.error = (f"yielded non-request {request!r}; "
                                "expected ctx.cpu/ctx.sleep/ctx.wait")
                generator.close()
                return
            if thread.clock >= end_time and not isinstance(
                    request, _WaitRequest):
                # The analysis window is over for this thread; one more
                # resume lets `while ctx.now < end` loops exit cleanly.
                idle_forced += 1
                if idle_forced > MAX_IDLE_FORCED:
                    thread.truncated = True
                    generator.close()
                    return
            request = generator.send(value)
    except StopIteration:
        thread.completed = True
    except Exception as exc:  # body crashed under forced wakeups
        thread.error = f"{type(exc).__name__}: {exc}"
    finally:
        kernel.current_thread = None


def extract_structure(app, machine=None, duration_us=None, seed=0,
                      max_steps=DEFAULT_MAX_STEPS):
    """Shadow-build ``app`` and drive every thread body.

    ``app`` is an :class:`AppModel` instance or a registry key.  No
    simulation time passes: the returned :class:`AppStructure` is a
    function of the build code and the per-thread program order only.
    """
    if isinstance(app, str):
        app = create_app(app)
    if not isinstance(app, AppModel):
        raise TypeError(f"expected AppModel or registry key, got {app!r}")
    machine = machine or paper_machine()
    duration_us = (DEFAULT_SHADOW_DURATION_US
                   if duration_us is None else int(duration_us))
    kernel = ShadowKernel(machine, seed=seed)
    gpu = ShadowGpu(kernel)
    driver = ShadowDriver(kernel)
    runtime = AppRuntime(kernel, gpu, driver, duration_us, seed=seed)
    structure = AppStructure(
        app_name=app.name,
        machine_name=machine.cpu.name,
        logical_cpus=machine.logical_cpus,
        duration_us=duration_us,
        seed=seed)
    try:
        app.build(runtime)
    except Exception as exc:
        structure.build_error = f"{type(exc).__name__}: {exc}"
    kernel.building = False
    while kernel.undriven:
        _drive(kernel, kernel.undriven.pop(0), runtime.end_time, max_steps)

    structure.processes = sorted(runtime.process_names)
    structure.threads = [
        ThreadInfo(process=t.process.name, name=t.name, tid=t.tid,
                   priority=t.priority, dynamic=t.dynamic,
                   spawn_site=t.spawn_site, cpu_us=t.cpu_us,
                   sleep_us=t.sleep_us, steps=t.steps,
                   forced_waits=t.forced_waits, completed=t.completed,
                   truncated=t.truncated, error=t.error, ops=list(t.ops))
        for t in kernel.all_threads
    ]
    structure.sync = [kernel.sync_info[id(p)]
                      for p in kernel.sync_primitives]
    structure.build_ops = list(kernel.build_ops)
    engines = {}
    for _process, engine, _packet_type in gpu.packets:
        engines[engine] = engines.get(engine, 0) + 1
    structure.gpu_engines = engines
    if kernel.env.now != 0:
        raise AssertionError("shadow environment clock advanced")
    return structure
