"""Kernel-level trace sessions — the ETW / UIforETW substitute.

The simulated OS kernel and GPU call the ``emit_*`` hooks; records are
only retained while the session is recording, exactly like starting and
stopping a UIforETW capture around a testbench run (paper Fig. 1).

Records are appended to flat :mod:`~repro.trace.columns` stores
instead of per-record dataclasses; the :class:`~repro.trace.etl.
EtlTrace` returned by :meth:`stop` materializes dataclass records
lazily, and the WPA tables read the column buffers directly.  In
**streaming** mode (``retain_records=False``) nothing is buffered at
all: subscribers registered via :meth:`subscribe` (the online metrics
engine) receive every event as it happens and maintain their
accumulators in O(1) memory.

Subscribers also receive *occupancy edges* (``emit_cpu_busy`` /
``emit_cpu_idle`` from the scheduler, ``emit_engine_busy`` /
``emit_engine_idle`` from GPU engines).  Unlike record emission these
fire in strict simulation-time order, which is what lets streaming
consumers run an exact sweep without sorting; they are delivered even
while the session is not recording so consumers can track intervals
that straddle the recording window.
"""

from repro.trace.columns import (
    CswitchColumns,
    FrameColumns,
    GpuPacketColumns,
    MarkColumns,
)
from repro.trace.etl import EtlTrace


class TraceSession:
    """Collects records between :meth:`start` and :meth:`stop`.

    A session records every provider the paper's WPA analyses read:
    context switches (CPU Usage (Precise)), GPU packets (GPU
    Utilization (FM)), frame presents and marks.
    """

    def __init__(self, env, machine_name="", retain_records=True):
        self.env = env
        self.machine_name = machine_name
        self.retain_records = retain_records
        self.recording = False
        self.subscribers = []
        self._start_time = None
        self._alloc_buffers()

    def _alloc_buffers(self):
        """Fresh, unshared buffers.

        Allocating (rather than clearing in place) matters: with lazy
        columnar traces, the stores handed to a previously returned
        :class:`EtlTrace` must stay untouched when the session records
        again — clearing shared buffers would silently empty traces the
        caller still holds.
        """
        self._cswitches = CswitchColumns()
        self._gpu_packets = GpuPacketColumns()
        self._frames = FrameColumns()
        self._marks = MarkColumns()

    # -- streaming consumers -------------------------------------------

    def subscribe(self, consumer):
        """Register a streaming consumer for emit and occupancy events.

        Consumers implement (any subset is fine — missing hooks are
        simply never called by *this* session's fan-out helpers):
        ``on_window_start/stop(now)``, ``on_cpu_busy/idle(process, cpu,
        now)``, ``on_engine_busy/idle(process, engine, now)``,
        ``on_frame(...)`` and ``on_mark(...)``.
        """
        self.subscribers.append(consumer)
        return consumer

    def start(self):
        """Begin recording (idempotent error: cannot start twice)."""
        if self.recording:
            raise RuntimeError("trace session already recording")
        self.recording = True
        self._start_time = self.env.now
        self._alloc_buffers()
        # While recording with retention, the two high-volume
        # emit hooks collapse to the column stores' bound ``append``
        # methods (instance attributes shadowing the class methods):
        # the per-record flag checks run once here instead of tens of
        # thousands of times in the scheduler hot loop.  The
        # signatures match field-for-field; :meth:`stop` removes the
        # shadows so the checking class methods return.
        if self.retain_records:
            self.emit_cswitch = self._cswitches.append
            self.emit_gpu_packet = self._gpu_packets.append
        for consumer in self.subscribers:
            consumer.on_window_start(self.env.now)

    def stop(self):
        """Stop recording and return the captured :class:`EtlTrace`.

        A zero-length window (stop at the same instant as start) yields
        a valid, empty trace; downstream metrics guard against it with
        an explicit ``ValueError`` rather than dividing by the zero
        duration.
        """
        if not self.recording:
            raise RuntimeError("trace session is not recording")
        self.recording = False
        self.__dict__.pop("emit_cswitch", None)
        self.__dict__.pop("emit_gpu_packet", None)
        trace = EtlTrace(
            self._start_time,
            self.env.now,
            cswitches=self._cswitches,
            gpu_packets=self._gpu_packets,
            frames=self._frames,
            marks=self._marks,
            machine_name=self.machine_name,
        )
        # Detach: the returned trace owns these buffers now.
        self._alloc_buffers()
        for consumer in self.subscribers:
            consumer.on_window_stop(self.env.now)
        return trace

    # -- emit hooks called by the simulated kernel / GPU ---------------

    def emit_cswitch(self, process, pid, tid, thread_name, cpu,
                     ready_time, switch_in_time, switch_out_time):
        if self.recording and self.retain_records:
            self._cswitches.append(
                process, pid, tid, thread_name, cpu,
                ready_time, switch_in_time, switch_out_time)

    def emit_gpu_packet(self, process, pid, engine, packet_type,
                        submit_time, start_execution, finished):
        if self.recording and self.retain_records:
            self._gpu_packets.append(
                process, pid, engine, packet_type,
                submit_time, start_execution, finished)

    def emit_frame(self, process, pid, present_time, target_fps,
                   reprojected=False):
        if self.recording:
            if self.retain_records:
                self._frames.append(process, pid, present_time,
                                    target_fps, reprojected)
            for consumer in self.subscribers:
                consumer.on_frame(process, pid, present_time, target_fps,
                                  reprojected)

    def emit_mark(self, process, pid, label):
        if self.recording:
            if self.retain_records:
                self._marks.append(process, pid, self.env.now, label)
            for consumer in self.subscribers:
                consumer.on_mark(process, pid, self.env.now, label)

    # -- occupancy edges (scheduler / GPU engines) ---------------------
    #
    # Callers guard on ``session.subscribers`` being non-empty, so the
    # default (non-streaming) hot path never pays these calls.

    def emit_cpu_busy(self, process, cpu):
        now = self.env.now
        for consumer in self.subscribers:
            consumer.on_cpu_busy(process, cpu, now)

    def emit_cpu_idle(self, process, cpu):
        now = self.env.now
        for consumer in self.subscribers:
            consumer.on_cpu_idle(process, cpu, now)

    def emit_engine_busy(self, process, engine):
        now = self.env.now
        for consumer in self.subscribers:
            consumer.on_engine_busy(process, engine, now)

    def emit_engine_idle(self, process, engine):
        now = self.env.now
        for consumer in self.subscribers:
            consumer.on_engine_idle(process, engine, now)


class NullSession:
    """A do-nothing session for runs that do not need tracing."""

    recording = False
    subscribers = ()

    def emit_cswitch(self, *args, **kwargs):
        pass

    def emit_gpu_packet(self, *args, **kwargs):
        pass

    def emit_frame(self, *args, **kwargs):
        pass

    def emit_mark(self, *args, **kwargs):
        pass

    def emit_cpu_busy(self, *args, **kwargs):
        pass

    def emit_cpu_idle(self, *args, **kwargs):
        pass

    def emit_engine_busy(self, *args, **kwargs):
        pass

    def emit_engine_idle(self, *args, **kwargs):
        pass
