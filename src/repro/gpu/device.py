"""GPU device model: engines executing command-stream packets.

WPA's GPU Utilization (FM) view shows *packets* — batches of API calls
packaged into a command stream — executing on GPU engines.  We model a
device as a set of serial engines (3D, video decode, video encode,
compute, copy).  A packet's service time is its nominal execution time
on the reference GTX 1080 Ti scaled by the target device's relative
throughput, so the same workload shows higher utilization on a weaker
card (the paper's Fig. 8b / Fig. 9 / Fig. 10 effect).
"""

import math
from collections import deque

from repro.hardware.catalog import GTX_1080_TI

#: Engine names mirroring WPA's GPU node taxonomy.
ENGINE_3D = "3D"
ENGINE_VIDEO_DECODE = "video-decode"
ENGINE_VIDEO_ENCODE = "video-encode"
ENGINE_COMPUTE = "compute"
ENGINE_COPY = "copy"

ALL_ENGINES = (ENGINE_3D, ENGINE_VIDEO_DECODE, ENGINE_VIDEO_ENCODE,
               ENGINE_COMPUTE, ENGINE_COPY)

#: Packet types that run on fixed-function blocks and therefore do not
#: scale with CUDA-core count (NVENC/NVDEC are roughly constant-speed
#: across the cards the paper tests).
_FIXED_FUNCTION_TYPES = frozenset({"nvenc", "nvdec"})

#: Memory-hard mining kernels (ethash) on architectures that predate
#: the cryptocurrency boom stall between packets (DAG paging, poor
#: occupancy) — the paper's explanation for the GTX 680's *lower*
#: Ethereum-miner utilization in Fig. 10.  The gap is a fraction of the
#: packet's own service time; compute-bound sha256d is unaffected.
_UNOPTIMIZED_MINING_GAP_FRACTION = 0.17
#: ... and the throughput penalty of the unoptimized kernels themselves.
_UNOPTIMIZED_MINING_SLOWDOWN = 1.6

_MEMORY_HARD_MINING_TYPES = frozenset({"ethash"})


class _Packet:
    __slots__ = ("process_name", "pid", "packet_type", "work_ref_us",
                 "submit_time", "done", "payload")

    def __init__(self, process_name, pid, packet_type, work_ref_us,
                 submit_time, done, payload):
        self.process_name = process_name
        self.pid = pid
        self.packet_type = packet_type
        self.work_ref_us = work_ref_us
        self.submit_time = submit_time
        self.done = done
        self.payload = payload


class GpuEngine:
    """One serial execution engine of a device.

    Two command queues: high-priority packets (compositor timewarp —
    real GPUs expose preemption-capable compute queues for exactly
    this) are always executed before queued normal work, though a
    packet already executing is never preempted mid-flight.
    """

    def __init__(self, device, name):
        self.device = device
        self.name = name
        self._high = deque()
        self._normal = deque()
        self._wakeup = None
        self.busy_us = 0
        self.packets_executed = 0
        device.env.process(self._run(), name=f"gpu-{device.spec.name}-{name}")

    @property
    def queue_depth(self):
        return len(self._high) + len(self._normal)

    def enqueue(self, packet, priority=0):
        (self._high if priority > 0 else self._normal).append(packet)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _run(self):
        env = self.device.env
        session = self.device.session
        while True:
            while not self._high and not self._normal:
                self._wakeup = env.event()
                yield self._wakeup
            packet = (self._high.popleft() if self._high
                      else self._normal.popleft())
            gap, service = self.device.service_profile(
                packet.packet_type, packet.work_ref_us)
            # Engine processes are never interrupted, so both waits may
            # take the epoch virtual-clock skip (Environment.advance)
            # when nothing else would run before they fire.
            if gap and not env.advance(gap):
                yield env.timeout(gap)
            start = env.now
            # Occupancy edges bracket packet execution for streaming
            # consumers (guarded so untraced runs pay nothing).
            if session.subscribers:
                session.emit_engine_busy(packet.process_name, self.name)
            if not env.advance(service):
                yield env.timeout(service)
            self.busy_us += service
            self.packets_executed += 1
            if session.subscribers:
                session.emit_engine_idle(packet.process_name, self.name)
            session.emit_gpu_packet(
                packet.process_name, packet.pid, self.name,
                packet.packet_type, packet.submit_time, start, env.now)
            packet.done.succeed(packet.payload)


class GpuDevice:
    """A discrete GPU installed in the simulated machine."""

    def __init__(self, env, spec, session, reference=GTX_1080_TI):
        self.env = env
        self.spec = spec
        self.session = session
        self.reference = reference
        self.engines = {name: GpuEngine(self, name) for name in ALL_ENGINES}
        self.started_at = env.now

    @property
    def relative_throughput(self):
        """Compute throughput vs. the reference GTX 1080 Ti."""
        return self.spec.throughput_relative_to(self.reference)

    def service_profile(self, packet_type, work_ref_us):
        """Return ``(pre_gap_us, service_us)`` for a packet on this device."""
        if packet_type in _FIXED_FUNCTION_TYPES:
            return 0, max(1, int(work_ref_us
                                 * self.spec.video_engine_slowdown))
        service = work_ref_us / self.relative_throughput
        gap = 0
        if (packet_type in _MEMORY_HARD_MINING_TYPES
                and not self.spec.mining_optimized):
            service *= _UNOPTIMIZED_MINING_SLOWDOWN
            gap = int(service * _UNOPTIMIZED_MINING_GAP_FRACTION)
        return gap, max(1, int(math.ceil(service)))

    def submit(self, process, engine, packet_type, work_ref_us,
               payload=None, priority=0):
        """Submit a packet; returns an event firing on completion.

        ``work_ref_us`` is the packet's execution time on the reference
        GTX 1080 Ti in microseconds.  ``priority`` above zero routes it
        through the engine's preemption queue (executed ahead of any
        queued normal packets).
        """
        if engine not in self.engines:
            raise ValueError(f"unknown GPU engine {engine!r}; "
                             f"choose from {sorted(self.engines)}")
        if work_ref_us <= 0:
            raise ValueError("work_ref_us must be positive")
        done = self.env.event()
        packet = _Packet(process.name, process.pid, packet_type,
                         int(work_ref_us), self.env.now, done, payload)
        self.engines[engine].enqueue(packet, priority=priority)
        return done

    # -- device-side accounting (cross-validation vs WPA numbers) -------

    def busy_us(self, engine=None):
        """Total busy microseconds (one engine or summed over all)."""
        if engine is not None:
            return self.engines[engine].busy_us
        return sum(e.busy_us for e in self.engines.values())

    def utilization_pct(self, window_us, engine=None):
        """Device-side utilization over ``window_us`` (sum of packet
        running time / wall time, the paper's §III-B definition)."""
        if window_us <= 0:
            raise ValueError("window must be positive")
        return 100.0 * self.busy_us(engine) / window_us
