"""Tests for CPU thread priorities and GPU priority queues."""

from repro.gpu import ENGINE_3D, GpuDevice
from repro.hardware import GTX_1080_TI, paper_machine
from repro.os import Kernel, PRIORITY_HIGH, PRIORITY_NORMAL, WorkClass
from repro.sim import MS, SECOND, Environment
from repro.trace import TraceSession


class TestCpuThreadPriorities:
    def _kernel(self, cores=1):
        env = Environment()
        machine = paper_machine().with_smt(False).with_logical_cpus(cores)
        return env, Kernel(env, machine, turbo=False)

    def test_high_priority_jumps_the_ready_queue(self):
        env, kernel = self._kernel(cores=1)
        process = kernel.spawn_process("app.exe")
        order = []

        def body(tag):
            def run(ctx):
                yield ctx.sleep(MS)  # let all threads queue up
                yield ctx.cpu(10 * MS, WorkClass.UI)
                order.append(tag)

            return run

        process.spawn_thread(body("n1"), priority=PRIORITY_NORMAL)
        process.spawn_thread(body("n2"), priority=PRIORITY_NORMAL)
        process.spawn_thread(body("hi"), priority=PRIORITY_HIGH)
        env.run()
        # The high-priority thread finishes before at least one of the
        # normal threads despite being spawned last.
        assert order.index("hi") < 2

    def test_equal_priority_keeps_fifo(self):
        env, kernel = self._kernel(cores=1)
        process = kernel.spawn_process("app.exe")
        order = []

        def body(tag):
            def run(ctx):
                yield ctx.sleep(MS)
                yield ctx.cpu(5 * MS, WorkClass.UI)
                order.append(tag)

            return run

        for tag in ("a", "b", "c"):
            process.spawn_thread(body(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_high_priority_waits_lower_under_load(self):
        env, kernel = self._kernel(cores=2)
        process = kernel.spawn_process("app.exe")
        waits = {"hi": [], "lo": []}

        def spinner(bucket, priority_tag):
            def run(ctx):
                while ctx.now < SECOND // 2:
                    before = ctx.now
                    yield ctx.cpu(4 * MS, WorkClass.UI)
                    waits[bucket].append(ctx.now - before - 4 * MS)
                    yield ctx.sleep(2 * MS)

            return run

        for _ in range(6):
            process.spawn_thread(spinner("lo", 0), priority=PRIORITY_NORMAL)
        process.spawn_thread(spinner("hi", 1), priority=PRIORITY_HIGH)
        env.run(until=SECOND // 2)
        mean_hi = sum(waits["hi"]) / len(waits["hi"])
        mean_lo = sum(waits["lo"]) / len(waits["lo"])
        assert mean_hi < mean_lo


class TestGpuPriorityQueues:
    def _device(self):
        env = Environment()
        session = TraceSession(env)
        session.start()
        return env, session, GpuDevice(env, GTX_1080_TI, session)

    class _Proc:
        name, pid = "app.exe", 8

    def test_priority_packet_overtakes_queued_work(self):
        env, session, device = self._device()
        process = self._Proc()

        def submitter():
            # First packet starts executing...
            device.submit(process, ENGINE_3D, "frame", 10 * MS)
            for _ in range(2):
                device.submit(process, ENGINE_3D, "frame", 10 * MS)
            yield env.timeout(2 * MS)  # mid-flight of the first packet
            device.submit(process, ENGINE_3D, "timewarp", 1 * MS,
                          priority=1)

        env.process(submitter())
        env.run()
        trace = session.stop()
        ordered = sorted(trace.gpu_packets, key=lambda p: p.start_execution)
        # The timewarp runs second: it cannot preempt the in-flight
        # packet but beats the remaining queued frames.
        assert ordered[0].packet_type == "frame"
        assert ordered[1].packet_type == "timewarp"

    def test_priority_among_high_packets_is_fifo(self):
        env, session, device = self._device()
        process = self._Proc()

        def submitter():
            device.submit(process, ENGINE_3D, "frame", 5 * MS)
            yield env.timeout(1 * MS)
            device.submit(process, ENGINE_3D, "warp-a", 1 * MS, priority=1)
            device.submit(process, ENGINE_3D, "warp-b", 1 * MS, priority=1)

        env.process(submitter())
        env.run()
        trace = session.stop()
        ordered = [p.packet_type for p in sorted(
            trace.gpu_packets, key=lambda p: p.start_execution)]
        assert ordered == ["frame", "warp-a", "warp-b"]

    def test_queue_depth_visible(self):
        env, _session, device = self._device()
        process = self._Proc()
        for _ in range(4):
            device.submit(process, ENGINE_3D, "frame", MS)
        # Engine hasn't run yet (no env.run) — all four queued.
        assert device.engines[ENGINE_3D].queue_depth == 4


class TestCompositorTimewarp:
    def test_reprojection_emits_timewarp_packets(self):
        from repro.apps.vr_gaming import ProjectCars2
        from repro.harness import run_app_once

        machine = paper_machine().with_logical_cpus(4)
        run = run_app_once(ProjectCars2(headset="vive"), machine=machine,
                           duration_us=10 * SECOND, seed=4,
                           keep_trace=True)
        warps = [p for p in run.trace.gpu_packets
                 if p.packet_type == "timewarp"]
        assert len(warps) == run.outputs["reprojected_frames"]

    def test_no_timewarp_at_full_rate(self):
        from repro.apps.vr_gaming import SpacePirateTrainer
        from repro.harness import run_app_once

        run = run_app_once(SpacePirateTrainer(headset="vive"),
                           duration_us=10 * SECOND, seed=4,
                           keep_trace=True)
        warps = [p for p in run.trace.gpu_packets
                 if p.packet_type == "timewarp"]
        # Nearly no misses on the full machine.
        assert len(warps) < 20
