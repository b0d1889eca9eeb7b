"""VR game models (§IV-F): six titles across three headsets.

Every title runs the same engine skeleton — a main simulation thread
paced by the compositor, a job system fanning per-frame tasks to
worker threads, a render thread submitting one GPU frame packet per
tick, and an audio thread — parameterized per game.  Sensor input
(motion controllers, head tracking) arrives on a dedicated thread, the
"significantly larger number of inputs" the paper credits for VR's
TLP rise over traditional 3D gaming.

The GPU packet size is the title's *reference-GPU* frame cost; the
measured utilization emerges from packets over wall time, reproducing
the per-title Table II numbers and the per-headset contrasts of
Fig. 12 (Vive Pro's higher resolution raises GPU load; Fallout 4 is
CPU-bound at high resolution, inverting the trend).
"""

from repro.apps.base import AppModel, Category
from repro.apps.blocks import housekeeping_thread
from repro.gpu.device import ENGINE_3D
from repro.os.sync import Semaphore
from repro.os.work import WorkClass
from repro.sim import MS, SECOND
from repro.vr import HEADSETS, VIVE, Compositor


class _VrGame(AppModel):
    """Shared VR engine skeleton."""

    category = Category.VR_GAMING
    process_name = "vrgame.exe"
    #: Per-frame CPU costs (µs) and job fan-out.
    main_us = 3500
    render_us = 3500
    n_jobs = 4
    job_us = 1800
    audio_duty = 0.08
    sensor_duty = 0.12
    #: Reference-GPU frame cost (µs) at Rift/Vive resolution.
    gpu_frame_us = 7600
    #: Title is CPU-bound at high resolutions (Fallout 4's quirk).
    cpu_bound_at_high_res = False

    def __init__(self, headset=VIVE):
        if isinstance(headset, str):
            headset = HEADSETS[headset]
        self.headset = headset

    def build(self, rt):
        headset = self.headset
        process = rt.spawn_process(self.process_name)
        rng = rt.fork_rng()
        compositor = Compositor(rt, headset)
        tick_gate = Semaphore(rt.kernel, 0)
        render_gate = Semaphore(rt.kernel, 0)
        job_gates = [Semaphore(rt.kernel, 0) for _ in range(self.n_jobs)]
        compositor.register_game(tick_gate)
        rt.outputs["headset"] = headset.name

        if self.cpu_bound_at_high_res and headset.gpu_load_factor > 1.1:
            # The single-threaded simulation loop becomes the frame
            # bottleneck at the higher resolution: the GPU starves and
            # both utilization and frame rate drop (Fallout 4's Fig. 12
            # inversion).
            main_factor, render_factor, job_factor = 3.1, 1.2, 1.0
        else:
            main_factor = render_factor = job_factor = (
                1.0 + (headset.cpu_load_factor - 1.0) * 0.3)
        gpu_frame = self.gpu_frame_us * headset.gpu_load_factor
        # Double-buffered rendering: at most this many frames in flight.
        inflight = {"count": 0}

        def main_thread(ctx):
            while ctx.now < rt.end_time:
                yield ctx.wait(tick_gate.acquire())
                if ctx.now >= rt.end_time:
                    return
                # Pipelined engine: the render thread draws frame N-1
                # while the main thread simulates frame N.  Physics and
                # animation jobs run alongside the simulation; post-sim
                # jobs (cloth, audio occlusion, AI) follow it.
                pre_jobs = (len(job_gates) + 1) // 2
                for gate in job_gates[:pre_jobs]:
                    gate.release()
                render_gate.release()
                work = int(self.main_us * main_factor
                           * rng.uniform(0.85, 1.15))
                yield ctx.cpu(max(1, work), WorkClass.BALANCED)
                for gate in job_gates[pre_jobs:]:
                    gate.release()

        def render_thread(ctx):
            while ctx.now < rt.end_time:
                yield ctx.wait(render_gate.acquire())
                if ctx.now >= rt.end_time:
                    return
                work = int(self.render_us * render_factor
                           * rng.uniform(0.85, 1.15))
                yield ctx.cpu(max(1, work), WorkClass.BALANCED)
                if inflight["count"] < 2:
                    inflight["count"] += 1
                    # Occasional scene spikes (explosions, crowded
                    # views) momentarily exceed the frame budget.
                    spike = 1.6 if rng.random() < 0.03 else 1.0
                    done = rt.gpu.submit(
                        process, ENGINE_3D, "vr-frame",
                        max(1, int(gpu_frame * spike
                                   * rng.uniform(0.88, 1.12))))

                    def completed(_event):
                        inflight["count"] -= 1
                        compositor.frame_done()

                    done.callbacks.append(completed)

        def job_worker(gate):
            def body(ctx):
                while ctx.now < rt.end_time:
                    yield ctx.wait(gate.acquire())
                    if ctx.now >= rt.end_time:
                        return
                    work = int(self.job_us * job_factor
                               * rng.uniform(0.6, 1.4))
                    yield ctx.cpu(max(1, work), WorkClass.BALANCED)

            return body

        def duty_thread(duty, period):
            def body(ctx):
                while ctx.now < rt.end_time:
                    busy = max(1, int(period * duty * rng.uniform(0.7, 1.3)))
                    yield ctx.cpu(busy, WorkClass.UI)
                    yield ctx.sleep(max(1, min(period - busy,
                                               rt.end_time - ctx.now)))

            return body

        process.spawn_thread(main_thread, name="game-main")
        process.spawn_thread(render_thread, name="render")
        for index, gate in enumerate(job_gates):
            process.spawn_thread(job_worker(gate), name=f"job-{index}")
        process.spawn_thread(duty_thread(self.audio_duty, 15 * MS),
                             name="audio")
        process.spawn_thread(duty_thread(self.sensor_duty, 8 * MS),
                             name="sensor-input")
        # Asset streaming / shader-compile pool bursts.
        housekeeping_thread(rt, process, period_us=9 * SECOND,
                            burst_us=6 * MS, name="asset-streaming")


class ArizonaSunshine(_VrGame):
    """Arizona Sunshine — Horde mode zombie waves."""

    name = "arizona-sunshine"
    display_name = "Arizona Sunshine"
    version = "1.5.11046"
    process_name = "ArizonaSunshine.exe"
    main_us = 3800
    render_us = 3600
    n_jobs = 5
    job_us = 3700
    gpu_frame_us = 7580


class Fallout4VR(_VrGame):
    """Fallout 4 VR — open-world continuation from a save point.

    The heaviest simulation of the suite; CPU-bound at Vive Pro
    resolution, which the paper observes as the one title whose GPU
    utilization *drops* on the higher-resolution headset.
    """

    name = "fallout4"
    display_name = "Fallout 4 VR"
    version = "1.2"
    process_name = "Fallout4VR.exe"
    main_us = 5200
    render_us = 4200
    n_jobs = 6
    job_us = 4100
    gpu_frame_us = 9430
    cpu_bound_at_high_res = True


class RawData(_VrGame):
    """RAW Data — campaign mode, defending against humanoid robots."""

    name = "raw-data"
    display_name = "RAW Data"
    version = "1.1.0"
    process_name = "RawData.exe"
    main_us = 3100
    render_us = 3100
    n_jobs = 3
    job_us = 2700
    gpu_frame_us = 10100


class SeriousSamVR(_VrGame):
    """Serious Sam VR: BFE — survival mode."""

    name = "serious-sam"
    display_name = "Serious Sam VR BFE"
    version = "341433"
    process_name = "SeriousSamVR.exe"
    main_us = 3000
    render_us = 2600
    n_jobs = 4
    job_us = 1950
    gpu_frame_us = 8020


class SpacePirateTrainer(_VrGame):
    """Space Pirate Trainer — 'old school' wave survival."""

    name = "space-pirate"
    display_name = "Space Pirate Trainer"
    version = "1.01"
    process_name = "SpacePirateTrainer.exe"
    main_us = 3000
    render_us = 3000
    n_jobs = 3
    job_us = 2900
    gpu_frame_us = 6840


class ProjectCars2(_VrGame):
    """Project CARS 2 — quick race, default car and track."""

    name = "project-cars-2"
    display_name = "Project CARS 2"
    version = "1.7.1.0"
    process_name = "ProjectCars2.exe"
    main_us = 6200
    render_us = 5400
    n_jobs = 6
    job_us = 3700
    gpu_frame_us = 8910
