"""Multimedia playback models: QuickTime, Windows Media Player, VLC.

The paper's testbench plays a 480p and then a 1080p version of the
same video (§IV-C).  Decode runs on the GPU's fixed-function video
engine (NVDEC packets per frame), which is why the category averages
16% GPU utilization while CPU-side TLP stays near 1.4: the CPU only
demuxes, paces and composites.  VLC does additional software
filtering, giving it the highest CPU footprint of the three.
"""

from repro.apps.base import AppModel, Category
from repro.apps.blocks import duty_cycle_thread, housekeeping_thread
from repro.gpu.device import ENGINE_3D, ENGINE_VIDEO_DECODE
from repro.os.work import WorkClass
from repro.sim import MS

#: Playback frame rate of the test clip.
PLAYBACK_FPS = 30


class _MediaPlayer(AppModel):
    """Shared demux -> decode -> present pipeline."""

    category = Category.MULTIMEDIA
    process_name = "player.exe"
    #: NVDEC packet per frame at 480p / 1080p (reference-GPU µs).
    decode_480p_us = int(3.4 * MS)
    decode_1080p_us = int(7.2 * MS)
    #: CPU cost per frame on the pacing/demux thread.
    demux_frame_us = int(0.7 * MS)
    present_frame_us = int(0.9 * MS)
    #: Duty of the UI/progress thread.
    ui_duty = 0.015
    #: Per-frame CPU cost of pipeline stage threads woken every frame
    #: (video output conversion, software filters, audio mixing...).
    #: Each entry spawns a thread: (name, per-frame µs).
    frame_workers = ()

    def build(self, rt):
        process = rt.spawn_process(self.process_name)
        kernel = rt.kernel
        rng = rt.fork_rng()
        frame_period = 1_000_000 // PLAYBACK_FPS
        rt.outputs["frames_played"] = 0

        from repro.automation import InputScript
        from repro.os.sync import Semaphore

        # The tester opens the 480p file, then the 1080p version of
        # the same video (§IV-C).  Driving this through the input layer
        # makes the §III-D automation-vs-manual comparison meaningful
        # for players: a human starts playback later and less
        # consistently than AutoIt does.
        script = (InputScript()
                  .wait(400 * MS).click("open-480p")
                  .wait(rt.duration_us // 2).click("open-1080p"))
        input_queue = rt.driver.play(script)
        playing = {"quality": None}
        started = Semaphore(kernel, 0)

        def control_thread(ctx):
            while True:
                action = yield ctx.wait(input_queue.get())
                if action is None:
                    return
                yield ctx.cpu(6 * MS, WorkClass.UI)  # open-file dialog
                first = playing["quality"] is None
                playing["quality"] = action.label.split("-")[1]
                if first:
                    started.release()

        process.spawn_thread(control_thread, name="control")

        stage_gates = []

        def stage_thread(cost):
            gate = Semaphore(kernel, 0)
            stage_gates.append(gate)

            def body(ctx):
                while True:
                    yield ctx.wait(gate.acquire())
                    if ctx.now >= rt.end_time:
                        return
                    yield ctx.cpu(max(1, int(cost * rng.uniform(0.8, 1.2))),
                                  WorkClass.MEMORY_BOUND)

            return body

        for worker_name, cost in self.frame_workers:
            process.spawn_thread(stage_thread(cost), name=worker_name)

        def playback(ctx):
            yield ctx.wait(started.acquire())
            while ctx.now < rt.end_time:
                frame_start = ctx.now
                cost = (self.decode_480p_us if playing["quality"] == "480p"
                        else self.decode_1080p_us)
                yield ctx.cpu(self.demux_frame_us, WorkClass.MEMORY_BOUND)
                decode = rt.gpu.submit(
                    process, ENGINE_VIDEO_DECODE, "nvdec",
                    max(1, int(cost * rng.uniform(0.85, 1.15))))
                yield ctx.wait(decode)
                for gate in stage_gates:  # wake pipeline stages
                    gate.release()
                rt.gpu.submit(process, ENGINE_3D, "present",
                              int(0.3 * MS))
                yield ctx.cpu(self.present_frame_us, WorkClass.UI)
                rt.outputs["frames_played"] += 1
                remaining = frame_period - (ctx.now - frame_start)
                if remaining > 0 and ctx.now < rt.end_time:
                    yield ctx.sleep(min(remaining,
                                        max(1, rt.end_time - ctx.now)))
            for gate in stage_gates:
                gate.release()

        process.spawn_thread(playback, name="playback")
        duty_cycle_thread(rt, process, self.ui_duty,
                          work_class=WorkClass.UI, name="ui")
        housekeeping_thread(rt, process, period_us=26_000_000,
                            burst_us=4_500)


class QuickTime(_MediaPlayer):
    """QuickTime Player 7.7.9 — the leanest pipeline of the three."""

    name = "quicktime"
    display_name = "QuickTime Player"
    version = "7.7.9"
    process_name = "QuickTimePlayer.exe"
    decode_480p_us = int(3.4 * MS)
    decode_1080p_us = int(7.0 * MS)
    ui_duty = 0.01
    frame_workers = (("video-out", int(0.25 * MS)),)


class WindowsMediaPlayer(_MediaPlayer):
    """Windows Media Player 12.0."""

    name = "wmp"
    display_name = "Windows Media Player"
    version = "12.0"
    process_name = "wmplayer.exe"
    decode_480p_us = int(3.3 * MS)
    decode_1080p_us = int(6.9 * MS)
    ui_duty = 0.03
    frame_workers = (("mf-session", int(0.55 * MS)),
                     ("audio", int(0.3 * MS)))


class VlcMediaPlayer(_MediaPlayer):
    """VLC Media Player 3.0.3 — software filter chain on top of NVDEC."""

    name = "vlc"
    display_name = "VLC Media Player"
    version = "3.0.3"
    process_name = "vlc.exe"
    decode_480p_us = int(3.2 * MS)
    decode_1080p_us = int(6.7 * MS)
    demux_frame_us = int(1.1 * MS)
    present_frame_us = int(1.4 * MS)
    ui_duty = 0.04
    frame_workers = (("video-out", int(2.6 * MS)),
                     ("sw-filter", int(1.7 * MS)),
                     ("audio", int(0.8 * MS)))
