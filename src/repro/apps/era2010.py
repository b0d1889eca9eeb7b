"""Era-2010 application models — re-simulating Blake et al.'s testbed.

The comparison figures (Figs. 2-3) use the 2010 study's numbers as
data.  As an extension, this module models the *2010-era versions* of
the lineages on the 2010 machine (dual-socket Xeon, 8C/16T, GTX 285,
``repro.hardware.machine_2010``), so the historical column can be
regenerated by simulation and validated against the digitized dataset
(``benchmarks/bench_ext_era2010.py``).

Era-defining structural differences captured here:

* **3D games** ran a main + render thread with at most one worker —
  TLP under 2 despite 8 cores.
* **Media players** decoded in *software* (no NVDEC): a heavy CPU
  decode thread plus a GPU overlay blit, hence the era's higher GPU
  utilization on a far weaker card.
* **Firefox 3.5** was single-process; navigating triggered garbage
  collection, which is why Blake et al. measured *higher* TLP for
  single-tab browsing — the reversal the 2018 paper observes.
* **HandBrake 0.9** scaled to roughly 8 threads with heavier
  serialization than 1.1.0.
* **Photoshop CS4** parallelized filters over only a few threads.
"""

from repro.apps.base import AppModel, Category
from repro.apps.blocks import (
    compute,
    duty_cycle_thread,
    fan_out,
    gpu_stream_thread,
    ui_pump,
)
from repro.automation import InputScript
from repro.data.historical import BLAKE_2010_GPU, BLAKE_2010_TLP
from repro.gpu.device import ENGINE_3D
from repro.os.work import WorkClass
from repro.sim import MS, SECOND


class _Era2010App(AppModel):
    """Marker base: models meant for the 2010 machine (16 LCPUs)."""

    era = 2010


class _Game3D(_Era2010App):
    """A 2008-vintage 3D game: main + render + one worker at 60 FPS."""

    category = Category.VR_GAMING  # the lineage Fig. 2 groups them with
    process_name = "game.exe"
    main_us = 6500
    render_us = 5200
    worker_us = 2400
    #: Per-frame GPU work in reference-GPU µs, sized for the GTX 285.
    gpu_frame_ref_us = 340

    def build(self, rt):
        process = rt.spawn_process(self.process_name)
        rng = rt.fork_rng()
        frame_period = SECOND // 60

        from repro.os.sync import Semaphore

        render_gate = Semaphore(rt.kernel, 0)
        worker_gate = Semaphore(rt.kernel, 0)

        def main_thread(ctx):
            while ctx.now < rt.end_time:
                start = ctx.now
                render_gate.release()
                worker_gate.release()
                yield ctx.cpu(max(1, int(self.main_us
                                         * rng.uniform(0.85, 1.15))),
                              WorkClass.BALANCED)
                elapsed = ctx.now - start
                if elapsed < frame_period:
                    yield ctx.sleep(min(frame_period - elapsed,
                                        max(1, rt.end_time - ctx.now)))
            render_gate.release()
            worker_gate.release()

        def render_thread(ctx):
            while ctx.now < rt.end_time:
                yield ctx.wait(render_gate.acquire())
                if ctx.now >= rt.end_time:
                    return
                yield ctx.cpu(max(1, int(self.render_us
                                         * rng.uniform(0.85, 1.15))),
                              WorkClass.BALANCED)
                rt.gpu.submit(process, ENGINE_3D, "frame",
                              max(1, int(self.gpu_frame_ref_us
                                         * rng.uniform(0.9, 1.1))))

        def worker_thread(ctx):
            while ctx.now < rt.end_time:
                yield ctx.wait(worker_gate.acquire())
                if ctx.now >= rt.end_time:
                    return
                yield ctx.cpu(max(1, int(self.worker_us
                                         * rng.uniform(0.6, 1.4))),
                              WorkClass.BALANCED)

        process.spawn_thread(main_thread, name="game-main")
        process.spawn_thread(render_thread, name="render")
        process.spawn_thread(worker_thread, name="worker")
        duty_cycle_thread(rt, process, 0.05, name="audio")


class Crysis(_Game3D):
    """Crysis — the era's GPU stress test."""

    name = "crysis"
    display_name = "Crysis"
    version = "1.2 (2010 testbed)"
    process_name = "Crysis.exe"
    main_us = 7200
    render_us = 6000
    worker_us = 1900
    gpu_frame_ref_us = 392


class CallOfDuty4(_Game3D):
    """Call of Duty 4: Modern Warfare."""

    name = "cod4"
    display_name = "Call of Duty 4"
    version = "1.7 (2010 testbed)"
    process_name = "iw3mp.exe"
    main_us = 6200
    render_us = 5000
    worker_us = 1100
    gpu_frame_ref_us = 336


class Bioshock(_Game3D):
    """BioShock."""

    name = "bioshock"
    display_name = "Bioshock"
    version = "1.1 (2010 testbed)"
    process_name = "Bioshock.exe"
    main_us = 6000
    render_us = 4600
    worker_us = 700
    gpu_frame_ref_us = 355


class PhotoshopCs4(_Era2010App):
    """Photoshop CS4: filters parallelize over only a few threads."""

    name = "photoshop-cs4"
    display_name = "Photoshop CS4"
    version = "CS4 (2010 testbed)"
    category = Category.IMAGE_AUTHORING

    def build(self, rt):
        process = rt.spawn_process("Photoshop.exe")
        rng = rt.fork_rng()
        script = InputScript()
        think = max(1, (rt.duration_us - 30 * SECOND) // 6)
        for index in range(5):
            script.wait(think).click(f"filter-{index}")

        def handle(ctx, action):
            yield ctx.cpu(int(350 * MS), WorkClass.UI)
            done = fan_out(rt, process,
                           int(6 * SECOND * rng.uniform(0.9, 1.1)),
                           3, WorkClass.FU_BOUND, name="filter")
            yield ctx.wait(done)
            yield from compute(ctx, int(1.2 * SECOND), WorkClass.MEMORY_BOUND)

        ui_pump(rt, process, script, handle)
        gpu_stream_thread(rt, process, 0.0022, packet_ref_us=1 * MS,
                          packet_type="canvas", name="gpu-canvas")


class Maya2010(_Era2010App):
    """Maya 2010: raytrace over 8 threads, hardware render on GTX 285."""

    name = "maya-2010"
    display_name = "Maya3D 2010"
    version = "2010 (2010 testbed)"
    category = Category.IMAGE_AUTHORING

    def build(self, rt):
        process = rt.spawn_process("maya.exe")
        script = (InputScript()
                  .wait(2 * SECOND).click("open-model")
                  .wait(5 * SECOND).click("software-render")
                  .wait(18 * SECOND).click("hardware-render")
                  .wait(8 * SECOND).drag("camera", 3 * SECOND))
        script = script.stretched_to(int(rt.duration_us * 0.95))

        def handle(ctx, action):
            if action.label == "open-model":
                yield from compute(ctx, 3 * SECOND, WorkClass.MEMORY_BOUND)
            elif action.label == "software-render":
                yield from compute(ctx, 3 * SECOND, WorkClass.MEMORY_BOUND)
                done = fan_out(rt, process, 19 * SECOND, 8,
                               WorkClass.FU_BOUND, name="raytrace")
                yield ctx.wait(done)
            elif action.label == "hardware-render":
                for _ in range(40):
                    yield ctx.cpu(35 * MS, WorkClass.UI)
                    done = rt.gpu.submit(process, ENGINE_3D, "hw-render",
                                         int(7.5 * MS))
                    yield ctx.wait(done)
            else:
                for _ in range(15):
                    yield ctx.cpu(22 * MS, WorkClass.UI)
                    rt.gpu.submit(process, ENGINE_3D, "viewport",
                                  int(0.6 * MS))
                    yield ctx.sleep(60 * MS)

        ui_pump(rt, process, script, handle)


class _Office2007(_Era2010App):
    """Office 2007-era single-threaded editing with a light helper."""

    category = Category.OFFICE
    process_name = "office.exe"
    op_serial_us = 220 * MS
    helper_duty = 0.04
    gpu_load = 0.0012
    render_overlap = 0.3

    def build(self, rt):
        process = rt.spawn_process(self.process_name)
        rng = rt.fork_rng()
        script = InputScript()
        for index in range(7):
            script.wait(800 * MS).click(f"op-{index}")
        script = script.repeated(7, gap_us=1500 * MS)
        script = script.stretched_to(int(rt.duration_us * 0.96))

        from repro.os.sync import MessageQueue

        render_queue = MessageQueue(rt.kernel)

        def render_thread(ctx):
            while True:
                work = yield ctx.wait(render_queue.get())
                if work is None:
                    return
                yield from compute(ctx, work, WorkClass.UI)

        def handle(ctx, action):
            work = int(self.op_serial_us * rng.uniform(0.7, 1.3))
            yield ctx.wait(render_queue.put(
                max(1, int(work * self.render_overlap))))
            yield from compute(ctx, work, WorkClass.UI, chunk_us=15 * MS)

        process.spawn_thread(render_thread, name="doc-render")
        ui_pump(rt, process, script, handle)
        duty_cycle_thread(rt, process, self.helper_duty, name="helper")
        if self.gpu_load:
            gpu_stream_thread(rt, process, self.gpu_load,
                              packet_ref_us=int(0.5 * MS),
                              packet_type="gdi-blit", name="gpu")


class AcrobatReader9(_Office2007):
    name = "acrobat-9"
    display_name = "AdobeReader 9.0"
    version = "9.0 (2010 testbed)"
    process_name = "AcroRd32.exe"
    op_serial_us = 320 * MS
    helper_duty = 0.08
    gpu_load = 0.00085
    render_overlap = 0.45


class PowerPoint2007(_Office2007):
    name = "powerpoint-2007"
    display_name = "PowerPoint 2007"
    version = "2007 (2010 testbed)"
    process_name = "POWERPNT.EXE"
    op_serial_us = 240 * MS
    gpu_load = 0.0016
    render_overlap = 0.35


class Word2007(_Office2007):
    name = "word-2007"
    display_name = "Word 2007"
    version = "2007 (2010 testbed)"
    process_name = "WINWORD.EXE"
    op_serial_us = 200 * MS
    gpu_load = 0.0011
    render_overlap = 0.25


class Excel2007(_Office2007):
    name = "excel-2007"
    display_name = "Excel 2007"
    version = "2007 (2010 testbed)"
    process_name = "EXCEL.EXE"
    op_serial_us = 230 * MS
    gpu_load = 0.0013
    render_overlap = 0.35


class StreetAndTrips2010(_Office2007):
    """Microsoft Streets & Trips 2010 — GDI-heavy map rendering.

    The one 2010 office-suite member with non-trivial GPU use: map
    panning redraws through the display pipeline continuously.
    """

    name = "street-trips-2010"
    display_name = "Street & Trips 2010"
    version = "2010 (2010 testbed)"
    process_name = "streets.exe"
    op_serial_us = 380 * MS
    helper_duty = 0.06
    gpu_load = 0.0046
    render_overlap = 0.4


class _LegacyPlayer(_Era2010App):
    """2009-era playback: software decode + GPU overlay blit."""

    category = Category.MULTIMEDIA
    process_name = "player.exe"
    decode_frame_us = 9 * MS       # software H.264 decode per frame
    overlay_ref_us = 128           # overlay blit sized for GTX 285
    audio_frame_us = int(2.2 * MS)
    convert_frame_us = int(5.5 * MS)

    def build(self, rt):
        process = rt.spawn_process(self.process_name)
        rng = rt.fork_rng()
        frame_period = SECOND // 30

        from repro.os.sync import Semaphore

        audio_gate = Semaphore(rt.kernel, 0)

        def audio_thread(ctx):
            while ctx.now < rt.end_time:
                yield ctx.wait(audio_gate.acquire())
                if ctx.now >= rt.end_time:
                    return
                yield ctx.cpu(max(1, int(self.audio_frame_us
                                         * rng.uniform(0.8, 1.2))),
                              WorkClass.UI)

        convert_gate = Semaphore(rt.kernel, 0)

        def convert_thread(ctx):
            while ctx.now < rt.end_time:
                yield ctx.wait(convert_gate.acquire())
                if ctx.now >= rt.end_time:
                    return
                yield ctx.cpu(max(1, int(self.convert_frame_us
                                         * rng.uniform(0.8, 1.2))),
                              WorkClass.MEMORY_BOUND)

        process.spawn_thread(convert_thread, name="yuv-convert")

        def playback(ctx):
            while ctx.now < rt.end_time:
                start = ctx.now
                audio_gate.release()
                convert_gate.release()
                yield ctx.cpu(max(1, int(self.decode_frame_us
                                         * rng.uniform(0.85, 1.15))),
                              WorkClass.FU_BOUND)
                rt.gpu.submit(process, ENGINE_3D, "overlay-blit",
                              max(1, int(self.overlay_ref_us
                                         * rng.uniform(0.9, 1.1))))
                elapsed = ctx.now - start
                if elapsed < frame_period:
                    yield ctx.sleep(min(frame_period - elapsed,
                                        max(1, rt.end_time - ctx.now)))
            audio_gate.release()
            convert_gate.release()

        process.spawn_thread(playback, name="decode")
        process.spawn_thread(audio_thread, name="audio")
        duty_cycle_thread(rt, process, 0.03, name="ui")


class QuickTime76(_LegacyPlayer):
    name = "quicktime-76"
    display_name = "Quicktime 7.6"
    version = "7.6 (2010 testbed)"
    process_name = "QuickTimePlayer.exe"
    decode_frame_us = int(8.5 * MS)
    overlay_ref_us = 268


class Wmp2010(_LegacyPlayer):
    name = "wmp-2010"
    display_name = "Win Media Player (2010)"
    version = "12 (2010 testbed)"
    process_name = "wmplayer.exe"
    decode_frame_us = int(9.5 * MS)
    overlay_ref_us = 288


class PowerDirectorV7(_Era2010App):
    """PowerDirector v7: export over 4 worker threads."""

    name = "powerdirector-v7"
    display_name = "PowerDirector v7"
    version = "v7 (2010 testbed)"
    category = Category.VIDEO_AUTHORING

    def build(self, rt):
        process = rt.spawn_process("PowerDirector.exe")
        rng = rt.fork_rng()
        edit_span = int(rt.duration_us * 0.45)
        script = InputScript()
        for index in range(12):
            script.wait(900 * MS).drag(f"edit-{index}", 500 * MS)
        script = script.stretched_to(int(edit_span * 0.95))

        def handle(ctx, action):
            yield from compute(ctx, int(170 * MS * rng.uniform(0.7, 1.3)),
                               WorkClass.UI)

        def exporter(ctx):
            yield ctx.sleep(edit_span)
            while ctx.now < rt.end_time:
                done = fan_out(rt, process,
                               int(4.6 * SECOND * rng.uniform(0.9, 1.1)),
                               4, WorkClass.FU_BOUND, name="export")
                yield ctx.wait(done)
                yield from compute(ctx, 400 * MS, WorkClass.FU_BOUND)

        ui_pump(rt, process, script, handle)
        process.spawn_thread(exporter, name="export")
        gpu_stream_thread(rt, process, 0.0034, packet_ref_us=1 * MS,
                          packet_type="preview", name="gpu-preview")


class HandBrake09(_Era2010App):
    """HandBrake 0.9: scales to ~8 threads with heavy serialization."""

    name = "handbrake-09"
    display_name = "HandBrake 0.9"
    version = "0.9 (2010 testbed)"
    category = Category.VIDEO_TRANSCODING

    def build(self, rt):
        from repro.apps.transcoding import HandBrake

        legacy = HandBrake(workers=min(8, rt.machine.logical_cpus))
        legacy.frame_cost_us = 240 * MS
        legacy.batch_frames = 24
        legacy.mux_us = 520 * MS
        legacy.preview_gpu_utilization = 0.0037  # sized for the GTX 285
        legacy.process_name = "HandBrake09.exe"
        legacy.build(rt)
        rt.process_names.add("HandBrake09.exe")


class Firefox35(_Era2010App):
    """Firefox 3.5: single process; GC bursts when navigating.

    Blake et al. found *single-tab* browsing had higher TLP than
    multi-tab in 2010 because replacing a page in the same tab drove
    garbage collection — the opposite of the 2018 result.
    """

    name = "firefox-35"
    display_name = "Firefox 3.5"
    version = "3.5 (2010 testbed)"
    category = Category.WEB_BROWSING

    def __init__(self, test="multi-tab"):
        if test not in ("multi-tab", "single-tab"):
            raise ValueError("firefox-35 supports multi-tab/single-tab")
        self.test = test

    def build(self, rt):
        process = rt.spawn_process("firefox.exe")
        rng = rt.fork_rng()
        sites = ("youtube", "espn", "cnn", "bestbuy", "flash-game")
        span = rt.duration_us // len(sites)

        def navigator(ctx):
            for _site in sites:
                yield from compute(ctx, int(700 * MS * rng.uniform(0.8, 1.2)),
                                   WorkClass.MEMORY_BOUND, chunk_us=15 * MS)
                if self.test == "single-tab":
                    # Replacing the page triggers a mark-and-sweep GC:
                    # the main thread scans while helper threads sweep,
                    # the concurrency bump behind Blake et al.'s
                    # higher single-tab TLP.
                    done = fan_out(rt, process, int(2.4 * SECOND), 2,
                                   WorkClass.MEMORY_BOUND, name="gc")
                    yield from compute(ctx, int(1.2 * SECOND),
                                       WorkClass.MEMORY_BOUND)
                    yield ctx.wait(done)
                budget = span
                while budget > 0 and ctx.now < rt.end_time:
                    busy = int(60 * MS * rng.uniform(0.6, 1.4))
                    helpers = fan_out(rt, process, int(busy * 1.4), 2,
                                      WorkClass.BALANCED,
                                      name="layout-helper")
                    yield ctx.cpu(max(1, busy), WorkClass.BALANCED)
                    yield ctx.wait(helpers)
                    rt.gpu.submit(process, ENGINE_3D, "paint",
                                  int(1.15 * MS))
                    pause = int(240 * MS * rng.uniform(0.8, 1.2))
                    yield ctx.sleep(max(1, min(pause,
                                               rt.end_time - ctx.now)))
                    budget -= busy + pause
                if ctx.now >= rt.end_time:
                    return

        process.spawn_thread(navigator, name="browser-main")
        duty_cycle_thread(rt, process, 0.06, name="network")


#: Era-2010 registry (kept separate from the 30-app 2018 suite).
ERA2010_REGISTRY = {cls.name: cls for cls in (
    Crysis, CallOfDuty4, Bioshock,
    PhotoshopCs4, Maya2010,
    AcrobatReader9, PowerPoint2007, Word2007, Excel2007,
    StreetAndTrips2010,
    QuickTime76, Wmp2010,
    PowerDirectorV7, HandBrake09,
    Firefox35,
)}

#: Blake et al. 2010 values these models are validated against, read
#: from the one copy in :mod:`repro.data.historical` by each model's
#: display name: name -> (TLP, GPU util %).
ERA2010_REFERENCE = {
    name: (BLAKE_2010_TLP[cls.display_name],
           BLAKE_2010_GPU[cls.display_name])
    for name, cls in ERA2010_REGISTRY.items()}
