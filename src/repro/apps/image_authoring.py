"""Image authoring models: Photoshop, Maya 3D, AutoCAD.

The paper's testbenches (§IV-A):

* **Photoshop** — five custom filters applied serially to a 100-MP
  photograph.  Filter rendering fans out across every logical CPU
  (Fig. 6 shows it reaching the instantaneous maximum of 12), while
  the interaction between filters is single-threaded.
* **Maya 3D** — open a complex model, smooth it, software-render with
  raytracing (highly parallel), hardware-render with fog/motion blur
  (GPU), then camera manipulation.
* **AutoCAD** — import a floorplan, pan/zoom/draw/fillet/mirror/text:
  a classically single-threaded CAD interaction loop on top of a
  GPU-rendered viewport.
"""

from repro.apps.base import AppModel, Category
from repro.apps.blocks import (compute, fan_out, gpu_stream_thread,
                               housekeeping_thread, ui_pump)
from repro.automation import InputScript
from repro.gpu.device import ENGINE_3D
from repro.os.work import WorkClass
from repro.sim import MS, SECOND


class Photoshop(AppModel):
    """Adobe Photoshop CC applying 5 filters to a 100-MP image.

    Each filter is two interactions: opening the filter dialog
    (``filter-N``) and confirming it (``enter``), which runs the
    serial data preparation and then fans the render across every
    logical CPU.

    ``speculative=True`` enables the paper's §VII suggestion: while
    the user configures the dialog, a prefetch thread speculatively
    pulls the filter's working set on-chip ("the core can start
    fetching off-chip data locally, while the user is specifying
    filter configurations"), shortening the serial phase of the render
    when the prediction is right — at the cost of wasted work when it
    is not.
    """

    name = "photoshop"
    display_name = "Adobe Photoshop CC"
    version = "CC 2018"
    category = Category.IMAGE_AUTHORING
    #: Nominal CPU work per filter render, split across all cores.
    filter_work_us = 24 * SECOND
    #: Serial pre/post processing around each parallel render.
    filter_serial_us = 1400 * MS
    n_filters = 5
    #: Probability a speculative prefetch guessed the right filter.
    speculation_accuracy = 0.8
    #: Serial-phase share remaining after a correct prefetch.
    prefetched_serial_share = 0.35

    def __init__(self, speculative=False):
        self.speculative = speculative

    def build(self, rt):
        process = rt.spawn_process("Photoshop.exe")
        rng = rt.fork_rng()
        script = InputScript()
        think = max(1, (rt.duration_us - 42 * SECOND) // (self.n_filters + 1))
        for index in range(self.n_filters):
            script.wait(think).click(f"filter-{index}").wait(600 * MS)
            script.key("enter")
        rt.outputs["filters_rendered"] = 0
        rt.outputs["speculations_wasted"] = 0
        pending = {}

        def prefetch_body(ctx):
            yield from compute(ctx, int(self.filter_serial_us * 0.8),
                               WorkClass.MEMORY_BOUND, chunk_us=15 * MS)

        def handle(ctx, action):
            if action.label.startswith("filter"):
                yield ctx.cpu(int(400 * MS), WorkClass.UI)  # open dialog
                pending["filter"] = action.label
                pending["prefetched"] = False
                if self.speculative:
                    if rng.random() < self.speculation_accuracy:
                        pending["prefetched"] = True
                    else:
                        rt.outputs["speculations_wasted"] += 1
                    process.spawn_thread(prefetch_body, name="prefetch")
            elif action.label == "enter" and "filter" in pending:
                serial = self.filter_serial_us
                if pending.pop("prefetched", False):
                    serial = int(serial * self.prefetched_serial_share)
                filter_label = pending.pop("filter")
                yield from compute(ctx, serial, WorkClass.MEMORY_BOUND)
                workers = rt.machine.logical_cpus
                work = int(self.filter_work_us * rng.uniform(0.9, 1.1))
                done = fan_out(rt, process, work, workers,
                               WorkClass.FU_BOUND, chunk_us=30 * MS,
                               name=f"tile-{filter_label}")
                yield ctx.wait(done)
                yield from compute(ctx, self.filter_serial_us // 2,
                                   WorkClass.MEMORY_BOUND)
                rt.outputs["filters_rendered"] += 1

        ui_pump(rt, process, script, handle)
        gpu_stream_thread(rt, process, 0.016, packet_ref_us=3 * MS,
                          packet_type="canvas-composite", name="gpu-canvas")


class Maya3D(AppModel):
    """Autodesk Maya: smooth, software raytrace, hardware render, camera."""

    name = "maya"
    display_name = "Autodesk Maya 3D"
    version = "2019"
    category = Category.IMAGE_AUTHORING
    raytrace_work_us = 12 * SECOND
    smooth_work_us = 4 * SECOND

    def build(self, rt):
        process = rt.spawn_process("maya.exe")
        script = (InputScript()
                  .wait(2 * SECOND).click("open-model")
                  .wait(4 * SECOND).click("smooth")
                  .wait(6 * SECOND).click("software-render")
                  .wait(18 * SECOND).click("hardware-render")
                  .wait(10 * SECOND).drag("rotate-camera", 2 * SECOND)
                  .drag("pan-camera", 2 * SECOND)
                  .drag("zoom-camera", 2 * SECOND))
        script = script.stretched_to(int(rt.duration_us * 0.95))

        def handle(ctx, action):
            if action.label == "open-model":
                yield from compute(ctx, 3 * SECOND, WorkClass.MEMORY_BOUND)
            elif action.label == "smooth":
                yield from compute(ctx, 1 * SECOND, WorkClass.BALANCED)
                done = fan_out(rt, process, self.smooth_work_us, 4,
                               WorkClass.BALANCED, name="smooth")
                yield ctx.wait(done)
            elif action.label == "software-render":
                # Scene translation / BVH build is serial before the
                # raytrace fans out to every core.
                yield from compute(ctx, 4 * SECOND, WorkClass.MEMORY_BOUND)
                done = fan_out(rt, process, self.raytrace_work_us,
                               rt.machine.logical_cpus,
                               WorkClass.FU_BOUND, name="raytrace")
                yield ctx.wait(done)
                yield from compute(ctx, 1 * SECOND, WorkClass.UI)
            elif action.label == "hardware-render":
                # Fog + motion blur + AA on the GPU; CPU feeds batches.
                batches = max(10, 50 * rt.duration_us // (60 * SECOND))
                for _ in range(batches):
                    yield ctx.cpu(30 * MS, WorkClass.UI)
                    done = rt.gpu.submit(process, ENGINE_3D, "hw-render",
                                         110 * MS)
                    yield ctx.wait(done)
            else:  # camera manipulation: light CPU + viewport redraws
                for _ in range(15):
                    yield ctx.cpu(25 * MS, WorkClass.UI)
                    rt.gpu.submit(process, ENGINE_3D, "viewport", 8 * MS)
                    yield ctx.sleep(60 * MS)

        ui_pump(rt, process, script, handle)


class AutoCad(AppModel):
    """Autodesk AutoCAD LT: floorplan editing on a GPU viewport."""

    name = "autocad"
    display_name = "Autodesk AutoCAD LT"
    version = "LT 2019"
    category = Category.IMAGE_AUTHORING

    def build(self, rt):
        process = rt.spawn_process("acad.exe")
        operations = ("import-floorplan", "pan", "zoom", "draw-line",
                      "fillet", "mirror", "enter-text")
        script = InputScript()
        for name in operations:
            script.wait(900 * MS)
            script.drag(name, 700 * MS)
        script = script.repeated(6, gap_us=1200 * MS)
        script = script.stretched_to(int(rt.duration_us * 0.95))

        def handle(ctx, action):
            # Geometry ops are serial in the command pipeline.
            work = int(250 * MS) if action.label == "import-floorplan" \
                else int(90 * MS)
            yield from compute(ctx, work, WorkClass.UI, chunk_us=15 * MS)
            if action.label in ("fillet", "mirror"):
                # A short regen fans to a helper thread.
                done = fan_out(rt, process, 130 * MS, 2,
                               WorkClass.BALANCED, name="regen")
                yield ctx.wait(done)
            rt.gpu.submit(process, ENGINE_3D, "viewport-redraw", 10 * MS)

        ui_pump(rt, process, script, handle)
        housekeeping_thread(rt, process)
        # Continuous viewport refresh keeps the GPU near 9%.
        gpu_stream_thread(rt, process, 0.082, packet_ref_us=6 * MS,
                          packet_type="viewport", name="gpu-viewport")
