"""Video authoring models: CyberLink PowerDirector and Premiere Pro.

Both testbenches import three clips, add transitions/titles/color
correction, and render the project (§IV-D).  The run therefore has two
phases: an interactive timeline-editing phase (low TLP, light GPU
preview) and an export phase (parallel encode workers, optional GPU
assist).

Premiere Pro's CUDA toggle drives the paper's Fig. 9: exporting with
CUDA raises GPU utilization (much more on the GTX 680 than on the
1080 Ti) and slightly lowers the instantaneous TLP, without changing
the runtime much.
"""

from repro.apps.base import AppModel, Category
from repro.apps.blocks import (compute, fan_out, gpu_stream_thread,
                               housekeeping_thread, ui_pump)
from repro.automation import InputScript
from repro.gpu.device import ENGINE_COMPUTE, ENGINE_VIDEO_ENCODE
from repro.os.work import WorkClass
from repro.sim import MS, SECOND


class _VideoEditor(AppModel):
    """Shared edit-then-export skeleton."""

    category = Category.VIDEO_AUTHORING
    process_name = "editor.exe"
    #: Fraction of the run spent editing before the export starts.
    edit_fraction = 0.5
    #: Number of encode workers during export and their total work per
    #: export "segment" (nominal µs).
    export_workers = 6
    segment_work_us = 4 * SECOND
    segment_serial_us = 600 * MS
    #: GPU preview load while editing.
    preview_gpu = 0.03
    #: CUDA export settings.
    use_cuda = False
    cuda_cpu_share = 0.8
    cuda_kernel_us = int(2.5 * MS)
    nvenc_us = 0

    def __init__(self, use_cuda=None):
        if use_cuda is not None:
            self.use_cuda = use_cuda

    def build(self, rt):
        process = rt.spawn_process(self.process_name)
        rng = rt.fork_rng()
        edit_ops = ("import-clip-1", "import-clip-2", "import-clip-3",
                    "add-transition", "add-title", "color-correct")
        edit_span = int(rt.duration_us * self.edit_fraction)
        script = InputScript()
        for label in edit_ops:
            script.wait(600 * MS)
            script.drag(label, 500 * MS)
        script = script.repeated(4, gap_us=800 * MS).stretched_to(
            int(edit_span * 0.95))
        rt.outputs["segments_exported"] = 0
        cuda = self.use_cuda and rt.machine.gpu.has_nvenc

        def handle(ctx, action):
            work = int(180 * MS * rng.uniform(0.7, 1.3))
            yield from compute(ctx, work, WorkClass.UI, chunk_us=15 * MS)
            if action.label.startswith("import"):
                done = fan_out(rt, process, 500 * MS, 3,
                               WorkClass.MEMORY_BOUND, name="thumbnail")
                yield ctx.wait(done)

        def exporter(ctx):
            yield ctx.sleep(edit_span)
            share = self.cuda_cpu_share if cuda else 1.0
            while ctx.now < rt.end_time:
                work = int(self.segment_work_us * share
                           * rng.uniform(0.9, 1.1))
                done = fan_out(rt, process, work, self.export_workers,
                               WorkClass.FU_BOUND, name="export")
                if cuda:
                    for _ in range(8):
                        rt.gpu.submit(process, ENGINE_COMPUTE,
                                      "cuda-effect", self.cuda_kernel_us)
                if self.nvenc_us:
                    rt.gpu.submit(process, ENGINE_VIDEO_ENCODE, "nvenc",
                                  self.nvenc_us)
                yield ctx.wait(done)
                yield from compute(ctx, self.segment_serial_us,
                                   WorkClass.FU_BOUND)
                rt.outputs["segments_exported"] += 1

        ui_pump(rt, process, script, handle)
        process.spawn_thread(exporter, name="export-pipeline")
        housekeeping_thread(rt, process)
        if self.preview_gpu:
            gpu_stream_thread(rt, process, self.preview_gpu,
                              packet_ref_us=4 * MS, packet_type="preview",
                              name="gpu-preview")


class PowerDirector(_VideoEditor):
    """CyberLink PowerDirector v16 — consumer editor with GPU encode."""

    name = "powerdirector"
    display_name = "CyberLink PowerDirector"
    version = "v16"
    process_name = "PowerDirector.exe"
    edit_fraction = 0.45
    export_workers = 8
    segment_work_us = int(4.6 * SECOND)
    segment_serial_us = 450 * MS
    preview_gpu = 0.035
    use_cuda = True
    cuda_cpu_share = 0.85
    nvenc_us = int(30 * MS)


class PremierePro(_VideoEditor):
    """Adobe Premiere Pro CC — professional editor, CPU-first export.

    The Table II configuration exports without CUDA (GPU utilization
    0.6%); pass ``use_cuda=True`` for the Fig. 9 comparison.
    """

    name = "premiere"
    display_name = "Adobe Premiere Pro CC"
    version = "CC 2018"
    process_name = "PremierePro.exe"
    edit_fraction = 0.55
    export_workers = 2
    segment_work_us = int(3.8 * SECOND)
    segment_serial_us = 800 * MS
    preview_gpu = 0.006
    use_cuda = False
    cuda_cpu_share = 0.75
    cuda_kernel_us = int(9 * MS)
