"""Office productivity models: Acrobat, Excel, PowerPoint, Word, Outlook.

Office applications are the paper's low-TLP baseline (category average
1.4): a single UI thread processes scripted edits with short serial
bursts, helper threads appear occasionally, and the GPU is used only
for compositing/animation.  Excel stands out: its recalculation engine
fans out across all logical CPUs, and the paper highlights that it
spends 3.7% of its time using the maximum of 12 — we reproduce exactly
that structure with a parallel recalc on compute-heavy operations.
"""

from repro.apps.base import AppModel, Category
from repro.apps.blocks import (compute, duty_cycle_thread, fan_out,
                               gpu_stream_thread, housekeeping_thread, ui_pump)
from repro.automation import InputScript
from repro.os.work import WorkClass
from repro.sim import MS, SECOND


class _OfficeApp(AppModel):
    """Shared scripted-editing skeleton for the office suite."""

    category = Category.OFFICE
    process_name = "office.exe"
    #: (label, serial CPU per op, parallel recalc work or 0)
    operations = ()
    #: Duty cycle of a steady helper thread (0 disables it).
    helper_duty = 0.0
    helper_name = "helper"
    #: Work done by the document-render thread alongside each UI op,
    #: as a fraction of the op's serial cost (drives c2 overlap).
    render_overlap = 0.35
    #: Continuous GPU compositing load (fraction of the reference GPU).
    gpu_load = 0.0
    op_repeats = 8

    def build(self, rt):
        process = rt.spawn_process(self.process_name)
        kernel = rt.kernel
        rng = rt.fork_rng()
        script = InputScript()
        for label, _serial, _parallel in self.operations:
            script.wait(700 * MS)
            script.click(label)
        script = script.repeated(self.op_repeats, gap_us=1500 * MS)
        script = script.stretched_to(int(rt.duration_us * 0.96))
        op_table = {label: (serial, parallel)
                    for label, serial, parallel in self.operations}

        from repro.os.sync import MessageQueue

        render_queue = MessageQueue(kernel)

        def render_thread(ctx):
            while True:
                work = yield ctx.wait(render_queue.get())
                if work is None:
                    return
                yield from compute(ctx, work, WorkClass.UI,
                                   chunk_us=15 * MS)

        def handle(ctx, action):
            serial, parallel = op_table[action.label]
            work = int(serial * rng.uniform(0.7, 1.3))
            if self.render_overlap:
                # Layout/paint proceeds on the render thread while the
                # UI thread executes the operation itself.
                yield ctx.wait(render_queue.put(
                    max(1, int(work * self.render_overlap))))
            yield from compute(ctx, max(1, work), WorkClass.UI,
                               chunk_us=15 * MS)
            if parallel:
                done = fan_out(rt, process, parallel,
                               rt.machine.logical_cpus,
                               WorkClass.MEMORY_BOUND, chunk_us=10 * MS,
                               name=f"recalc-{action.label}")
                yield ctx.wait(done)

        process.spawn_thread(render_thread, name="doc-render")
        ui_pump(rt, process, script, handle)
        housekeeping_thread(rt, process)
        if self.helper_duty:
            duty_cycle_thread(rt, process, self.helper_duty,
                              work_class=WorkClass.UI,
                              name=self.helper_name)
        if self.gpu_load:
            gpu_stream_thread(rt, process, self.gpu_load,
                              packet_ref_us=2 * MS,
                              packet_type="composite", name="gpu-composite")


class AcrobatPro(_OfficeApp):
    """Adobe Acrobat Pro DC: scan, combine, watermark, export (no GPU)."""

    name = "acrobat"
    display_name = "Adobe Acrobat Pro DC"
    version = "DC 2018"
    process_name = "Acrobat.exe"
    operations = (
        ("scan-document", 500 * MS, 0),
        ("combine-files", 700 * MS, 0),
        ("manipulate-pages", 250 * MS, 0),
        ("insert-links", 150 * MS, 0),
        ("add-watermark", 300 * MS, 0),
        ("add-signature", 200 * MS, 0),
        ("export-slides", 900 * MS, 0),
    )
    helper_duty = 0.06
    helper_name = "pdf-render"
    op_repeats = 6


class Excel(_OfficeApp):
    """Microsoft Excel 2016 on a 1-million-row spreadsheet.

    Sort / mean / histogram operations hit the multithreaded recalc
    engine — short full-width fan-outs that give Excel its burst to
    the instantaneous TLP maximum.
    """

    name = "excel"
    display_name = "Microsoft Excel"
    version = "2016"
    process_name = "EXCEL.EXE"
    render_overlap = 0.75
    operations = (
        ("open-sheet", 600 * MS, 0),
        ("copy-columns", 250 * MS, 0),
        ("zoom-pan", 120 * MS, 0),
        ("compute-means", 150 * MS, int(0.18 * SECOND)),
        ("sort-rows", 180 * MS, int(0.22 * SECOND)),
        ("filter-rows", 150 * MS, int(0.12 * SECOND)),
        ("plot-histogram", 250 * MS, int(0.10 * SECOND)),
    )
    helper_duty = 0.05
    helper_name = "calc-service"
    gpu_load = 0.02
    op_repeats = 7


class PowerPoint(_OfficeApp):
    """Microsoft PowerPoint 2016: slide authoring with animations."""

    name = "powerpoint"
    display_name = "Microsoft PowerPoint"
    version = "2016"
    process_name = "POWERPNT.EXE"
    render_overlap = 0.12
    operations = (
        ("open-template", 500 * MS, 0),
        ("add-bullets", 160 * MS, 0),
        ("format-text", 120 * MS, 0),
        ("add-shapes", 180 * MS, 0),
        ("animate-shapes", 250 * MS, 0),
        ("insert-picture", 300 * MS, 0),
        ("create-table", 220 * MS, 0),
    )
    gpu_load = 0.038
    op_repeats = 7


class Word(_OfficeApp):
    """Microsoft Word 2016: document editing with images."""

    name = "word"
    display_name = "Microsoft Word"
    version = "2016"
    process_name = "WINWORD.EXE"
    operations = (
        ("new-document", 300 * MS, 0),
        ("type-paragraph", 200 * MS, 0),
        ("delete-text", 90 * MS, 0),
        ("change-formatting", 150 * MS, 0),
        ("insert-image", 350 * MS, 0),
        ("scale-image", 180 * MS, 0),
        ("move-image", 140 * MS, 0),
    )
    helper_duty = 0.05
    helper_name = "spellcheck"
    gpu_load = 0.016
    op_repeats = 8


class Outlook(_OfficeApp):
    """Microsoft Outlook 2016: mailbox manipulation with sync."""

    name = "outlook"
    display_name = "Microsoft Outlook"
    version = "2016"
    process_name = "OUTLOOK.EXE"
    operations = (
        ("compose-email", 350 * MS, 0),
        ("save-draft", 150 * MS, 0),
        ("search-inbox", 450 * MS, 0),
        ("reply-email", 250 * MS, 0),
        ("move-to-junk", 120 * MS, 0),
        ("categorize", 160 * MS, 0),
        ("filter-emails", 400 * MS, 0),
    )
    helper_duty = 0.07
    helper_name = "mail-sync"
    gpu_load = 0.024
    op_repeats = 7
