"""Video transcoding models: HandBrake and WinX HD Video Converter.

Both transcode the paper's clip (3840x2160@50 -> 1920x1080@30 MP4)
through a batch pipeline: a coordinator feeds frame batches to an
encode worker pool sized to the logical CPU count, then performs a
serial mux/flush between batches — the periodic TLP dips of Fig. 5.

* **HandBrake** is CPU-only (x264 software encode); its GPU use stays
  below 1% regardless of settings (Fig. 8b), and its scaling flattens
  beyond ~6 cores, per the HandBrake documentation the paper cites.
* **WinX** supports CUDA/NVENC offload: the CPU share per frame drops
  and an NVENC packet (fixed-function, device-independent speed) plus
  a small CUDA filter kernel go to the GPU.  Offload raises the
  transcode rate and *lowers* TLP (Table III) because batch flushes
  now wait on the GPU.
"""

from repro.apps.base import AppModel, AppRuntime, Category
from repro.apps.blocks import compute, gpu_stream_thread
from repro.gpu.device import (ENGINE_COMPUTE, ENGINE_VIDEO_DECODE,
                              ENGINE_VIDEO_ENCODE)
from repro.os.sync import MessageQueue, Semaphore
from repro.os.work import WorkClass
from repro.sim import MS


class _TranscoderBase(AppModel):
    """Shared batch-pipeline skeleton for both transcoders."""

    category = Category.VIDEO_TRANSCODING
    process_name = "transcoder.exe"
    #: Nominal CPU microseconds per transcoded frame (software path).
    frame_cost_us = 150 * MS
    #: Frames per batch between serial mux points.
    batch_frames = 40
    #: Serial mux/flush CPU time between batches.
    mux_us = 220 * MS
    #: Fraction of frame_cost remaining on the CPU when offloading.
    cuda_cpu_share = 0.59
    #: Reference-GPU work per offloaded frame.
    nvenc_per_frame_us = int(2.2 * MS)
    cuda_kernel_per_frame_us = int(1.6 * MS)
    #: Idle GPU preview load even on the CPU-only path.
    preview_gpu_utilization = 0.0

    def __init__(self, use_gpu=False, total_frames=None, workers=None):
        self.use_gpu = use_gpu
        self.total_frames = total_frames
        #: Override the encode-pool size (defaults to one worker per
        #: logical CPU, matching x264's threading).
        self.workers = workers

    def build(self, rt: AppRuntime):
        process = rt.spawn_process(self.process_name)
        kernel = rt.kernel
        rng = rt.fork_rng()
        gpu_path = self.use_gpu and rt.machine.gpu.has_nvenc
        workers = self.workers or max(1, rt.machine.logical_cpus)
        queue = MessageQueue(kernel)
        done = Semaphore(kernel, 0)
        inflight_packets = []
        rt.outputs["frames"] = 0
        rt.outputs["gpu_path"] = gpu_path
        cpu_cost = (self.frame_cost_us * self.cuda_cpu_share
                    if gpu_path else self.frame_cost_us)

        def worker(ctx):
            while True:
                item = yield ctx.wait(queue.get())
                if item is None:
                    return
                yield from compute(ctx, item, WorkClass.FU_BOUND,
                                   chunk_us=25 * MS)
                if gpu_path:
                    inflight_packets.append(rt.gpu.submit(
                        process, ENGINE_VIDEO_ENCODE, "nvenc",
                        self.nvenc_per_frame_us))
                    rt.gpu.submit(process, ENGINE_COMPUTE, "cuda-filter",
                                  self.cuda_kernel_per_frame_us)
                done.release()

        def coordinator(ctx):
            remaining = self.total_frames
            while ctx.now < rt.end_time and (remaining is None or remaining > 0):
                batch = self.batch_frames
                if remaining is not None:
                    batch = min(batch, remaining)
                for _ in range(batch):
                    cost = int(cpu_cost * rng.uniform(0.85, 1.15))
                    yield ctx.wait(queue.put(cost))
                for _ in range(batch):
                    yield ctx.wait(done.acquire())
                if gpu_path and inflight_packets:
                    yield ctx.wait(inflight_packets[-1])
                    inflight_packets.clear()
                rt.outputs["frames"] += batch
                if remaining is not None:
                    remaining -= batch
                yield from compute(ctx, self.mux_us, WorkClass.FU_BOUND,
                                   chunk_us=25 * MS)
            rt.outputs["completed_at_us"] = ctx.now - rt.start_time
            for _ in range(workers):
                yield ctx.wait(queue.put(None))

        for index in range(workers):
            process.spawn_thread(worker, name=f"encode-{index}")
        process.spawn_thread(coordinator, name="pipeline")
        if self.preview_gpu_utilization > 0:
            # The preview window decodes via the fixed-function NVDEC
            # block, which is why HandBrake's GPU utilization stays
            # below 1% regardless of the installed GPU (Fig. 8b).
            gpu_stream_thread(rt, process, self.preview_gpu_utilization,
                              packet_ref_us=2 * MS,
                              engine=ENGINE_VIDEO_DECODE,
                              packet_type="nvdec", name="preview")


class HandBrake(_TranscoderBase):
    """HandBrake 1.1.0 — open-source software transcoder (CPU-only)."""

    name = "handbrake"
    display_name = "HandBrake"
    version = "1.1.0"
    process_name = "HandBrake.exe"
    frame_cost_us = 158 * MS
    batch_frames = 40
    mux_us = 260 * MS
    preview_gpu_utilization = 0.004

    def __init__(self, total_frames=None, workers=None):
        # HandBrake never offloads encode to the GPU.
        super().__init__(use_gpu=False, total_frames=total_frames,
                         workers=workers)


class WinXVideoConverter(_TranscoderBase):
    """WinX HD Video Converter 5.12.1 — CUDA/NVENC-capable transcoder."""

    name = "winx"
    display_name = "WinX HD Video Converter"
    version = "5.12.1"
    process_name = "WinXVideoConverter.exe"
    frame_cost_us = 201 * MS
    batch_frames = 48
    #: The pure-CPU path of WinX is barely serialized (Table III shows
    #: TLP 11.5 at 12 logical CPUs without the GPU).
    mux_us = 60 * MS
    cuda_mux_us = 300 * MS
    cuda_cpu_share = 0.59
    nvenc_per_frame_us = int(2.2 * MS)
    cuda_kernel_per_frame_us = int(1.6 * MS)

    def __init__(self, use_gpu=True, total_frames=None, workers=None):
        super().__init__(use_gpu=use_gpu, total_frames=total_frames,
                         workers=workers)

    def build(self, rt):
        # GPU batches flush through the driver; the serial section is
        # longer than the CPU path's lightweight mux.
        self.mux_us = self.cuda_mux_us if (
            self.use_gpu and rt.machine.gpu.has_nvenc) else type(self).mux_us
        super().build(rt)
