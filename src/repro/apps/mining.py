"""Cryptocurrency mining models (§IV-G).

Four miners spanning the paper's observations:

* **Bitcoin Miner** — GPU sha256d kernels back-to-back plus a handful
  of CPU mining threads (TLP 5.4, GPU 98.9%).
* **EasyMiner** — "assigns independent threads to each of the logical
  cores" (§V-C.1): CPU TLP scales linearly with core count (Fig. 4)
  while the GPU stays saturated.
* **PhoenixMiner** — GPU-only; two command queues execute packets
  simultaneously throughout, which saturates the paper's sum-of-ratios
  utilization metric (the Table II "*100.0" footnote).
* **Windows Ethereum Miner** — GPU-only ethash; on the pre-boom Kepler
  GTX 680 the unoptimized kernels leave inter-packet gaps, so — unlike
  every other workload — its utilization is *higher* on the superior
  GPU (Fig. 10).
"""

from repro.apps.base import AppModel, Category
from repro.apps.blocks import duty_cycle_thread, housekeeping_thread
from repro.gpu.device import ENGINE_COMPUTE, ENGINE_COPY
from repro.gpu.mining import BATCH_REF_US, MiningStats
from repro.os.work import WorkClass
from repro.sim import MS, SECOND


class _Miner(AppModel):
    """Shared mining skeleton: GPU batch stream + optional CPU threads."""

    category = Category.MINING
    process_name = "miner.exe"
    algorithm = "sha256d"
    #: Number of CPU mining threads; -1 means one per logical CPU.
    cpu_threads = 0
    cpu_thread_duty = 0.97
    #: Hashes per second contributed by one fully-busy CPU thread.
    cpu_hash_rate = 350_000.0
    #: Seconds of GPU work submitted per batch (reference GPU).
    batch_streams = 1
    #: Host-side gap between batch submissions (driver overhead).
    submit_gap_us = 2 * MS
    ui_duty = 0.02

    def build(self, rt):
        process = rt.spawn_process(self.process_name)
        rng = rt.fork_rng()
        stats = MiningStats(self.algorithm)
        rt.outputs["mining_stats"] = stats
        batch_us = BATCH_REF_US[self.algorithm]
        engines = [ENGINE_COMPUTE, ENGINE_COPY][:self.batch_streams]

        def gpu_stream(engine):
            def body(ctx):
                while ctx.now < rt.end_time:
                    yield ctx.cpu(max(1, self.submit_gap_us // 2),
                                  WorkClass.UI)
                    done = rt.gpu.submit(
                        process, engine, self.algorithm,
                        max(1, int(batch_us * rng.uniform(0.95, 1.05))))
                    yield ctx.wait(done)
                    stats.add_batch()
                    rt.outputs["hash_rate"] = stats.hash_rate(
                        max(1, ctx.now - rt.start_time))
                    yield ctx.sleep(max(1, self.submit_gap_us // 2))

            return body

        for index, engine in enumerate(engines):
            process.spawn_thread(gpu_stream(engine),
                                 name=f"gpu-stream-{index}")

        n_cpu = (rt.machine.logical_cpus if self.cpu_threads < 0
                 else self.cpu_threads)

        def cpu_miner(ctx):
            period = 100 * MS
            while ctx.now < rt.end_time:
                busy = max(1, int(period * self.cpu_thread_duty
                                  * rng.uniform(0.95, 1.05)))
                yield ctx.cpu(busy, WorkClass.FU_BOUND)
                stats.add_cpu_hashes(self.cpu_hash_rate * busy / SECOND)
                idle = period - busy
                if idle > 0 and ctx.now < rt.end_time:
                    yield ctx.sleep(min(idle, max(1, rt.end_time - ctx.now)))

        for index in range(n_cpu):
            process.spawn_thread(cpu_miner, name=f"cpu-miner-{index}")
        duty_cycle_thread(rt, process, self.ui_duty,
                          work_class=WorkClass.UI, name="ui")
        if self.algorithm == "ethash":
            # Periodic DAG-epoch rebuild fans across the CPU briefly.
            housekeeping_thread(rt, process, period_us=28 * SECOND,
                                burst_us=7 * MS, name="dag-rebuild")


class BitcoinMiner(_Miner):
    """Bitcoin Miner 1.54.0 — hybrid CPU+GPU sha256d miner."""

    name = "bitcoin-miner"
    display_name = "Bitcoin Miner"
    version = "1.54.0"
    process_name = "BitcoinMiner.exe"
    algorithm = "sha256d"
    cpu_threads = 6
    cpu_thread_duty = 0.90
    submit_gap_us = int(2.2 * MS)


class EasyMiner(_Miner):
    """EasyMiner v0.87 — one CPU mining thread per logical core."""

    name = "easyminer"
    display_name = "EasyMiner"
    version = "v0.87"
    process_name = "EasyMiner.exe"
    algorithm = "sha256d"
    cpu_threads = -1
    submit_gap_us = 4 * MS


class PhoenixMiner(_Miner):
    """PhoenixMiner 3.0c — dual-queue GPU ethash miner.

    Two packets execute simultaneously throughout the run; the
    aggregate-of-ratios metric saturates at 100% (Table II footnote).
    Requires a Pascal-class GPU — the paper notes it does not support
    the GTX 680.
    """

    name = "phoenixminer"
    display_name = "PhoenixMiner"
    version = "3.0c"
    process_name = "PhoenixMiner.exe"
    algorithm = "ethash"
    cpu_threads = 0
    batch_streams = 2
    submit_gap_us = 1 * MS
    ui_duty = 0.04

    #: The 2018 Ethereum DAG plus working buffers (GB) — must fit in
    #: VRAM, which is why the 2 GB GTX 680 is unsupported.
    dag_footprint_gb = 3

    def build(self, rt):
        gpu = rt.machine.gpu
        if gpu.vram_gb < self.dag_footprint_gb or not gpu.mining_optimized:
            raise ValueError(
                f"{self.display_name} does not support {gpu.name}")
        super().build(rt)


class WindowsEthereumMiner(_Miner):
    """Windows Ethereum Miner 1.5.27 — single-queue GPU ethash miner."""

    name = "wineth"
    display_name = "Windows Ethereum Miner"
    version = "1.5.27"
    process_name = "WinEth.exe"
    algorithm = "ethash"
    cpu_threads = 0
    submit_gap_us = 1 * MS
    ui_duty = 0.04
