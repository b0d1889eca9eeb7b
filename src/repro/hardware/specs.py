"""Hardware specification dataclasses.

These describe the *capabilities* of the machine being simulated; the
behavioural models live in :mod:`repro.os` (CPU scheduling) and
:mod:`repro.gpu` (GPU packet execution).
"""

from dataclasses import dataclass, field, replace


def check_core_counts(physical_cores, smt_ways):
    """Raise ``ValueError`` unless a CPU has at least one core and at
    least one hardware thread per core."""
    if physical_cores < 1:
        raise ValueError("physical_cores must be >= 1")
    if smt_ways < 1:
        raise ValueError("smt_ways must be >= 1")


@dataclass(frozen=True)
class CpuSpec:
    """A CPU package.

    ``smt_throughput`` maps a work class (see :mod:`repro.os.work`) to
    the *combined* throughput of two hardware threads sharing a
    physical core, relative to one thread running alone.  Values below
    1.0 mean SMT hurts (functional-unit contention dominates), values
    above 1.0 mean SMT helps (latency hiding dominates).  This is the
    knob behind the paper's Fig. 8 finding that SMT lowers HandBrake's
    transcode rate.
    """

    name: str
    physical_cores: int
    smt_ways: int
    base_clock_ghz: float
    turbo_clock_ghz: float
    llc_mb: int
    smt_throughput: dict = field(default_factory=dict)

    def __post_init__(self):
        check_core_counts(self.physical_cores, self.smt_ways)

    @property
    def logical_cpus(self):
        """Total hardware threads exposed by this package."""
        return self.physical_cores * self.smt_ways


@dataclass(frozen=True)
class GpuSpec:
    """A discrete GPU.

    ``compute_throughput`` is normalized so the GTX 1080 Ti is 1.0 —
    packet service times on other devices scale by the inverse ratio,
    which is what produces the paper's Fig. 10 utilization contrast
    between the GTX 680 and the GTX 1080 Ti.
    """

    name: str
    cuda_cores: int
    clock_mhz: int
    architecture: str
    vram_gb: int
    has_nvenc: bool = True
    mining_optimized: bool = True
    vr_capable: bool = True
    #: Slowdown of the fixed-function video engines (NVDEC/NVENC)
    #: relative to Pascal's — older generations decode/encode slower,
    #: though far less than the CUDA-core gap.
    video_engine_slowdown: float = 1.0

    @property
    def raw_rate(self):
        """CUDA cores x clock, the first-order throughput proxy."""
        return self.cuda_cores * self.clock_mhz

    def throughput_relative_to(self, other):
        """Throughput of this device relative to ``other``."""
        return self.raw_rate / other.raw_rate


@dataclass(frozen=True)
class MachineSpec:
    """A complete benchmarking machine: CPU + GPU + platform config.

    ``active_logical_cpus`` models the paper's core-scaling experiments
    where only 4/8/12 logical CPUs are enabled; ``smt_enabled=False``
    exposes one hardware thread per physical core.
    """

    cpu: CpuSpec
    gpu: GpuSpec
    ram_gb: int = 64
    os_name: str = "Windows 10 Education 1803"
    active_logical_cpus: int = 0  # 0 means "all"
    smt_enabled: bool = True

    def __post_init__(self):
        limit = self.cpu.logical_cpus if self.smt_enabled else self.cpu.physical_cores
        if self.active_logical_cpus < 0 or self.active_logical_cpus > limit:
            raise ValueError(
                f"active_logical_cpus={self.active_logical_cpus} outside 0..{limit}")

    @property
    def logical_cpus(self):
        """Number of schedulable logical CPUs in this configuration."""
        limit = self.cpu.logical_cpus if self.smt_enabled else self.cpu.physical_cores
        return self.active_logical_cpus or limit

    @property
    def smt_ways(self):
        """Hardware threads per physical core in this configuration."""
        return self.cpu.smt_ways if self.smt_enabled else 1

    def with_logical_cpus(self, count):
        """A copy of this machine restricted to ``count`` logical CPUs."""
        return replace(self, active_logical_cpus=count)

    def with_smt(self, enabled):
        """A copy of this machine with SMT toggled."""
        return replace(self, smt_enabled=enabled, active_logical_cpus=0)

    def with_gpu(self, gpu):
        """A copy of this machine with a different GPU installed."""
        return replace(self, gpu=gpu)


@dataclass(frozen=True)
class ParametricMachine(MachineSpec):
    """A generated machine config — one point of the DSE grid.

    Extends the concrete catalog spec with the scaling axes of the
    design-space exploration engine (:mod:`repro.analysis.dse`):

    * ``tech_nm`` — process node; scales frequency, voltage and power
      through the ITRS-derived tables in
      :mod:`repro.hardware.catalog`.
    * ``dvfs_ratio`` — voltage ratio relative to the node's nominal
      point; frequency follows linearly, dynamic power cubically.
    * ``coefficients`` — an
      :class:`~repro.os.energy.EnergyCoefficients` bundle picked up by
      the energy model (``None`` keeps the defaults).

    None of these fields is read by the scheduler: the simulated
    schedule depends only on core count, SMT configuration and the
    turbo *ratio* (which the parametric family holds fixed), so two
    parametric machines differing only in tech node, DVFS point or
    coefficients replay the identical trace — the invariance the DSE
    axis partition is built on, and the reason these axes can be
    scored without re-simulating.
    """

    tech_nm: int = 45
    dvfs_ratio: float = 1.0
    coefficients: object = None  # os.energy.EnergyCoefficients
