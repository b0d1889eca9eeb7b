"""Catalog of the concrete hardware used across the paper's 18 years —
plus the seeded parametric machine generator behind the DSE grid.

Sources: Table I of the paper (2018 machine), Blake et al. ISCA'10
(2010 machine), Flautner et al. ASPLOS'00 (2000 machine), and the
NVIDIA specification sheets the paper cites for the GTX 285/680/1080Ti.
The technology/DVFS scaling tables follow the lumos modelling
convention (ITRS projections normalized to a 45 nm reference point).
"""

import random
from array import array
from collections.abc import Sequence

from repro.hardware.specs import (
    CpuSpec,
    GpuSpec,
    MachineSpec,
    ParametricMachine,
    check_core_counts,
)
from repro.os.energy import EnergyCoefficients, default_coefficients
from repro.os.work import WorkClass

#: Combined two-sibling throughput per work class, relative to a lone
#: thread.  FU-bound encode loops lose throughput under SMT (the Fig. 8
#: result); memory-bound work gains from latency hiding.
_SMT_THROUGHPUT = {
    WorkClass.FU_BOUND: 0.94,
    WorkClass.BALANCED: 1.18,
    WorkClass.MEMORY_BOUND: 1.38,
    WorkClass.UI: 1.05,
}

#: Intel Core i7-8700K — the paper's 2018 benchmarking CPU (Table I).
CORE_I7_8700K = CpuSpec(
    name="Intel Core i7-8700K",
    physical_cores=6,
    smt_ways=2,
    base_clock_ghz=3.70,
    turbo_clock_ghz=4.70,
    llc_mb=12,
    smt_throughput=dict(_SMT_THROUGHPUT),
)

#: Dual-socket Xeon from Blake et al. 2010 (4 cores x 2 sockets, SMT).
XEON_2010 = CpuSpec(
    name="Dual Intel Xeon E5520 (2010 testbed)",
    physical_cores=8,
    smt_ways=2,
    base_clock_ghz=2.26,
    turbo_clock_ghz=2.26,
    llc_mb=8,
    smt_throughput=dict(_SMT_THROUGHPUT),
)

#: Late-1990s SMP used by Flautner et al.; uniprocessor-era reference.
SMP_2000 = CpuSpec(
    name="Quad Pentium SMP (2000 testbed)",
    physical_cores=4,
    smt_ways=1,
    base_clock_ghz=0.55,
    turbo_clock_ghz=0.55,
    llc_mb=2,
    smt_throughput={},
)

#: NVIDIA GTX 1080 Ti — the paper's high-end GPU (3584 cores @ 1481 MHz).
GTX_1080_TI = GpuSpec(
    name="NVIDIA GTX 1080 Ti",
    cuda_cores=3584,
    clock_mhz=1481,
    architecture="Pascal",
    vram_gb=11,
    has_nvenc=True,
    mining_optimized=True,
    vr_capable=True,
)

#: NVIDIA GTX 680 — the paper's mid-end comparison GPU (Kepler).
#: Kepler predates the cryptocurrency boom; the paper attributes the
#: lower Ethereum-miner utilization on this card to the architecture
#: not being optimized for mining workloads.
GTX_680 = GpuSpec(
    name="NVIDIA GTX 680",
    cuda_cores=1536,
    clock_mhz=1006,
    architecture="Kepler",
    vram_gb=2,
    has_nvenc=True,
    mining_optimized=False,
    vr_capable=False,  # below the GTX 970 floor required for VR
    video_engine_slowdown=2.2,  # Kepler-era VP5/NVENC vs Pascal
)

#: NVIDIA GTX 285 — used by Blake et al. in 2010 (240 cores @ 648 MHz).
GTX_285 = GpuSpec(
    name="NVIDIA GTX 285",
    cuda_cores=240,
    clock_mhz=648,
    architecture="Tesla",
    vram_gb=1,
    has_nvenc=False,
    mining_optimized=False,
    vr_capable=False,
    video_engine_slowdown=4.0,  # Tesla-era VP2
)


def paper_machine(gpu=None, smt=True, cores=None, base=None):
    """The 2018 benchmarking desktop of Table I (12 LCPUs, 1080 Ti),
    or the ``base`` machine when given, with GPU ``gpu`` (a
    :data:`GPUS` key), SMT off unless ``smt``, then ``cores`` logical
    CPUs; ``ValueError`` if it cannot take ``cores``."""
    machine = base if base is not None else MachineSpec(
        cpu=CORE_I7_8700K, gpu=GTX_1080_TI, ram_gb=64)
    if gpu:
        machine = machine.with_gpu(GPUS[gpu])
    if not smt:
        machine = machine.with_smt(False)
    if cores:
        machine = machine.with_logical_cpus(cores)
    return machine


def machine_2010():
    """Blake et al.'s 2010 testbed (8C/16T Xeon, GTX 285, 6 GB RAM)."""
    return MachineSpec(cpu=XEON_2010, gpu=GTX_285, ram_gb=6,
                       os_name="Windows 7")


#: Name -> GpuSpec lookup used by the harness CLI and benches.
GPUS = {
    "gtx-1080-ti": GTX_1080_TI,
    "gtx-680": GTX_680,
    "gtx-285": GTX_285,
}


# -- parametric machines (the DSE grid) ---------------------------------
#
# ITRS-derived scaling tables normalized to a 45 nm reference node, in
# the lumos style: each tech node scales nominal voltage, achievable
# frequency and switching power relative to the reference.  The DSE
# engine treats frequency as *trace-rescaling* (the schedule replays
# with a different tick length) and voltage/power as *trace-invariant*
# (re-scored, never re-simulated).

#: Process nodes of the parametric family, newest last.
TECH_NODES = (45, 32, 22, 16, 11, 8)

#: Nominal supply voltage at 45 nm (V); nodes scale it down.
VDD_BASE_V = 1.0

#: Per-node nominal Vdd relative to :data:`VDD_BASE_V` (ITRS).
VDD_SCALE = {45: 1.0, 32: 0.93, 22: 0.84, 16: 0.75, 11: 0.68, 8: 0.62}

#: Per-node achievable frequency relative to the 45 nm reference.
FREQ_SCALE = {45: 1.0, 32: 1.09, 22: 2.38, 16: 3.21, 11: 4.17, 8: 3.85}

#: Per-node switching power relative to the 45 nm reference.
POWER_SCALE = {45: 1.0, 32: 0.66, 22: 0.54, 16: 0.38, 11: 0.25, 8: 0.12}

#: Per-node threshold voltage (V) — the floor of DVFS undervolting.
VTH_V = {45: 0.3201, 32: 0.297, 22: 0.2673, 16: 0.2409, 11: 0.2178,
         8: 0.198}

#: Overclock headroom: DVFS ratios may exceed nominal up to 1.3x.
DVFS_MAX = 1.3

#: 45 nm reference base clock of the parametric family (GHz).  The
#: paper machine's 3.7 GHz anchors it so a 45 nm / dvfs=1.0 parametric
#: machine and the i7-8700K share a time base.
REF_BASE_CLOCK_GHZ = CORE_I7_8700K.base_clock_ghz

#: Turbo headroom ratio, held fixed across the whole parametric family
#: (the 8700K's 4.7/3.7).  The scheduler reads only the turbo/base
#: *ratio*, so uniform frequency scaling never perturbs the schedule.
TURBO_RATIO = CORE_I7_8700K.turbo_clock_ghz / CORE_I7_8700K.base_clock_ghz


def dvfs_bounds(tech_nm):
    """``(lo, hi)`` admissible DVFS voltage ratios at a tech node.

    The lower bound keeps Vdd above the node's threshold voltage; the
    upper bound is the fixed overclock headroom.  An unknown node
    raises ``ValueError``.
    """
    if tech_nm not in VDD_SCALE:
        raise ValueError(f"unknown tech node {tech_nm} nm; "
                         f"choose from {TECH_NODES}")
    lo = VTH_V[tech_nm] / (VDD_SCALE[tech_nm] * VDD_BASE_V)
    return lo, DVFS_MAX


def clock_ghz(tech_nm, dvfs_ratio):
    """Effective base clock of a parametric machine (GHz): reference x
    node frequency scaling x DVFS ratio."""
    return REF_BASE_CLOCK_GHZ * FREQ_SCALE[tech_nm] * dvfs_ratio


def parametric_cpu(cores, smt_ways=2, tech_nm=45, dvfs_ratio=1.0,
                   llc_mb=12):
    """A generated :class:`CpuSpec` at one DSE grid point.

    The spec'd clocks are deliberately the *reference* pair (the
    8700K's 3.7/4.7 GHz) for the entire family: the scheduler models
    only relative turbo behaviour — it consumes the clocks through the
    per-busy-core factor of :func:`repro.os.scheduler.
    compute_clock_factor` — so holding the sim-visible pair fixed
    makes the schedule bit-identical across every frequency point *by
    construction* (no float-rounding luck involved), which is what
    lets the DSE engine treat frequency as a trace-rescaling axis.
    The machine's actual frequency is a scoring-layer quantity:
    :func:`clock_ghz` derives it from the tech node and DVFS ratio the
    :class:`~repro.hardware.specs.ParametricMachine` carries.
    """
    return CpuSpec(
        name=(f"param-{cores}c{smt_ways}t-{tech_nm}nm"
              f"-v{dvfs_ratio:.4f}"),
        physical_cores=cores,
        smt_ways=smt_ways,
        base_clock_ghz=REF_BASE_CLOCK_GHZ,
        turbo_clock_ghz=CORE_I7_8700K.turbo_clock_ghz,
        llc_mb=llc_mb,
        smt_throughput=dict(_SMT_THROUGHPUT),
    )


def check_grid_point(cores, smt_ways, tech_nm, dvfs_ratio):
    """Raise ``ValueError`` unless the arguments make a parametric
    machine: a known tech node, a DVFS point inside its
    :func:`dvfs_bounds` band, and at least one core and one hardware
    thread per core."""
    lo, hi = dvfs_bounds(tech_nm)
    if not lo <= dvfs_ratio <= hi:
        raise _outside_band(tech_nm, dvfs_ratio, lo, hi)
    check_core_counts(cores, smt_ways)


def _outside_band(tech_nm, dvfs_ratio, lo, hi):
    """The ``ValueError`` of a DVFS point outside ``[lo, hi]``."""
    return ValueError(f"dvfs_ratio={dvfs_ratio:.4f} outside "
                      f"[{lo:.4f}, {hi:.4f}] at {tech_nm} nm")


def parametric_machine(cores, smt_ways=2, tech_nm=45, dvfs_ratio=1.0,
                       gpu=GTX_1080_TI, coefficients=None, ram_gb=64):
    """One :class:`~repro.hardware.specs.ParametricMachine` grid point.

    Validates the point with :func:`check_grid_point`; the machine
    exposes ``cores * smt_ways`` logical CPUs (SMT is "off" simply by
    ``smt_ways=1``, so the whole family uses one code path).
    """
    check_grid_point(cores, smt_ways, tech_nm, dvfs_ratio)
    return ParametricMachine(
        cpu=parametric_cpu(cores, smt_ways, tech_nm, dvfs_ratio),
        gpu=gpu,
        ram_gb=ram_gb,
        os_name="parametric",
        tech_nm=tech_nm,
        dvfs_ratio=dvfs_ratio,
        coefficients=coefficients,
    )


#: Default core-count / SMT-way choices of the generator.
GENERATOR_CORES = (2, 4, 6, 8, 12, 16)
GENERATOR_SMT_WAYS = (1, 2)


class MachineGrid(Sequence):
    """The configs of :func:`generate_machines`, one column per draw.

    Row ``i`` is machine ``i``: its tech node, DVFS ratio, core count,
    SMT ways, CPU idle watts and clock exponent are entry ``i`` of the
    column of that name, and its active watts are entry ``i`` of each
    ``power_w`` column, one column per work class in ``power_classes``
    order; ``gpu`` is shared by every row.  The tech node, core and
    SMT columns are ``array('q')`` and the rest ``array('d')``
    buffers, so a grid holds no Python number per config, and the
    scoring kernels view the columns without a copy
    (:func:`repro.metrics.kernels.gather`).  The grid reads like
    the machine list it stands for — ``len``, indexes, slices,
    iteration, ``==`` and ``+`` against a list — and ``grid[i]`` builds
    the :class:`~repro.hardware.specs.ParametricMachine` on first read,
    returning that same object on every later one.  Code that only
    needs the draws reads the columns instead, so a campaign builds
    just the machines it simulates or prints.
    """

    def __init__(self, tech_nm, dvfs_ratio, cores, smt_ways, power_w,
                 cpu_idle_w, clock_exponent, power_classes, gpu):
        self.tech_nm = tech_nm
        self.dvfs_ratio = dvfs_ratio
        self.cores = cores
        self.smt_ways = smt_ways
        self.power_w = power_w
        self.cpu_idle_w = cpu_idle_w
        self.clock_exponent = clock_exponent
        self.power_classes = power_classes
        self.gpu = gpu
        self._built = [None] * len(cores)

    def __len__(self):
        return len(self._built)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        machine = self._built[i]
        if machine is None:
            machine = parametric_machine(
                cores=self.cores[i],
                smt_ways=self.smt_ways[i],
                tech_nm=self.tech_nm[i],
                dvfs_ratio=self.dvfs_ratio[i],
                gpu=self.gpu,
                coefficients=EnergyCoefficients(
                    active_power_w={cls: column[i] for cls, column in
                                    zip(self.power_classes, self.power_w)},
                    cpu_idle_w=self.cpu_idle_w[i],
                    clock_exponent=self.clock_exponent[i]),
            )
            self._built[i] = machine
        return machine

    def __eq__(self, other):
        if isinstance(other, (MachineGrid, list)):
            return list(self) == list(other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (MachineGrid, list)):
            return list(self) + list(other)
        return NotImplemented


def generate_machines(count, seed=0, cores=GENERATOR_CORES,
                      smt_ways=GENERATOR_SMT_WAYS, tech_nodes=TECH_NODES,
                      coefficient_jitter=0.25, gpu=GTX_1080_TI):
    """``count`` seed-determined parametric machines, as a
    :class:`MachineGrid`.

    Axes drawn per machine, in this order: the tech node; the per-class
    active watts (in :func:`~repro.os.energy.default_coefficients`
    order), idle watts and clock exponent, jittered by up to
    ``±coefficient_jitter`` (the exponent by ``±0.2``) —
    trace-invariant; the core count and SMT ways — trace-changing; and
    a DVFS point uniform inside the node's admissible band —
    trace-rescaling.  The axes are checked once, before any draw: none
    may be empty, and each tech node's :func:`dvfs_bounds` and every
    (cores, SMT ways) pair
    (:func:`~repro.hardware.specs.check_core_counts`) must hold, so a
    bad axis raises ``ValueError`` even when ``count`` is 0; each drawn
    DVFS point is checked against its node's band as it is drawn, with
    :func:`check_grid_point`'s message.  The same ``(count, seed,
    axes)`` always yields the same grid, so a DSE campaign is
    reproducible end to end.

    The draws are those of ``random.Random``'s ``choice`` and
    ``uniform``, made inline so that no draw costs a Python call
    frame, and each is stored straight into the grid's typed columns,
    so no Python float outlives its draw.
    """
    for name, axis in (("cores", cores), ("smt_ways", smt_ways),
                       ("tech_nodes", tech_nodes)):
        if not len(axis):
            raise ValueError(f"{name} axis is empty")
    # Each ``uniform(a, b)`` draw is inlined as ``a + (b - a) *
    # random()``, the way ``random.uniform`` computes it, with each
    # width taken once: per node for the DVFS band (floor, width,
    # ceiling), once for the jitters.
    bands = {}
    for tech in tech_nodes:
        lo, hi = dvfs_bounds(tech)
        bands[tech] = (lo, hi - lo, hi)
    for n_cores in cores:
        for n_ways in smt_ways:
            check_core_counts(n_cores, n_ways)
    # Each ``choice(axis)`` is inlined as the loop ``choice`` runs
    # (``Random._randbelow_with_getrandbits``): ``k`` fresh bits, with
    # ``k`` the axis length's bit length, redrawn while they index past
    # the axis.  Same words of the stream, in the same order.  An empty
    # axis would never leave that loop (``getrandbits(0)`` is 0), which
    # is why the axes are checked above.
    n_tech, k_tech = len(tech_nodes), len(tech_nodes).bit_length()
    n_core, k_core = len(cores), len(cores).bit_length()
    n_way, k_way = len(smt_ways), len(smt_ways).bit_length()
    rng = random.Random(f"dse-machines:{seed}")
    rand = rng.random
    bits = rng.getrandbits
    base = default_coefficients()
    classes = tuple(base.active_power_w)
    # Each column is allocated at its final length (appending grows an
    # ``array`` a sixteenth at a time) and each draw is stored in place
    # through a memoryview, whose item store converts a number directly
    # where an ``array``'s parses a format string.
    columns = [array(code, [0]) * count
               for code in "qqqddd" + "d" * len(classes)]
    techs, core_counts, ways, dvfs, idle, exponents, *power = columns
    (put_tech, put_cores, put_ways, put_dvfs, put_idle, put_exponent,
     *put_power) = map(memoryview, columns)
    class_watts = list(zip(put_power, base.active_power_w.values()))
    idle_w, exponent = base.cpu_idle_w, base.clock_exponent
    low, high = -coefficient_jitter, coefficient_jitter
    width = high - low
    ex_low, ex_high = -0.2, 0.2
    ex_width = ex_high - ex_low
    for n in range(count):
        r = bits(k_tech)
        while r >= n_tech:
            r = bits(k_tech)
        tech = tech_nodes[r]
        lo, span, hi = bands[tech]
        for column, watts in class_watts:
            column[n] = watts * (1.0 + (low + width * rand()))
        put_idle[n] = idle_w * (1.0 + (low + width * rand()))
        put_exponent[n] = exponent + (ex_low + ex_width * rand())
        r = bits(k_core)
        while r >= n_core:
            r = bits(k_core)
        put_cores[n] = cores[r]
        r = bits(k_way)
        while r >= n_way:
            r = bits(k_way)
        put_ways[n] = smt_ways[r]
        ratio = lo + span * rand()
        if not lo <= ratio <= hi:
            raise _outside_band(tech, ratio, lo, hi)
        put_tech[n] = tech
        put_dvfs[n] = ratio
    return MachineGrid(techs, dvfs, core_counts, ways, power, idle,
                       exponents, power_classes=classes, gpu=gpu)
