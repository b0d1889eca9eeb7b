"""The config-axis partition: what each DSE knob can possibly change.

The whole engine rests on one observation about the simulator: the
scheduler reads the machine's clocks only through
:func:`repro.os.scheduler.compute_clock_factor` — the turbo/base
*ratio* per busy-core count — so uniformly scaling base and turbo
frequency, which is exactly what the parametric family's tech node
and DVFS knobs do, leaves the simulated schedule unchanged.  Energy
coefficients never reach the scheduler at all.  That classifies every
axis of :func:`repro.hardware.catalog.generate_machines`:

========================  ==================  =========================
axis                      class               how it is scored
========================  ==================  =========================
energy coefficients       trace-invariant     re-score the activity
                                              histogram (no new data)
tech node (power/volt)    trace-invariant     constant factor on CPU
                                              active energy
tech node (frequency),    trace-rescaling     time columns rescale
DVFS ratio                                    linearly; TLP fractions
                                              are ratios -> unchanged
core count, SMT ways      trace-changing      re-simulate (one base
                                              run per signature)
========================  ==================  =========================

:func:`sim_signature` captures precisely the machine fields the
simulation *can* observe; configs sharing a signature replay the same
trace and share one base run.

One subtlety keeps the guarantee *bit*-exact rather than
approximately exact: the clock ratio is computed in floating point
from the absolute clocks, so two DVFS points scaled from the same
reference can differ in the last ulp of a clock factor — and a
last-ulp speed difference can legitimately move a burst boundary.
The signature therefore embeds the scheduler's exact per-busy-core
clock-factor table (evaluated through the very same
:func:`~repro.os.scheduler.compute_clock_factor` the scheduler uses)
instead of a nominal ratio: ulp-distinct tables get their own base
run (a handful of extra simulations per campaign), identical tables
share one, and the shared-trace claim never rests on float luck.

The signature is plain arithmetic on the machine's fields: the active
core count follows from the logical CPU count and the SMT ways (the
topology is enumerated core-major, see
:func:`~repro.os.scheduler.build_topology`), and the clock-factor
table is evaluated once per (base clock, turbo clock, core count) —
a campaign of thousands of configs shares a handful of tables.

A generated :class:`~repro.hardware.catalog.MachineGrid` is
partitioned without building its machines: within the parametric
family the (cores, SMT ways) columns fix every other signature field
(:func:`~repro.hardware.catalog.parametric_cpu` pins the clocks the
simulator sees, the LLC, the SMT throughput table and the RAM, and the
grid has one GPU), so the grid is bucketed on those two columns and
:func:`sim_signature` runs once per bucket, on its first member.
"""

from collections import namedtuple
from functools import lru_cache
from heapq import merge

from repro.hardware.catalog import MachineGrid
from repro.os.scheduler import compute_clock_factor

#: The only CPU fields :func:`compute_clock_factor` reads.
_Clocks = namedtuple("_Clocks", "base_clock_ghz turbo_clock_ghz")


@lru_cache(maxsize=256)
def _clock_factor_table(base_clock_ghz, turbo_clock_ghz, n_cores):
    """The scheduler's per-busy-core clock factors, index 0..n_cores.

    Evaluated through :func:`compute_clock_factor` itself, so every
    entry is the exact float the scheduler's ``_clock_table`` holds.
    """
    clocks = _Clocks(base_clock_ghz, turbo_clock_ghz)
    return tuple(compute_clock_factor(clocks, busy, n_cores)
                 for busy in range(n_cores + 1))


def sim_signature(machine):
    """Hashable tuple of every simulation-visible machine field.

    Two machines with equal signatures produce bit-identical traces
    for the same (app, seed, duration): the scheduler sees core
    topology, the exact per-busy-core clock-factor table and the SMT
    throughput table; the memory model sees the LLC size; the GPU
    model sees the device spec.  Absolute clocks, tech node, DVFS
    point and energy coefficients are deliberately absent — that
    absence is the simulate-once guarantee (pinned by the DSE
    equivalence suite).
    """
    cpu = machine.cpu
    gpu = machine.gpu
    # Distinct cores among the core-major topology's active CPUs.
    n_cores = -(-machine.logical_cpus // machine.smt_ways)
    return (
        cpu.physical_cores,
        cpu.smt_ways,
        machine.smt_enabled,
        machine.active_logical_cpus,
        _clock_factor_table(cpu.base_clock_ghz, cpu.turbo_clock_ghz,
                            n_cores),
        cpu.llc_mb,
        tuple(sorted((cls.value, rate)
                     for cls, rate in cpu.smt_throughput.items())),
        machine.ram_gb,
        (gpu.name, gpu.cuda_cores, gpu.clock_mhz, gpu.architecture,
         gpu.vram_gb, gpu.has_nvenc, gpu.mining_optimized,
         gpu.vr_capable, gpu.video_engine_slowdown),
    )


def partition_configs(machines):
    """Group config indices by :func:`sim_signature`.

    Returns ``{signature: [config index, ...]}`` with groups in
    first-occurrence order and indices ascending — the deterministic
    work plan of a campaign: one base simulation per key, analytic
    scoring for every member.  A :class:`~repro.hardware.catalog.
    MachineGrid` is bucketed on its (cores, SMT ways) columns and
    signed once per bucket (see the module notes); any other sequence
    is signed machine by machine.
    """
    if isinstance(machines, MachineGrid):
        return _partition_grid(machines)
    groups = {}
    for index, machine in enumerate(machines):
        groups.setdefault(sim_signature(machine), []).append(index)
    return groups


def _partition_grid(grid):
    """:func:`partition_configs` of a grid, from its columns.

    Buckets come in first-occurrence order; buckets whose
    representatives share a signature merge into the earlier one, so
    the groups and their order equal the machine-by-machine result.
    """
    buckets = {}
    for index, key in enumerate(zip(grid.cores, grid.smt_ways)):
        buckets.setdefault(key, []).append(index)
    groups = {}
    for members in buckets.values():
        signature = sim_signature(grid[members[0]])
        earlier = groups.get(signature)
        groups[signature] = (members if earlier is None
                             else list(merge(earlier, members)))
    return groups
