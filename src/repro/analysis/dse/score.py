"""Per-config scoring: one simulated run -> metrics under any config.

Two paths produce a :class:`ConfigScore`:

* :func:`batch_score` — the **fast path**: scores N configs from one
  base run's activity histogram in a single vectorized kernel pass
  (:func:`repro.metrics.kernels.batch_active_energy`), never touching
  the simulator.  Per-config work is column arithmetic over the
  group's :class:`ConfigColumns` (:func:`repro.metrics.kernels.
  score_tail`: numpy arrays when numpy imports, lists otherwise), and
  each :class:`ConfigScore` is built only when read
  (:class:`GroupScores`).
* :func:`score_from_simulation` — the **slow path**: scores one
  config from its own full re-simulation's energy report (the
  :class:`~repro.os.energy.EnergyModel` prices the run's activity
  histogram with the scalar kernel's expression, in its order).

For trace-invariant and trace-rescaling configs the two must agree —
exactly on every integer-derived quantity (TLP is a ratio of integer
microsecond sums; the schedule is bit-identical) and on energy to
float tolerance: exactly on the pure-Python kernel, within the
rounding of numpy's ``**`` on the vectorized one.
The DSE property suite pins that equivalence; it is the correctness
argument for skipping ~all of the grid's simulations.

Frequency semantics: simulated microseconds are *reference-machine*
wall time (the 45 nm / DVFS 1.0 point shares its 3.7 GHz base clock
with the paper machine).  A config clocked at ``f`` GHz replays the
same schedule in ``REF/f`` the wall time, so its wall-clock window,
energy integrals and delay all carry the :func:`time_scale` factor,
while TLP — a ratio of times — is invariant.  CPU active power
additionally carries :func:`node_power_scale`: the tech node's
switching-power factor times the cubic DVFS term (P ~ V^2 f with
f ~ V).
"""

from collections.abc import Sequence
from dataclasses import dataclass

from repro.hardware import catalog
from repro.metrics.kernels import (
    argmin,
    batch_active_energy,
    full,
    gather,
    node_factors,
    score_tail,
)
from repro.os.energy import default_coefficients, gpu_tdp_for
from repro.os.work import WorkClass

#: Stable work-class column order of the batch kernel's power matrix.
WORK_CLASSES = tuple(WorkClass)
_CLASS_COLUMN = {cls: i for i, cls in enumerate(WORK_CLASSES)}


def coefficients_for(machine):
    """The machine's energy coefficients (module defaults when bare)."""
    return (getattr(machine, "coefficients", None)
            or default_coefficients())


def time_scale(machine):
    """Wall seconds per simulated second on ``machine``.

    Simulated time is wall time on the reference clock; a machine
    clocked ``k`` times faster replays the same schedule in ``1/k``
    the wall time.  A parametric machine's clock comes from its
    tech/DVFS point (:func:`time_scale_at`) — the sim-visible spec
    clocks are the reference pair for the whole parametric family;
    a catalog machine runs at its spec'd base clock.
    """
    tech = getattr(machine, "tech_nm", None)
    if tech is None:
        return catalog.REF_BASE_CLOCK_GHZ / machine.cpu.base_clock_ghz
    return time_scale_at(tech, machine.dvfs_ratio)


def time_scale_at(tech_nm, dvfs_ratio):
    """:func:`time_scale` of the parametric point (tech node, DVFS)."""
    return catalog.REF_BASE_CLOCK_GHZ / catalog.clock_ghz(tech_nm,
                                                          dvfs_ratio)


def node_power_scale(machine):
    """CPU active-power factor of the machine's tech/DVFS point
    (:func:`node_power_scale_at`); machines without the parametric
    axes score 1.0."""
    tech = getattr(machine, "tech_nm", None)
    if tech is None:
        return 1.0
    return node_power_scale_at(tech, machine.dvfs_ratio)


def node_power_scale_at(tech_nm, dvfs_ratio):
    """CPU active-power factor of the parametric point (tech node,
    DVFS).

    The tech node contributes its ITRS switching-power factor; the
    DVFS ratio contributes cubically (P ~ V^2 f, and the parametric
    family scales f linearly with V).
    """
    return catalog.POWER_SCALE[tech_nm] * dvfs_ratio ** 3


@dataclass(frozen=True)
class ConfigScore:
    """One (app, config) grid point's scored metrics."""

    app: str
    config_index: int
    machine_name: str
    logical_cpus: int
    tech_nm: object             # int for parametric machines
    dvfs_ratio: float
    tlp: float                  # Eq.-1 TLP (idle-normalized mean)
    wall_s: float               # wall-clock testbench duration
    energy_j: float             # CPU + GPU, over the wall window
    edp_js: float               # energy-delay product (J*s)
    analytic: bool              # True = scored without re-simulating

    def to_payload(self):
        return {
            "app": self.app,
            "config_index": self.config_index,
            "machine": self.machine_name,
            "logical_cpus": self.logical_cpus,
            "tech_nm": self.tech_nm,
            "dvfs_ratio": self.dvfs_ratio,
            "tlp": self.tlp,
            "wall_s": self.wall_s,
            "energy_j": self.energy_j,
            "edp_js": self.edp_js,
            "analytic": self.analytic,
        }


def _assemble(app, config_index, machine, tlp, duration_us,
              cpu_active_ref_j, gpu_busy_us, analytic):
    """Scoring tail of the slow path, one config at a time.

    ``cpu_active_ref_j`` is the config's active CPU energy in
    *reference time* under its own coefficients — the paths differ
    only in how they obtained it (kernel batch vs the energy report).
    :func:`batch_score` runs the same operations, in the same order,
    over a group's columns; this is the reference it must equal.
    """
    coeff = coefficients_for(machine)
    scale = time_scale(machine)
    wall_s = duration_us * scale / 1e6
    cpu_active_j = cpu_active_ref_j * node_power_scale(machine) * scale
    cpu_idle_j = coeff.cpu_idle_w * wall_s
    busy_fraction = min(1.0, gpu_busy_us / max(1, duration_us))
    tdp = gpu_tdp_for(coeff, machine.gpu)
    gpu_j = ((tdp - coeff.gpu_idle_w) * busy_fraction
             + coeff.gpu_idle_w) * wall_s
    energy_j = cpu_active_j + cpu_idle_j + gpu_j
    return ConfigScore(
        app=app,
        config_index=config_index,
        machine_name=machine.cpu.name,
        logical_cpus=machine.logical_cpus,
        tech_nm=getattr(machine, "tech_nm", None),
        dvfs_ratio=getattr(machine, "dvfs_ratio", 1.0),
        tlp=tlp,
        wall_s=wall_s,
        energy_j=energy_j,
        edp_js=energy_j * wall_s,
        analytic=analytic,
    )


class ConfigColumns:
    """One config group's scoring inputs, one column per input.

    Everything the scoring tail derives from a machine — the batch
    kernel's active watts (``power``: one column per
    :data:`WORK_CLASSES` entry, the kernel's class-major layout) and
    exponent, the idle CPU and GPU watts, the GPU's active span (TDP
    minus idle), :func:`time_scale` and :func:`node_power_scale` —
    computed once per config with the same operations, in the same
    order, as the scalar functions :func:`_assemble` calls, so a
    campaign extracts them once per config rather than once per (app,
    config).  The group holds a fixed number of columns, not an object
    per config.

    ``machines`` is a machine list, with ``indices`` the configs'
    campaign indices (default ``0..N-1``), or a
    :class:`~repro.hardware.catalog.MachineGrid`, with ``indices`` the
    grid rows of the group (default every row): a config's campaign
    index is its grid row.  A grid's typed columns are gathered at
    those rows (:func:`~repro.metrics.kernels.gather`), the power
    columns by class name, straight into the scoring kernels' layout:
    float64 arrays, one index operation per column, when numpy
    imports, lists otherwise.  No machine is built until
    :meth:`machine` asks for one.
    """

    def __init__(self, machines, indices=None):
        grid = isinstance(machines, catalog.MachineGrid)
        self._machines = machines if grid else list(machines)
        self.indices = list(indices if indices is not None
                            else range(len(self._machines)))
        self._rows = self.indices if grid else range(len(self._machines))
        if grid:
            self._read_grid(machines)
        else:
            self._read_machines(self._machines)

    def _read_machines(self, machines):
        """The columns of a machine list, one machine at a time."""
        coeffs = [coefficients_for(machine) for machine in machines]
        self.power = [[c.active_power_w.get(cls, 0.0) for c in coeffs]
                      for cls in WORK_CLASSES]
        self.exponents = [c.clock_exponent for c in coeffs]
        self.cpu_idle_w = [c.cpu_idle_w for c in coeffs]
        self.gpu_idle_w = [c.gpu_idle_w for c in coeffs]
        self.gpu_span_w = [gpu_tdp_for(c, machine.gpu) - c.gpu_idle_w
                           for c, machine in zip(coeffs, machines)]
        self.time_scale = [time_scale(machine) for machine in machines]
        self.node_scale = [node_power_scale(machine)
                           for machine in machines]

    def _read_grid(self, grid):
        """The columns of the grid rows ``self.indices``.

        A grid machine's coefficients carry the module-default GPU
        fields, so the GPU columns are one value for the whole grid.
        The time and power factors are :func:`time_scale_at` and
        :func:`node_power_scale_at` with each node's constants taken
        once: ``REF / ((REF * FREQ[t]) * d)`` and ``POWER[t] * d ** 3``
        (:func:`~repro.metrics.kernels.node_factors`).
        """
        rows = self.indices
        by_class = dict(zip(grid.power_classes, grid.power_w))
        *self.power, self.exponents, self.cpu_idle_w, techs, dvfs = gather(
            rows, *[by_class[cls] for cls in WORK_CLASSES],
            grid.clock_exponent, grid.cpu_idle_w, grid.tech_nm,
            grid.dvfs_ratio)
        base = default_coefficients()
        span = gpu_tdp_for(base, grid.gpu) - base.gpu_idle_w
        self.gpu_idle_w = full(len(rows), base.gpu_idle_w)
        self.gpu_span_w = full(len(rows), span)
        ref = catalog.REF_BASE_CLOCK_GHZ
        node_clock = {tech: ref * freq
                      for tech, freq in catalog.FREQ_SCALE.items()}
        self.time_scale, self.node_scale = node_factors(
            techs, dvfs, ref, node_clock, catalog.POWER_SCALE)

    def kernel_inputs(self):
        """Every column, in the scoring kernels' argument order:
        ``(power, exponents, time_scale, node_scale, cpu_idle_w,
        gpu_span_w, gpu_idle_w)``."""
        return (self.power, self.exponents, self.time_scale,
                self.node_scale, self.cpu_idle_w, self.gpu_span_w,
                self.gpu_idle_w)

    def machine(self, k):
        """The machine of the group's ``k``-th config."""
        return self._machines[self._rows[k]]


class GroupScores(Sequence):
    """One config group's scores under one app, built on read.

    Holds the score columns in the scoring kernels' layout (float64
    arrays on the numpy backend, lists otherwise); ``scores[k]`` builds
    the k-th :class:`ConfigScore`, with Python floats, on first access
    and returns that same object on every later read (kept in a dict,
    so an unread group holds no per-config container).
    """

    def __init__(self, app, columns, tlp, wall_s, energy_j, edp_js):
        self.app = app
        self.columns = columns
        self.tlp = tlp
        self.wall_s = wall_s
        self.energy_j = energy_j
        self.edp_js = edp_js
        self._built = {}

    def __len__(self):
        return len(self.wall_s)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = range(len(self))[k]     # negative indexes; IndexError
        score = self._built.get(k)
        if score is None:
            machine = self.columns.machine(k)
            score = ConfigScore(
                app=self.app,
                config_index=self.columns.indices[k],
                machine_name=machine.cpu.name,
                logical_cpus=machine.logical_cpus,
                tech_nm=getattr(machine, "tech_nm", None),
                dvfs_ratio=getattr(machine, "dvfs_ratio", 1.0),
                tlp=self.tlp,
                wall_s=float(self.wall_s[k]),
                energy_j=float(self.energy_j[k]),
                edp_js=float(self.edp_js[k]),
                analytic=True,
            )
            self._built[k] = score
        return score

    def best(self):
        """The lowest-EDP member, the lowest config index on ties.

        Every member shares the base run's TLP, so no other member of
        the group can reach a Pareto frontier.
        """
        return self[argmin(self.edp_js, self.columns.indices)]


def batch_score(app, base_run, machines, indices=None):
    """Fast path: score ``machines`` from one base run, no simulation.

    Every machine must share the base run's trace-changing signature
    (:func:`repro.analysis.dse.axes.sim_signature`) — the caller's
    partition guarantees it; nothing here re-checks.  ``machines`` is
    a machine list (``indices`` optionally carries each machine's
    campaign config index) or a prebuilt :class:`ConfigColumns`.
    Returns a :class:`GroupScores`: one score per machine, in order.
    The columns go through the batch kernel
    (:func:`~repro.metrics.kernels.batch_active_energy`) and then
    :func:`_assemble`'s tail as column arithmetic
    (:func:`~repro.metrics.kernels.score_tail`: same operations, same
    order), so each float is bit-identical to :func:`_assemble`'s over
    the same kernel totals.
    """
    columns = (machines if isinstance(machines, ConfigColumns)
               else ConfigColumns(machines, indices))
    power, exponents, *factors_and_watts = columns.kernel_inputs()
    entries = sorted((base_run.activity or {}).items())
    t_us = [us for _, us in entries]
    class_idx = [_CLASS_COLUMN[cls] for (cls, _), _ in entries]
    factors = [factor for (_, factor), _ in entries]
    active_ref = batch_active_energy(t_us, class_idx, factors, power,
                                     exponents)
    duration_us = base_run.duration_us
    busy_fraction = min(1.0, base_run.gpu_busy_us / max(1, duration_us))
    wall_s, energy_j, edp_js = score_tail(active_ref, duration_us,
                                          busy_fraction,
                                          *factors_and_watts)
    return GroupScores(app, columns, base_run.tlp.tlp, wall_s, energy_j,
                       edp_js)


def score_from_simulation(app, run, machine, config_index=-1):
    """Slow path: score one config from its own re-simulation.

    ``run`` must have been simulated *on* ``machine`` (so its energy
    report already reflects the config's coefficients); this only
    applies the tech/DVFS time and power factors the energy model does
    not know about.  Used by the equivalence check and as the honest
    baseline the speedup benchmark measures against.
    """
    # Undo nothing, scale everything: the report's joules are per
    # reference-time second; active CPU power additionally carries the
    # node factor.  Recomputed from parts (not report.total_j) so the
    # factors apply per term, mirroring ``_assemble``.
    cpu_active_ref_j = run.energy.cpu_active_j
    return _assemble(app, config_index, machine, run.tlp.tlp,
                     run.duration_us, cpu_active_ref_j,
                     run.gpu_busy_us, analytic=False)
