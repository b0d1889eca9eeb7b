"""Per-config scoring: one simulated run -> metrics under any config.

Two paths produce a :class:`ConfigScore`:

* :func:`batch_score` — the **fast path**: scores N configs from one
  base run's activity histogram in a single vectorized kernel pass
  (:func:`repro.metrics.kernels.batch_active_energy`), never touching
  the simulator.
* :func:`score_from_simulation` — the **slow path**: scores one
  config from its own full re-simulation's energy report (the
  per-slice accumulation the :class:`~repro.os.energy.EnergyModel`
  performed live).

For trace-invariant and trace-rescaling configs the two must agree —
exactly on every integer-derived quantity (TLP is a ratio of integer
microsecond sums; the schedule is bit-identical) and to float
tolerance on energy (per-slice vs histogram-grouped summation order).
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

from dataclasses import dataclass

from repro.hardware import catalog
from repro.metrics.kernels import batch_active_energy
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
    the wall time.  The effective clock comes from the machine's
    tech/DVFS point (:func:`repro.hardware.catalog.
    effective_clock_ghz`) — the sim-visible spec clocks are the
    reference pair for the whole parametric family.
    """
    return catalog.REF_BASE_CLOCK_GHZ / catalog.effective_clock_ghz(machine)


def node_power_scale(machine):
    """CPU active-power factor of the machine's tech/DVFS point.

    The tech node contributes its ITRS switching-power factor; the
    DVFS ratio contributes cubically (P ~ V^2 f, and the parametric
    family scales f linearly with V).  Machines without the parametric
    axes score 1.0.
    """
    tech = getattr(machine, "tech_nm", None)
    if tech is None:
        return 1.0
    return (catalog.POWER_SCALE[tech]
            * getattr(machine, "dvfs_ratio", 1.0) ** 3)


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
    """Shared scoring tail of both paths.

    ``cpu_active_ref_j`` is the config's active CPU energy in
    *reference time* under its own coefficients — the paths differ
    only in how they obtained it (kernel batch vs live accumulation).
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


def batch_score(app, base_run, machines, indices=None):
    """Fast path: score ``machines`` from one base run, no simulation.

    Every machine must share the base run's trace-changing signature
    (:func:`repro.analysis.dse.axes.sim_signature`) — the caller's
    partition guarantees it; nothing here re-checks.  ``indices``
    optionally carries each machine's campaign config index.  Returns
    one :class:`ConfigScore` per machine, in order.
    """
    entries = sorted((base_run.activity or {}).items())
    t_us = [us for _, us in entries]
    class_idx = [_CLASS_COLUMN[cls] for (cls, _), _ in entries]
    factors = [factor for (_, factor), _ in entries]
    coeffs = [coefficients_for(machine) for machine in machines]
    power = [[c.active_power_w.get(cls, 0.0) for cls in WORK_CLASSES]
             for c in coeffs]
    exponents = [c.clock_exponent for c in coeffs]
    active_ref = batch_active_energy(t_us, class_idx, factors, power,
                                     exponents)
    return [
        _assemble(app, indices[k] if indices is not None else k,
                  machine, base_run.tlp.tlp, base_run.duration_us,
                  active_ref[k], base_run.gpu_busy_us, analytic=True)
        for k, machine in enumerate(machines)
    ]


def score_from_simulation(app, run, machine, config_index=-1):
    """Slow path: score one config from its own re-simulation.

    ``run`` must have been simulated *on* ``machine`` (so its energy
    report already reflects the config's coefficients); this only
    applies the tech/DVFS time and power factors the energy model does
    not know about.  Used by the equivalence check and as the honest
    baseline the speedup benchmark measures against.
    """
    scale = time_scale(machine)
    # Undo nothing, scale everything: the report's joules are per
    # reference-time second; active CPU power additionally carries the
    # node factor.  Recomputed from parts (not report.total_j) so the
    # factors apply per term, mirroring ``_assemble``.
    cpu_active_ref_j = run.energy.cpu_active_j
    return _assemble(app, config_index, machine, run.tlp.tlp,
                     run.duration_us, cpu_active_ref_j,
                     run.gpu_busy_us, analytic=False)
