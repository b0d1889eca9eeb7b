"""A first-order CPU/GPU energy model.

The paper touches energy twice: dark silicon / TDP motivates the whole
study, and §V-E cites Microsoft's measurement that Edge consumes 36%
less power than Chrome and 53% less than Firefox during browsing.  We
add a simple activity-based energy estimator so those comparisons can
be made inside the simulation:

* each logical CPU draws ``idle`` power always, plus ``active`` power
  scaled by the work class (FU-bound code lights up more of the core)
  and the current clock,
* the GPU draws idle power plus a share of its TDP proportional to
  engine busy time.

Absolute joules are nominal; the model is for *comparisons* (which
browser, which core count, SMT on/off), like every other metric here.

The coefficients are **parametric**: an :class:`EnergyCoefficients`
bundle (per-class active watts, package idle watts, the clock
exponent, GPU TDP override) can be attached to a machine spec — the
design-space-exploration grid (:mod:`repro.analysis.dse`) sweeps these
coefficients without re-simulating, because they never influence the
schedule.  A machine without coefficients uses the module defaults,
bit-identically to the pre-parametric model.

The model keeps one **activity histogram** — integer microseconds of
CPU time per ``(process, work class, clock factor)`` triple — and
nothing else.  The scheduler fills it once per run: it keeps its own
slice histogram while the run simulates and folds it in at run end
(:meth:`~repro.os.scheduler.Scheduler.fold_slices`), one
:meth:`EnergyModel.record_slice` call per bucket.  Active joules are
priced from the histogram on demand, with the expression and the
summation order of the scalar path of
:func:`repro.metrics.kernels.batch_active_energy`, so a full
re-simulation and the DSE fast path (which re-scores the same
histogram under *other* coefficients, without re-running the
scheduler) price one histogram with one formula.
"""

from dataclasses import dataclass, field

from repro.os.work import WorkClass

#: Nominal per-logical-CPU active power (W) by work class, at base clock.
_ACTIVE_POWER_W = {
    WorkClass.FU_BOUND: 8.5,
    WorkClass.MEMORY_BOUND: 5.5,
    WorkClass.BALANCED: 7.0,
    WorkClass.UI: 6.0,
}
#: Package idle power (W) split across logical CPUs.
_CPU_IDLE_W = 6.0
#: Dynamic power scales roughly with f^2 at fixed voltage headroom.
_CLOCK_EXPONENT = 2.0

#: GPU TDPs (W) by architecture for the busy share.
_GPU_TDP_W = {"Pascal": 250.0, "Kepler": 195.0, "Tesla": 204.0}
_GPU_IDLE_W = 12.0


@dataclass(frozen=True)
class EnergyCoefficients:
    """The tunable constants of the energy model, as one value.

    ``active_power_w`` maps a :class:`~repro.os.work.WorkClass` to the
    per-logical-CPU active watts at base clock; ``clock_exponent`` is
    the dynamic-power exponent applied to the turbo clock factor;
    ``gpu_tdp_w=None`` falls back to the per-architecture table.
    These knobs are *trace-invariant*: they change reported joules,
    never the schedule, which is what lets the DSE engine sweep them
    by re-scoring instead of re-simulating.
    """

    active_power_w: dict = field(
        default_factory=lambda: dict(_ACTIVE_POWER_W))
    cpu_idle_w: float = _CPU_IDLE_W
    clock_exponent: float = _CLOCK_EXPONENT
    gpu_tdp_w: float = None
    gpu_idle_w: float = _GPU_IDLE_W


def default_coefficients():
    """The module-default coefficient bundle (the pre-parametric model)."""
    return EnergyCoefficients()


def gpu_tdp_for(coefficients, gpu_spec):
    """Effective GPU TDP (W): the override, else the architecture table."""
    if coefficients.gpu_tdp_w is not None:
        return coefficients.gpu_tdp_w
    return _GPU_TDP_W.get(gpu_spec.architecture, 220.0)


@dataclass
class EnergyReport:
    """Joules consumed over a measurement window."""

    cpu_active_j: float
    cpu_idle_j: float
    gpu_active_j: float
    gpu_idle_j: float
    window_us: int

    @property
    def cpu_j(self):
        return self.cpu_active_j + self.cpu_idle_j

    @property
    def gpu_j(self):
        return self.gpu_active_j + self.gpu_idle_j

    @property
    def total_j(self):
        return self.cpu_j + self.gpu_j

    @property
    def average_power_w(self):
        if self.window_us <= 0:
            return 0.0
        return self.total_j / (self.window_us / 1_000_000.0)


class EnergyModel:
    """Prices CPU activity; reads GPU energy from the device.

    ``coefficients`` defaults to the machine spec's ``coefficients``
    attribute when it carries one (parametric machines from
    :func:`repro.hardware.catalog.parametric_machine` do), else to the
    module defaults — so catalog machines keep their historical joule
    values bit-for-bit.
    """

    def __init__(self, machine, coefficients=None):
        self.machine = machine
        if coefficients is None:
            coefficients = getattr(machine, "coefficients", None)
        self.coefficients = coefficients or default_coefficients()
        #: ``(process, work_class, clock_factor) -> µs`` (see module
        #: docstring).
        self._activity = {}

    def record_slice(self, process_name, work_class, wall_us, clock_factor):
        """Add ``wall_us`` of CPU time to the activity histogram.

        The scheduler calls this once per bucket of its slice
        histogram, at run end, with the bucket's total wall µs; any
        split of the same time into calls gives the same histogram.

        ``clock_factor`` is the turbo multiplier at switch-out, not at
        dispatch: the scheduler buckets each slice by its busy-core
        count after the slice has run, while its CPU still counts as
        busy, and passes ``clock_table[busy cores]``.  It differs from
        the factor that set the slice's speed when other cores went
        busy or idle during the slice.  Every recorded joule, the
        activity histogram and the DSE golden slice are defined by
        this switch-out value.
        """
        key = (process_name, work_class, clock_factor)
        self._activity[key] = self._activity.get(key, 0) + wall_us

    def active_j(self, processes=None):
        """Active CPU joules of ``processes`` (all when ``None``).

        ``activity(processes)`` priced in key order, each entry as
        ``power * factor ** exponent * µs / 1e6`` added to a running
        sum from ``0.0`` — the scalar path of
        :func:`~repro.metrics.kernels.batch_active_energy`, operation
        for operation.
        """
        power = self.coefficients.active_power_w
        exponent = self.coefficients.clock_exponent
        total = 0.0
        for (work_class, factor), wall_us in self.activity(processes).items():
            total += power[work_class] * factor ** exponent * wall_us / 1e6
        return total

    def activity(self, processes=None):
        """``{(work_class, clock_factor): µs}`` aggregated over
        ``processes`` (all processes when ``None``).

        Integer microseconds, deterministically ordered by key — the
        lossless input of analytic energy re-scoring.
        """
        histogram = {}
        for (name, work_class, factor), wall_us in self._activity.items():
            if processes is not None and name not in processes:
                continue
            key = (work_class, factor)
            histogram[key] = histogram.get(key, 0) + wall_us
        return dict(sorted(histogram.items()))

    def report(self, window_us, gpu_device=None, processes=None):
        """Build an :class:`EnergyReport` for a window.

        With ``processes`` set, active CPU energy is restricted to
        those processes (idle power is still whole-package — it exists
        whether or not the app runs, like in a wall-plug measurement).
        """
        active = self.active_j(processes)
        seconds = window_us / 1_000_000.0
        cpu_idle = self.coefficients.cpu_idle_w * seconds
        gpu_active = 0.0
        gpu_idle = self.coefficients.gpu_idle_w * seconds
        if gpu_device is not None:
            tdp = gpu_tdp_for(self.coefficients, gpu_device.spec)
            busy_fraction = min(1.0, gpu_device.busy_us() / max(1, window_us))
            gpu_active = (tdp - self.coefficients.gpu_idle_w) \
                * busy_fraction * seconds
        return EnergyReport(
            cpu_active_j=active,
            cpu_idle_j=cpu_idle,
            gpu_active_j=gpu_active,
            gpu_idle_j=gpu_idle,
            window_us=window_us,
        )
