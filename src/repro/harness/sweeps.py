"""Parameter sweeps: core scaling and SMT.

These drive the paper's architectural-decision experiments:

* :func:`core_scaling_sweep` — Fig. 4 (TLP at 4/8/12 logical CPUs) and
  the per-application time plots of Figs. 5-7.
* :func:`smt_sweep` — Fig. 8 (transcode rate and GPU utilization at
  2/4/6 physical cores, SMT on/off, two GPUs).

Every grid point is an independent simulation, so each sweep builds
its full grid of :class:`~repro.harness.executor.RunSpec` up front
and submits it through the execution engine in one batch, on the
``executor=`` given — exactly as in ``run_suite``.  The other keyword
arguments are run knobs (see :func:`~repro.harness.runner.run_app`).
"""

from repro.hardware import GTX_1080_TI, GTX_680, paper_machine
from repro.harness.executor import SerialExecutor, make_spec
from repro.harness.runner import iteration_specs, summarize_runs


def core_scaling_sweep(app_factory, logical_cpus=(4, 8, 12), machine=None,
                       iterations=1, executor=None, **knobs):
    """Run an app at several logical-CPU counts (SMT enabled).

    ``app_factory`` is a zero-argument callable returning a *fresh*
    application model (models may carry per-run state).  Returns an
    ordered dict ``{count: AppResult}``.
    """
    base = machine or paper_machine()
    specs, spans = [], []
    for count in logical_cpus:
        app = app_factory()
        app_specs = iteration_specs(app, iterations,
                                    machine=base.with_logical_cpus(count),
                                    **knobs)
        spans.append((count, app, len(specs), len(specs) + len(app_specs)))
        specs.extend(app_specs)
    runs = (executor or SerialExecutor()).map(specs)
    return {count: summarize_runs(app, runs[lo:hi])
            for count, app, lo, hi in spans}


def smt_sweep(app_factory, physical_cores=(2, 4, 6), gpus=None, seed=11,
              executor=None, **knobs):
    """The Fig. 8 grid: physical cores x SMT on/off x GPU model.

    Returns ``{(gpu_name, smt_enabled, cores): SingleRun}``.  With SMT
    on, ``cores`` physical cores expose ``2*cores`` logical CPUs; with
    SMT off they expose ``cores``.
    """
    gpus = gpus or (GTX_1080_TI, GTX_680)
    keys, specs = [], []
    for gpu in gpus:
        base = paper_machine().with_gpu(gpu)
        for smt in (True, False):
            for cores in physical_cores:
                machine = base.with_smt(smt).with_logical_cpus(
                    cores * (2 if smt else 1))
                keys.append((gpu.name, smt, cores))
                specs.append(make_spec(app_factory(), machine=machine,
                                       seed=seed, **knobs))
    return dict(zip(keys, (executor or SerialExecutor()).map(specs)))

