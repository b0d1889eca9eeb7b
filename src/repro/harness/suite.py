"""Full-suite execution: the Table II protocol.

Runs every application in the registry for N iterations on the paper
machine and aggregates per-category averages, the overall average TLP
and the TLP > 4 count the paper's abstract headlines.

The whole protocol is one flat grid of independent simulations
(30 applications x 3 iterations), so it submits through the execution
engine in a single batch: ``jobs=N`` fans the grid out over N worker
processes with bit-identical results, and a ``cache`` skips grid
points a previous campaign already computed.
"""

from dataclasses import dataclass, field

from repro.apps import CATEGORIES, SUITE, create_app
from repro.harness.executor import resolve_executor
from repro.harness.runner import (
    DEFAULT_DURATION_US,
    DEFAULT_ITERATIONS,
    iteration_specs,
    summarize_runs,
)
from repro.metrics import mean


@dataclass
class SuiteResult:
    """Results for every application plus the aggregate views.

    Under a :class:`~repro.harness.supervisor.SupervisedExecutor` a
    sweep can lose individual grid points; ``failures`` carries their
    quarantined :class:`~repro.harness.supervisor.RunFailure` records,
    and an app whose every iteration failed has no row in ``results``
    (the aggregates are honest about what was actually measured).
    """

    results: dict                # app key -> AppResult
    failures: list = field(default_factory=list)

    def category_averages(self):
        """{Category: (avg TLP, avg GPU util)} — Table II's last columns."""
        averages = {}
        for category, names in CATEGORIES.items():
            rows = [self.results[name] for name in names
                    if name in self.results]
            if rows:
                averages[category] = (
                    mean(r.tlp.mean for r in rows),
                    mean(r.gpu_util.mean for r in rows),
                )
        return averages

    def overall_average_tlp(self):
        """The abstract's headline: average TLP across all apps."""
        return mean(r.tlp.mean for r in self.results.values())

    def apps_with_tlp_above(self, threshold=4.0):
        """The paper reports 6 of 30 applications above TLP 4."""
        return [name for name, r in self.results.items()
                if r.tlp.mean > threshold]

    def apps_reaching_max_tlp(self, n_logical=12):
        """Applications whose instantaneous TLP touches the maximum."""
        return [name for name, r in self.results.items()
                if r.max_instantaneous >= n_logical]


def suite_spans(names, machine=None, duration_us=DEFAULT_DURATION_US,
                iterations=DEFAULT_ITERATIONS, **kwargs):
    """The flat spec grid of one suite, plus its per-app spans.

    Returns ``(spans, specs)`` where ``spans`` is ``[(app, lo, hi),
    ...]`` naming the slice of ``specs`` that measures each app.  The
    sweep service submits through this too, so a service sweep and a
    CLI suite of the same request are the *same* grid points — equal
    cache keys, equal digests, equal results.
    """
    specs, spans = [], []
    for name in names:
        app = create_app(name)
        app_specs = iteration_specs(app, machine=machine,
                                    duration_us=duration_us,
                                    iterations=iterations, **kwargs)
        spans.append((app, len(specs), len(specs) + len(app_specs)))
        specs.extend(app_specs)
    return spans, specs


def aggregate_results(spans, runs):
    """Fold executor output back into ``{app name: AppResult}`` rows.

    An app whose every iteration was quarantined has no row
    (``summarize_runs`` raises for it) — shared by :func:`run_suite`
    and the sweep service so both aggregate identically.
    """
    results = {}
    for app, lo, hi in spans:
        try:
            results[app.name] = summarize_runs(app, runs[lo:hi])
        except RuntimeError:
            # Every iteration quarantined; the caller's failure
            # records are the only honest row for this app.
            continue
    return results


def run_suite(names=SUITE, machine=None, duration_us=DEFAULT_DURATION_US,
              iterations=DEFAULT_ITERATIONS, jobs=None, executor=None,
              cache=None, **kwargs):
    """Run the Table II protocol over ``names`` and aggregate."""
    executor = resolve_executor(jobs=jobs, executor=executor, cache=cache)
    spans, specs = suite_spans(names, machine=machine,
                               duration_us=duration_us,
                               iterations=iterations, **kwargs)
    runs = executor.map(specs)
    return SuiteResult(
        results=aggregate_results(spans, runs),
        failures=list(executor.failures))
