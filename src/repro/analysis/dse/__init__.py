"""Design-space exploration: simulate-once, score-many campaign sweeps.

The paper's §V core-scaling question ("would these apps benefit from
more cores?") is answered here *prospectively*, over thousands of
generated machine configs, by partitioning the config axes by what
they can possibly change (:mod:`repro.analysis.dse.axes`):

* **trace-invariant** axes (energy coefficients, voltage, tech-node
  power scaling) are pure re-scoring — the schedule cannot see them;
* **trace-rescaling** axes (uniform frequency scaling) replay the
  identical schedule with a different tick length, so every metric is
  an analytic function of one base run;
* **trace-changing** axes (core count, SMT ways) are the only class
  that pays for a simulation.

:func:`~repro.analysis.dse.engine.run_campaign` simulates one base
run per (app, trace-changing signature), batch-scores the rest of the
grid with the vectorized kernel
(:func:`repro.metrics.kernels.batch_active_energy`), equivalence-
checks a sampled subset against full re-simulation, and reports a
Pareto frontier (Eq.-1 TLP vs energy-delay) per app.
"""

from repro.analysis.dse.axes import partition_configs, sim_signature
from repro.analysis.dse.engine import (
    CampaignResult,
    CampaignStats,
    EquivalenceReport,
    run_campaign,
)
from repro.analysis.dse.pareto import pareto_frontier
from repro.analysis.dse.score import (
    ConfigScore,
    batch_score,
    coefficients_for,
    node_power_scale,
    score_from_simulation,
    time_scale,
)

__all__ = [
    "CampaignResult",
    "CampaignStats",
    "ConfigScore",
    "EquivalenceReport",
    "batch_score",
    "coefficients_for",
    "node_power_scale",
    "pareto_frontier",
    "partition_configs",
    "run_campaign",
    "score_from_simulation",
    "sim_signature",
    "time_scale",
]
