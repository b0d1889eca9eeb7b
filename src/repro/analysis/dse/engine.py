"""The campaign engine: partition, simulate once, score many, verify.

:func:`run_campaign` turns (apps x machine configs) into per-app
Pareto frontiers while simulating only what the axis partition says it
must:

1. **Partition** the configs by trace-changing signature
   (:func:`~repro.analysis.dse.axes.partition_configs`).
2. **Simulate** one base run per (app, signature) — plus a seeded
   sample of extra configs re-simulated *in full* purely to check the
   analytic path against ground truth.  All runs go through one
   :class:`~repro.harness.supervisor.SupervisedExecutor` sweep, one
   run per worker round trip, so a crashed or hung grid point
   quarantines alone instead of killing the campaign.
3. **Score** every config of every group analytically from its
   group's base run (:func:`~repro.analysis.dse.score.batch_score`),
   one group at a time: the group's scoring inputs are extracted once
   as columns, already in the scoring kernels' layout (a
   :class:`~repro.hardware.catalog.MachineGrid`'s typed draw columns
   are gathered into float64 arrays when numpy imports, so a generated
   config's machine is built only if it is simulated or reported), and
   scored for every app from those columns; a score object is built
   only when read.  The frontier is taken over each group's
   lowest-EDP member (:func:`frontier_from_groups`).
4. **Verify**: the sampled re-simulations are scored through the slow
   path and compared — exact on TLP (integer-derived), relative
   tolerance on energy/delay floats.  A campaign whose equivalence
   check fails says so in its result rather than hiding it.

The division of labour with the benchmark: the engine reports *what
was simulated vs scored*; ``benchmarks/bench_dse.py`` turns that into
configs-scored/s and the speedup over naive re-simulate-everything.
"""

import math
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.analysis.dse.axes import partition_configs
from repro.analysis.dse.pareto import pareto_frontier
from repro.analysis.dse.score import (
    ConfigColumns,
    batch_score,
    score_from_simulation,
)
from repro.hardware.catalog import MachineGrid
from repro.harness.executor import make_spec
from repro.harness.supervisor import RunFailure, SupervisedExecutor
from repro.sim import SECOND

#: Relative tolerance of the float equivalence check.  The two paths
#: price one activity histogram in one order; they can differ only by
#: numpy's ``**`` rounding, which sits many orders below this.
EQUIVALENCE_RTOL = 1e-6


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the sampled analytic-vs-resimulation check."""

    samples: int
    tlp_exact: bool             # TLP agreed bit-for-bit on every sample
    max_rel_err: float          # worst float deviation (energy/delay)
    rtol: float
    ok: bool

    def to_payload(self):
        return {
            "samples": self.samples,
            "tlp_exact": self.tlp_exact,
            "max_rel_err": self.max_rel_err,
            "rtol": self.rtol,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class CampaignStats:
    """Simulation economy of one campaign."""

    apps: int
    configs: int
    grid_points: int            # apps x configs
    signatures: int             # distinct trace-changing groups
    base_runs: int              # one simulation per (app, signature)
    equivalence_runs: int       # extra simulations spent on checking
    simulated_points: int       # grid points that paid for a simulation
    analytic_fraction: float    # 1 - simulated/grid
    failed_runs: int            # quarantined simulations

    def to_payload(self):
        return {
            "apps": self.apps,
            "configs": self.configs,
            "grid_points": self.grid_points,
            "signatures": self.signatures,
            "base_runs": self.base_runs,
            "equivalence_runs": self.equivalence_runs,
            "simulated_points": self.simulated_points,
            "analytic_fraction": self.analytic_fraction,
            "failed_runs": self.failed_runs,
        }


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    apps: list
    scores: dict                # app -> CampaignScores (None = failed)
    frontiers: dict             # app -> [ConfigScore], best-TLP first
    stats: CampaignStats
    equivalence: object         # EquivalenceReport | None
    failures: list = field(default_factory=list)  # RunFailure records

    def to_payload(self, include_scores=False):
        payload = {
            "apps": list(self.apps),
            "stats": self.stats.to_payload(),
            "equivalence": (self.equivalence.to_payload()
                            if self.equivalence is not None else None),
            "frontiers": {
                app: [score.to_payload() for score in frontier]
                for app, frontier in self.frontiers.items()
            },
            "failures": [f.to_payload() for f in self.failures],
        }
        if include_scores:
            payload["scores"] = {
                app: [s.to_payload() if s is not None else None
                      for s in scores]
                for app, scores in self.scores.items()
            }
        return payload


class CampaignScores(Sequence):
    """One app's scores in campaign config order, built on read.

    Config ``i`` is member ``position[i]`` of group ``owner[i]``;
    ``blocks[g]`` is that group's
    :class:`~repro.analysis.dse.score.GroupScores`, or ``None`` when
    its base run failed (so are its configs' slots).
    """

    def __init__(self, blocks, owner, position):
        self._blocks = blocks
        self._owner = owner
        self._position = position

    def __len__(self):
        return len(self._owner)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        block = self._blocks[self._owner[i]]
        return None if block is None else block[self._position[i]]


def frontier_from_groups(blocks):
    """Pareto frontier of one app's scored config groups.

    All members of a group share one base run and so one TLP; of them
    only the lowest-EDP member (lowest config index on ties) can be
    undominated.  :func:`~repro.analysis.dse.pareto.pareto_frontier`
    walks configs by (-TLP, EDP, index) and keeps strict EDP
    improvements, so running it over those candidates alone — at most
    one per signature — returns exactly the frontier of every score.
    ``None`` blocks (failed base runs) are skipped.
    """
    return pareto_frontier([block.best() for block in blocks
                            if block is not None])


def _sample_equivalence(apps, groups, samples, seed):
    """Seeded sample of (app, config index) pairs to re-simulate.

    Prefers non-representative configs (a representative's "re-
    simulation" would be the base run itself); falls back to the group
    representatives when no group has another member.  The pool is
    every app crossed with those configs, app-major, and is sampled by
    position: ``random.sample`` picks positions from the pool's length
    alone, so drawing from ``range(pool)`` and mapping position ``j``
    to app ``j // m`` and config ``j % m`` of the ``m`` candidates
    picks the same pairs without building the pool.  Returns the
    sample sorted, or the whole pool in pool order when ``samples``
    covers it.
    """
    configs = [index for members in groups.values()
               for index in members[1:]]
    if not configs:
        configs = [members[0] for members in groups.values()]
    m = len(configs)
    pool = len(apps) * m
    rng = random.Random(f"dse-equivalence:{seed}")
    if samples >= pool:
        return [(app, index) for app in apps for index in configs]
    return sorted((apps[j // m], configs[j % m])
                  for j in rng.sample(range(pool), samples))


def run_campaign(apps, machines, duration_us=SECOND, seed=0,
                 equivalence_samples=8, executor=None):
    """Score every (app, config) grid point; simulate only per signature.

    ``apps`` are distinct registry names (a repeat raises
    ``ValueError``: scores and frontiers are keyed by app);
    ``machines`` the configs — a
    :class:`~repro.hardware.catalog.MachineGrid` from
    :func:`repro.hardware.catalog.generate_machines`, read through its
    columns so only the machines the campaign simulates or reports
    are built, or any iterable of machines.  Every run goes through
    ``executor``: a fresh
    :class:`~repro.harness.supervisor.SupervisedExecutor` (in process,
    no cache) when none is given; build one with ``jobs``, a
    ``cache``, ``retries`` or a ``deadline_s`` to get those.
    ``equivalence_samples`` configs are additionally re-simulated in
    full and checked against their analytic scores within
    :data:`EQUIVALENCE_RTOL` (0 disables the check).  Runs use
    streaming metrics — a campaign keeps aggregates, not traces.
    """
    apps = list(apps)
    repeated = duplicate_apps(apps)
    if repeated:
        raise ValueError(f"duplicate applications: {', '.join(repeated)}")
    grid = isinstance(machines, MachineGrid)
    if not grid:
        machines = list(machines)
    groups = partition_configs(machines)
    group_list = list(groups.values())

    plan = [(app, group) for app in apps
            for group in range(len(group_list))]
    specs = [make_spec(app, machine=machines[group_list[group][0]],
                       duration_us=duration_us, seed=seed,
                       streaming=True)
             for app, group in plan]
    checks = []
    if equivalence_samples > 0:
        checks = _sample_equivalence(apps, groups, equivalence_samples,
                                     seed)
        specs += [make_spec(app, machine=machines[index],
                            duration_us=duration_us, seed=seed,
                            streaming=True)
                  for app, index in checks]

    executor = executor or SupervisedExecutor()
    results = executor.map(specs)
    base_runs = results[:len(plan)]
    check_runs = results[len(plan):]

    owner = array("q", [0]) * len(machines)
    position = array("q", [0]) * len(machines)
    # Stored through memoryviews, as generate_machines stores its draws.
    put_owner, put_position = memoryview(owner), memoryview(position)
    blocks = {app: [None] * len(group_list) for app in apps}
    failed = 0
    for group, members in enumerate(group_list):
        for k, index in enumerate(members):
            put_owner[index] = group
            put_position[index] = k
        columns = ConfigColumns(machines if grid
                                else [machines[i] for i in members], members)
        # The plan is app-major, so the group's base runs are every
        # len(group_list)-th result, in app order.
        for app, run in zip(apps, base_runs[group::len(group_list)]):
            if isinstance(run, RunFailure):
                failed += 1
                continue
            blocks[app][group] = batch_score(app, run, columns)
    scores = {app: CampaignScores(blocks[app], owner, position)
              for app in apps}

    equivalence = None
    if equivalence_samples > 0:
        equivalence = _check_equivalence(checks, check_runs, machines,
                                         scores)
        failed += sum(1 for run in check_runs
                      if isinstance(run, RunFailure))

    frontiers = {app: frontier_from_groups(blocks[app]) for app in apps}
    simulated = len({(app, group_list[group][0]) for app, group in plan}
                    | set(checks))
    grid = len(apps) * len(machines)
    stats = CampaignStats(
        apps=len(apps),
        configs=len(machines),
        grid_points=grid,
        signatures=len(groups),
        base_runs=len(plan),
        equivalence_runs=len(checks),
        simulated_points=simulated,
        analytic_fraction=1.0 - simulated / grid if grid else 0.0,
        failed_runs=failed,
    )
    return CampaignResult(
        apps=apps,
        scores=scores,
        frontiers=frontiers,
        stats=stats,
        equivalence=equivalence,
        failures=list(executor.failures),
    )


def duplicate_apps(apps):
    """Names listed more than once in ``apps``, in first-seen order."""
    return [app for app in dict.fromkeys(apps) if apps.count(app) > 1]


def _check_equivalence(checks, check_runs, machines, scores):
    """Compare sampled full re-simulations against analytic scores.

    A sample with a NaN or infinite TLP, wall time, energy or EDP on
    either path has no bounded deviation: it sets ``max_rel_err`` to
    infinity, which fails the check.
    """
    samples = 0
    tlp_exact = True
    max_rel = 0.0
    for (app, index), run in zip(checks, check_runs):
        fast = scores[app][index]
        if isinstance(run, RunFailure) or fast is None:
            continue
        slow = score_from_simulation(app, run, machines[index],
                                     config_index=index)
        samples += 1
        if slow.tlp != fast.tlp:
            tlp_exact = False
        if not all(math.isfinite(getattr(score, attr))
                   for score in (fast, slow)
                   for attr in ("tlp", "wall_s", "energy_j", "edp_js")):
            max_rel = math.inf
            continue
        for attr in ("wall_s", "energy_j", "edp_js"):
            a, b = getattr(fast, attr), getattr(slow, attr)
            denom = max(abs(a), abs(b), 1e-300)
            max_rel = max(max_rel, abs(a - b) / denom)
    return EquivalenceReport(
        samples=samples,
        tlp_exact=tlp_exact,
        max_rel_err=max_rel,
        rtol=EQUIVALENCE_RTOL,
        ok=samples > 0 and tlp_exact and max_rel <= EQUIVALENCE_RTOL,
    )
