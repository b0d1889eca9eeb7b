"""Perf — campaign-scale DSE: simulate once per signature, score many.

Runs a full design-space campaign (1000 generated configs x 3 apps by
default) through :func:`repro.analysis.dse.run_campaign` and measures
configs-scored/s, then measures the *naive* rate — fully re-simulating
a seeded sample of grid points, the way a partition-less sweep would
score every point — and records the speedup to ``BENCH_dse.json``.

Honesty conventions:

* The naive baseline is measured, not modelled: real simulations of a
  random sample of the same grid, same duration, same seed, then
  extrapolated linearly (simulation cost per point is flat across the
  grid because every config runs the same apps for the same simulated
  window).
* The campaign's own equivalence check (sampled full re-simulations
  vs analytic scores) must pass before any throughput number is
  reported — a fast path that drifts from ground truth fails here.
* ``REPRO_BENCH_QUICK=1`` shrinks the grid for CI smoke runs; the
  committed JSON and report are only updated by the full run.  The
  >=10x speedup gate is asserted on the full grid where the partition
  has real leverage; the quick grid asserts a >=2x floor.
"""

import json
import os
import pathlib
import random
import time

from repro.analysis.dse import run_campaign
from repro.harness.executor import execute_spec, make_spec
from repro.hardware.catalog import generate_machines
from repro.metrics.kernels import numpy_available
from repro.sim import SECOND

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
APPS = ("excel", "handbrake") if QUICK else \
    ("handbrake", "premiere", "excel")
CONFIGS = 100 if QUICK else 1000
EQ_SAMPLES = 4 if QUICK else 8
NAIVE_SAMPLE = 6 if QUICK else 12
DURATION_US = SECOND // 5
SEED = 2019
MIN_SPEEDUP = 2.0 if QUICK else 10.0

BENCH_JSON = (pathlib.Path(__file__).resolve().parent.parent
              / "BENCH_dse.json")


def run_measurement():
    machines = generate_machines(CONFIGS, seed=SEED)

    t0 = time.perf_counter()
    result = run_campaign(APPS, machines, duration_us=DURATION_US,
                          seed=SEED,
                          equivalence_samples=EQ_SAMPLES)
    campaign_wall = time.perf_counter() - t0

    # The naive baseline: re-simulate a seeded sample of grid points
    # end to end, exactly as a partition-less sweep would for all of
    # them.
    rng = random.Random(f"bench-dse-naive:{SEED}")
    points = rng.sample([(app, i) for app in APPS
                         for i in range(CONFIGS)], NAIVE_SAMPLE)
    t0 = time.perf_counter()
    for app, index in points:
        execute_spec(make_spec(app, machine=machines[index],
                               duration_us=DURATION_US, seed=SEED,
                               streaming=True))
    naive_wall = time.perf_counter() - t0
    return result, campaign_wall, naive_wall


def test_dse(experiment, report):
    result, campaign_wall, naive_wall = experiment(run_measurement)

    stats = result.stats
    eq = result.equivalence
    # Correctness gates come before any throughput claim.
    assert stats.failed_runs == 0, result.failures
    assert eq is not None and eq.ok, eq
    assert stats.analytic_fraction >= 0.8, stats

    campaign_rate = stats.grid_points / campaign_wall
    naive_rate = NAIVE_SAMPLE / naive_wall
    naive_wall_full = stats.grid_points / naive_rate
    speedup = campaign_rate / naive_rate

    payload = {
        "benchmark": "dse",
        "quick": QUICK,
        "apps": list(APPS),
        "configs": CONFIGS,
        "grid_points": stats.grid_points,
        "duration_us": DURATION_US,
        "seed": SEED,
        "numpy": numpy_available(),
        "stats": stats.to_payload(),
        "equivalence": eq.to_payload(),
        "campaign_wall_s": round(campaign_wall, 3),
        "configs_scored_per_s": int(campaign_rate),
        "naive_sample_points": NAIVE_SAMPLE,
        "naive_sample_wall_s": round(naive_wall, 3),
        "naive_configs_per_s": round(naive_rate, 2),
        "naive_wall_s_extrapolated": round(naive_wall_full, 1),
        "speedup_vs_naive": round(speedup, 1),
        "frontier_points": {app: len(frontier) for app, frontier
                            in result.frontiers.items()},
    }
    lines = [
        "Perf — campaign-scale design-space exploration",
        "",
        f"grid          : {CONFIGS} configs x {len(APPS)} apps = "
        f"{stats.grid_points} points"
        + ("  [quick]" if QUICK else ""),
        f"partition     : {stats.signatures} trace-changing signatures"
        f" -> {stats.base_runs} base + {stats.equivalence_runs} "
        f"equivalence runs",
        f"analytic      : {stats.analytic_fraction:.1%} of the grid "
        f"scored without simulating",
        f"equivalence   : ok ({eq.samples} samples, TLP exact, "
        f"max rel err {eq.max_rel_err:.1e} vs rtol {eq.rtol:g})",
        f"campaign      : {campaign_wall:7.2f} s wall, "
        f"{campaign_rate:10,.0f} configs/s",
        f"naive         : {naive_rate:10.2f} configs/s measured on "
        f"{NAIVE_SAMPLE} sampled full re-simulations "
        f"(~{naive_wall_full:,.0f} s for the whole grid)",
        f"speedup       : {speedup:5.1f}x configs-scored/s vs "
        f"re-simulate-everything",
    ]
    if QUICK:
        print("\n".join(lines))
    else:
        BENCH_JSON.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        report("perf_dse", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"expected >={MIN_SPEEDUP:g}x configs-scored/s over the naive "
        f"baseline, got {speedup:.1f}x")
