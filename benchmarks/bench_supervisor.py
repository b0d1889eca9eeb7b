"""Perf — supervision overhead on the 150-run golden grid.

Runs the full 30-app x 5-golden-config grid (1 s simulated per run)
through the plain serial executor and through the supervised executor
in the same serial mode, asserts the supervised results are
bit-identical, and holds the supervision overhead under 3% — the
watchdog, retry bookkeeping and quarantine plumbing must be free when
nothing fails.  Numbers land in ``BENCH_supervisor.json``.

``REPRO_BENCH_QUICK=1`` shrinks the grid and skips the overhead
assertion (quick CI machines are too noisy for a 3% bound); it prints
its numbers but writes neither the JSON nor the report, which hold
full-mode numbers only.
"""

import json
import os
import pathlib
import time

from repro.apps import SUITE
from repro.harness.executor import SerialExecutor
from repro.harness.supervisor import SupervisedExecutor
from repro.validate import GOLDEN_CONFIGS, fingerprint_run, golden_spec

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
APPS = SUITE[:4] if QUICK else SUITE
PASSES = 1 if QUICK else 3
MAX_OVERHEAD = 0.03

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_supervisor.json"


def grid():
    return [golden_spec(app, cores, smt)
            for app in APPS for cores, smt in GOLDEN_CONFIGS]


def timed_pass(make_executor):
    specs = grid()
    executor = make_executor()
    t0 = time.perf_counter()
    results = executor.map(specs)
    return time.perf_counter() - t0, results


def run_measurement():
    """Interleaved best-of-``PASSES`` timing of both executors.

    A warm-up pass absorbs one-time import and allocator effects, and
    interleaving plain/supervised passes keeps slow machine-level
    drift (CPU frequency, noisy neighbours) from being attributed to
    whichever executor happened to run last.
    """
    def make_supervised():
        return SupervisedExecutor(retries=2)

    timed_pass(SerialExecutor)      # warm-up, discarded
    t_plain = t_supervised = None
    plain = supervised = None
    for _ in range(PASSES):
        elapsed, plain = timed_pass(SerialExecutor)
        t_plain = elapsed if t_plain is None else min(t_plain, elapsed)
        elapsed, supervised = timed_pass(make_supervised)
        t_supervised = (elapsed if t_supervised is None
                        else min(t_supervised, elapsed))
    return t_plain, plain, t_supervised, supervised


def test_perf_supervisor(experiment, report):
    t_plain, plain, t_supervised, supervised = experiment(run_measurement)

    assert [fingerprint_run(run) for run in supervised] == \
        [fingerprint_run(run) for run in plain]

    n_runs = len(APPS) * len(GOLDEN_CONFIGS)
    overhead = t_supervised / t_plain - 1.0 if t_plain > 0 else 0.0
    payload = {
        "benchmark": "perf_supervisor",
        "grid_runs": n_runs,
        "configs": len(GOLDEN_CONFIGS),
        "apps": len(APPS),
        "passes": PASSES,
        "wall_plain_s": round(t_plain, 3),
        "wall_supervised_s": round(t_supervised, 3),
        "overhead_pct": round(overhead * 100, 2),
        "bit_identical": True,
        "quick": QUICK,
    }
    lines = [
        "Perf — supervised executor overhead (golden grid)",
        "",
        f"grid       : {len(APPS)} apps x {len(GOLDEN_CONFIGS)} configs "
        f"= {n_runs} runs (1s simulated each)",
        f"plain      : {t_plain:7.2f} s wall",
        f"supervised : {t_supervised:7.2f} s wall "
        f"(retries=2 armed, none needed)",
        f"overhead   : {overhead * 100:7.2f} %",
        "results    : bit-identical to plain serial (asserted)",
    ]
    if QUICK:
        print("\n".join(lines))
    else:
        BENCH_JSON.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        report("perf_supervisor", "\n".join(lines))

    if not QUICK:
        assert overhead < MAX_OVERHEAD, (
            f"supervision overhead {overhead * 100:.2f}% exceeds "
            f"{MAX_OVERHEAD * 100:.0f}% on the {n_runs}-run grid")
