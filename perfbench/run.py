"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` repeats untraced passes for ``--seconds`` and reports the
end-to-end metrics (medians over passes); ``--trace 1`` runs a traced
pass between two untraced ones and reports the per-layer split.  Either
way the correctness gate runs once, untimed, and any failed check makes
the exit status nonzero.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable summary and the provenance.  Details
(every pass, every check, spans) land in ``.perfbench/results``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, Python puts perfbench/ itself first on the path;
# the package is imported from the checkout root instead.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

#: Files the benchmark needs from the checkout besides its own.
REQUIRED = ("src/repro/__init__.py", "tests/golden/golden_traces.json",
            "tests/golden/golden_dse.json", "tests/test_dse_golden.py")

WORKLOADS = ("table2-cold", "dse-campaign", "service-mixed")

#: Per-layer metric names; every one is printed by ``--trace 1``.
SERVICE_LATENCIES = ("sweep_new_p50_ms", "sweep_repeat_p50_ms",
                     "sweep_p90_ms", "read_p50_ms", "read_p99_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu():
    """Run this process and every child (daemons, workers, set-up
    interpreters) on one CPU.

    On a shared two-vCPU VM, wake-ups across vCPUs made the service's
    closed loop bimodal from run to run (2.4 s or 3.5 s per pass, an
    inter-quartile spread of 0.27-0.46 of the median over 8 seeds);
    on one CPU the spread was 0.07.  Serial batch workloads lose
    nothing by it.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        pass


def make_workload(name, seed, work):
    if name == "table2-cold":
        from perfbench.table2 import Table2Cold
        return Table2Cold(seed, work)
    if name == "dse-campaign":
        from perfbench.dse import DseCampaign
        return DseCampaign(seed, work)
    from perfbench.service import ServiceMixed
    return ServiceMixed(seed, work)


def provenance(args, workload):
    from perfbench.common import usable_cpus

    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    from perfbench.common import sha256

    sources = sorted((ROOT / "src").rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": has_numpy, "commit": commit,
        "src_digest": sha256(*(p.read_bytes() for p in sources)),
        "workload_inputs": workload.provenance(),
    }


def run_passes(workload, seconds):
    """Untraced passes for ``seconds``: at least one, and another only
    while the median pass so far still fits in the time left."""
    from perfbench.common import clock, reference_s, reset_peak_rss
    from perfbench.stats import median

    passes = []
    durations = []
    start = clock()
    rss_reset = True
    while not passes or clock() - start + median(durations) <= seconds:
        began = clock()
        rss_reset = reset_peak_rss() and rss_reset
        reference = reference_s()
        result = workload.run_pass()
        result["reference_s"] = (reference + reference_s()) / 2
        durations.append(clock() - began)
        if passes:
            # Only the first pass's artifacts feed the checks.
            result.pop("suite", None)
            result.pop("payload", None)
        passes.append(result)
    return passes, rss_reset


def service_latencies(passes):
    """Sweep and read percentiles pooled over service passes, plus the
    median recovery time, as ``{name: (value, unit, samples)}``.

    The named levels are reported only where the percentile rule allows
    (at least 10 samples beyond); next to them, each sample set also
    gets its highest reportable percentile.
    """
    from perfbench.stats import highest_percentile, median, percentile

    samples = {
        "sweep_new": [v for p in passes for v in p["sweep_ms"]["new"]],
        "sweep_repeat": [v for p in passes
                         for v in p["sweep_ms"]["repeat"]],
        "read": [v for p in passes for v in p["read_ms"]],
    }
    samples["sweep"] = samples["sweep_new"] + samples["sweep_repeat"]
    out = {}
    for kind, levels in (("sweep_new", (50,)), ("sweep_repeat", (50,)),
                         ("sweep", (90,)), ("read", (50, 99))):
        values = samples[kind]
        best = highest_percentile(values)
        if best is not None:
            out[f"{kind}_p{best[0]:g}_ms"] = (best[1], "ms", len(values))
        for p in levels:
            try:
                out[f"{kind}_p{p}_ms"] = (percentile(values, p), "ms",
                                          len(values))
            except ValueError:
                pass        # refused: too few samples beyond it
    out["recovery_s"] = (median([p["recovery_s"] for p in passes]), "s",
                         len(passes))
    return out


def end_to_end(passes, setup, records, fid):
    """The bounded metrics.  Each time is normalized to the reference
    speed: multiplied by ``REFERENCE_S`` over the reference loop time
    measured around it (see the README, "Normalized times")."""
    from perfbench.common import REFERENCE_S
    from perfbench.stats import median

    wall = median([p["wall_s"] * REFERENCE_S / p["reference_s"]
                   for p in passes])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mib": (median([p["peak_rss_mib"] for p in passes]), "MiB"),
        "events_per_s": (records / wall, "records/s"),
        "points_per_s": (passes[0]["points"] / wall, "points/s"),
        "tlp_abs_err": (fid[0], "TLP"),
        "gpu_abs_err": (fid[1], "pp"),
    }


def raw_times(passes, raw_setup):
    """Measured, not normalized: for the summary and the results file."""
    from perfbench.stats import median

    return {"raw_wall_s": (median([p["wall_s"] for p in passes]), "s",
                           None),
            "raw_setup_s": (median(raw_setup), "s", None),
            "reference_s": (median([p["reference_s"] for p in passes]),
                            "s", None)}


def traced_layers(workload, untraced, traced, tracer):
    """Per-layer metrics of the traced pass, plus tracing overhead
    against the mean of the ``untraced`` passes around it."""
    from perfbench.probes import attributed_s, layer_totals, per_layer

    if workload.name == "service-mixed":
        from perfbench.service import attribute

        totals, counters = layer_totals(traced["tracers"])
        _, wait = attribute(traced["log"], traced["tracers"][0])
        latency = sum(end - start for _, _, start, end in traced["log"])
        coverage = latency / (workload.connections * traced["wall_s"])
    else:
        totals, counters = layer_totals([tracer])
        wait = 0.0
        coverage = attributed_s(totals) / traced["wall_s"]
    metrics = per_layer(totals, counters)
    metrics["service.wait_s"] = (wait, "s")
    metrics["service.dedup_ratio"] = (0.0, "ratio")
    metrics["analysis.dse.signatures"] = (0, "count")
    metrics["analysis.dse.analytic_fraction"] = (0.0, "ratio")
    if hasattr(workload, "layer_extras"):
        metrics.update(workload.layer_extras(untraced[0]))
    untraced_wall = sum(p["wall_s"] for p in untraced) / len(untraced)
    metrics["tracing.wall_s"] = (traced["wall_s"], "s")
    metrics["tracing.untraced_wall_s"] = (untraced_wall, "s")
    metrics["tracing.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    metrics["tracing.coverage"] = (coverage, "ratio")
    metrics["tracing.spans"] = (
        sum(len(t.spans) for t in traced.get("tracers", [tracer])), "count")
    latencies = (service_latencies(untraced)
                 if workload.name == "service-mixed" else {})
    for name in SERVICE_LATENCIES:
        metrics[name] = (latencies.get(name, (0.0,))[0], "ms")
    metrics["recovery_s"] = (latencies.get("recovery_s", (0.0,))[0], "s")
    return metrics, totals


def main(argv=None):
    args = parse_args(argv)
    # A terminated run still unwinds its finally blocks, which stop the
    # daemons it started and delete its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}; run from "
              f"a full checkout of the repository", file=sys.stderr)
        return 2
    pin_to_one_cpu()

    from perfbench.common import REFERENCE_S, WORK, reference_s, time_imports
    from perfbench.gate import run_gate
    from perfbench.probes import ROOT as ROOT_SPAN, Tracer, install
    from perfbench.stats import FailureTally

    WORK.mkdir(exist_ok=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = make_workload(args.workload, args.seed, work)
        problems, golden_fid = run_gate()
        raw_setup = setup = []
        if workload.setup_modules:
            reference = reference_s()
            raw_setup = time_imports(workload.setup_modules, 5)
            scale = 2 * REFERENCE_S / (reference + reference_s())
            setup = [sample * scale for sample in raw_setup]
        if args.trace == 0:
            passes, rss_reset = run_passes(workload, args.seconds)
            runs = passes
            if not workload.setup_modules:
                raw_setup = [p["setup_s"] for p in passes]
                setup = [p["setup_s"] * REFERENCE_S / p["reference_s"]
                         for p in passes]
            metrics = end_to_end(passes, setup, workload.events(),
                                 workload.fidelity(passes[0], golden_fid))
            extra = raw_times(passes, raw_setup)
            if workload.name == "service-mixed":
                extra.update(service_latencies(passes))
        else:
            from perfbench.common import reset_peak_rss

            # Untraced passes on both sides of the traced one, so the
            # overhead is not confused with first-pass warm-up or drift.
            rss_reset = reset_peak_rss()
            before = workload.run_pass()
            tracer = Tracer()
            undo = install(tracer)
            try:
                with tracer.span(ROOT_SPAN):
                    traced = workload.run_pass(tracer)
            finally:
                undo()
            after = workload.run_pass()
            runs = [before, traced, after]
            metrics, totals = traced_layers(workload, [before, after],
                                            traced, tracer)
            with open(results / f"spans-{args.workload}-seed{args.seed}"
                      f".json", "w") as handle:
                json.dump([t.dump() for t in traced.get("tracers",
                                                        [tracer])], handle)
            extra = {}
        problems += workload.check(runs[0])
        report = {"provenance": provenance(args, workload)}
        digests = {p["digest"] for p in runs}
        if len(digests) != 1:
            problems.append(f"output digest differs between passes "
                            f"({len(digests)} distinct)")
        tally = FailureTally()
        for p in runs:
            tally.merge(p["tally"])
        report["provenance"].update({
            "passes": len(runs), "setup_samples": len(setup),
            "peak_rss": "per pass (VmHWM reset)" if rss_reset
            else "process lifetime (VmHWM reset refused)",
            "output_digest": sorted(digests)[0],
            "percentile_samples": {k: n for k, (_, _, n) in extra.items()
                                   if n},
            "reference_s": REFERENCE_S,
        })
        report.update({
            "problems": problems,
            "passes": [{k: v for k, v in p.items()
                        if isinstance(v, (int, float, str))}
                       for p in runs],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "failed_pct": tally.pct,
            "unbounded": {k: v for k, (v, _, _) in extra.items()},
        })
        with open(results / f"{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}.json", "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)

        print(f"perfbench {args.workload} seed {args.seed} "
              f"({len(runs)} pass{'es' if len(runs) != 1 else ''})")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {value:>16.6g} {unit}")
        print(f"  {'failed_pct':<32} {tally.pct:>16.6g} %  "
              f"({tally.failed} of {tally.attempted})")
        for name, (value, unit, n) in extra.items():
            detail = f"  (n={n})" if n else ""
            print(f"  {name:<32} {value:>16.6g} {unit}{detail}")
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
        print("provenance " + json.dumps(report["provenance"],
                                         sort_keys=True))
        print(json.dumps({
            "correct": not problems,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
