"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    List the 30 benchmark applications with categories and the
    paper-reported Table II values.
``run APP``
    Run one application with the paper protocol and print its metrics
    (``--cores``, ``--no-smt``, ``--gpu``, ``--duration``,
    ``--iterations``, ``--manual`` configure the machine and driver).
``suite``
    Run the full Table II protocol (or ``--apps a,b,c``) and print the
    rendered table.
``system``
    Print the Table I system specification.
``compare BEFORE.json AFTER.json``
    Longitudinal comparison of two stored suite results (the 18-year
    -perspective workflow, continued).
``serve``
    Run the sweep service daemon: ``POST /sweeps`` submits app x
    machine x config sweeps through the supervised executor (deduped
    by sweep digest), ``GET /sweeps/{id}`` reports progress and
    streams results, and ``GET /tables/...``/``GET /frontiers/...``
    serve the committed golden artifacts with ``ETag`` revalidation.
    Results are byte-identical to ``repro suite --json`` output for
    the same specs.  ``POST /shutdown`` drains in-flight jobs and
    exits.
``validate``
    Trace-invariant and golden-fingerprint regression check: replay the
    golden grid (4/8/12 logical CPUs with SMT, 4/6 without), validate
    every trace against the invariant catalogue and diff metric
    fingerprints against ``tests/golden/golden_traces.json``
    (``--update-golden`` re-records them; ``--streaming`` cross-checks
    the in-simulation metrics engine against the same goldens).  Each
    run's Eq.-1 TLP is also checked against the static work/span
    ceiling from ``repro lint`` (``--no-static`` skips this).
``lint``
    Static concurrency analysis without simulating: shadow-build every
    app model, detect lock-order deadlock cycles, compute work/span
    TLP bounds and AST-lint the app sources.  Nonzero exit when any
    finding is at/above ``--fail-on`` (default: warning).
``dse``
    Campaign-scale design-space exploration: score ``--configs``
    generated machines (core count, SMT, tech node, DVFS, energy
    coefficients) per app, simulating only one base run per
    trace-changing signature and scoring the rest analytically from
    activity histograms.  Prints per-app Pareto frontiers (Eq.-1 TLP
    vs energy-delay) and the analytic-vs-resimulation equivalence
    verdict; nonzero exit when the check fails or runs quarantine.
"""

import argparse
import math
import os
import sys

from repro.apps import REGISTRY, SUITE, create_app
from repro.automation import AUTOIT, MANUAL
from repro.harness import run_app, run_suite
from repro.hardware import GPUS, paper_machine
from repro.reporting import format_table, heat_row, render_table1, render_table2
from repro.sim import SECOND


def _check_exec_args(args, out):
    """Validate run and sweep arguments before any simulation starts.

    Covers every verb's flags by name (a verb without the flag skips
    its check): a value that cannot run is an ``error:`` line and exit
    status 2, never a traceback or a quarantined run.
    """
    duration = getattr(args, "duration", None)
    if duration is not None and not (math.isfinite(duration)
                                     and int(duration * SECOND) >= 1):
        out("error: --duration must be at least 1 microsecond of "
            "simulated time")
        return 2
    if getattr(args, "iterations", None) is not None \
            and args.iterations < 1:
        out("error: --iterations must be >= 1")
        return 2
    for flag in ("top", "equivalence"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            out(f"error: --{flag} must be >= 0")
            return 2
    if getattr(args, "jobs", None) is not None and args.jobs < 0:
        out("error: --jobs must be >= 0 (0 = one process per CPU)")
        return 2
    cache = getattr(args, "cache", None)
    if cache == "":
        out("error: --cache requires a directory path")
        return 2
    if cache is not None and os.path.exists(cache) and not os.path.isdir(cache):
        out(f"error: --cache {cache!r} is not a directory")
        return 2
    if getattr(args, "retries", None) is not None and args.retries < 0:
        out("error: --retries must be >= 0")
        return 2
    deadline = getattr(args, "deadline_us", None)
    if deadline is not None and deadline <= 0:
        out("error: --deadline-us must be a positive wall-clock budget")
        return 2
    if getattr(args, "cores", None) is not None:
        try:
            _machine_from_args(args)
        except ValueError as exc:
            out(f"error: --cores does not fit the machine: {exc}")
            return 2
    return 0


def _executor_from_args(args):
    """The verb's one executor: supervised, with the ``--jobs``,
    ``--cache``, ``--retries`` and ``--deadline-us`` it has.  A run
    that raises is quarantined as ``crash``, never a traceback."""
    from repro.harness import ResultCache, SupervisedExecutor

    cache = getattr(args, "cache", None)
    deadline_us = getattr(args, "deadline_us", None)
    return SupervisedExecutor(
        jobs=args.jobs,
        cache=ResultCache(cache) if cache is not None else None,
        retries=getattr(args, "retries", None) or 0,
        deadline_s=deadline_us / 1e6 if deadline_us else None)


def _machine_from_args(args):
    """The machine the flags select: the era's testbed (Table I's
    unless ``--era 2010``), then ``--gpu``, ``--no-smt`` and
    ``--cores``."""
    base = None
    if getattr(args, "era", None) == 2010:
        from repro.hardware import machine_2010

        base = machine_2010()
    return paper_machine(gpu=getattr(args, "gpu", None),
                         smt=not getattr(args, "no_smt", False),
                         cores=getattr(args, "cores", None), base=base)


def cmd_list(_args, out):
    rows = [
        (name, cls.display_name, cls.category.value,
         f"{cls.paper_tlp:4.1f}", f"{cls.paper_gpu_util:5.1f}")
        for name, cls in ((key, REGISTRY[key]) for key in SUITE)
    ]
    out(format_table(
        ("key", "application", "category", "TLP*", "GPU%*"), rows,
        title="Benchmark suite (* = paper-reported Table II values)"))
    return 0


def cmd_system(_args, out):
    out(render_table1(paper_machine()))
    return 0


def cmd_run(args, out):
    if _check_exec_args(args, out):
        return 2
    if args.era == 2010:
        from repro.apps.era2010 import ERA2010_REGISTRY

        if args.app not in ERA2010_REGISTRY:
            out(f"error: unknown 2010-era application {args.app!r}; "
                f"known: {', '.join(sorted(ERA2010_REGISTRY))}")
            return 2
        app = ERA2010_REGISTRY[args.app]()
    else:
        if args.app not in REGISTRY:
            out(f"error: unknown application {args.app!r}; "
                f"try `python -m repro list`")
            return 2
        app = create_app(args.app)
    machine = _machine_from_args(args)
    driver = MANUAL if args.manual else AUTOIT
    executor = _executor_from_args(args)
    try:
        result = run_app(app,
                         machine=machine,
                         duration_us=int(args.duration * SECOND),
                         iterations=args.iterations,
                         driver_mode=driver,
                         executor=executor,
                         streaming=args.streaming,
                         validate=args.validate)
    except RuntimeError as exc:
        if not executor.failures:
            raise
        from repro.reporting import render_failures

        out(render_failures(executor.failures))
        out(f"error: {exc}")
        return 1
    out(f"{result.display_name} on {machine.cpu.name} "
        f"({machine.logical_cpus} LCPUs, SMT "
        f"{'on' if machine.smt_enabled else 'off'}, {machine.gpu.name})")
    out(f"  TLP             : {result.tlp}")
    capped = " (*saturated)" if result.gpu_capped else ""
    out(f"  GPU utilization : {result.gpu_util}{capped}")
    out(f"  max instant TLP : {result.max_instantaneous}")
    out(f"  heat map c0..cN : |{heat_row(result.fractions)}|")
    printable = {k: v for k, v in result.outputs.items()
                 if isinstance(v, (int, float, str, bool))}
    if printable:
        out(f"  outputs         : {printable}")
    if result.partial:
        out("  NOTE: partial result — some iterations were quarantined")
    if executor.failures:
        from repro.reporting import render_failures

        out(render_failures(executor.failures))
        return 1
    return 0


def cmd_suite(args, out):
    if _check_exec_args(args, out):
        return 2
    names = SUITE if not args.apps else tuple(args.apps.split(","))
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        out(f"error: unknown applications: {', '.join(unknown)}")
        return 2
    suite = run_suite(names=names,
                      machine=_machine_from_args(args),
                      duration_us=int(args.duration * SECOND),
                      iterations=args.iterations,
                      executor=_executor_from_args(args),
                      streaming=args.streaming,
                      validate=args.validate)
    out(render_table2(suite))
    if suite.failures:
        from repro.reporting import render_failures

        out(render_failures(suite.failures))
    if args.json:
        from repro.harness.persistence import save_suite

        save_suite(suite, args.json,
                   metadata={"duration_s": args.duration,
                             "iterations": args.iterations})
        out(f"saved JSON results to {args.json}")
    if args.csv:
        from repro.reporting.export import suite_to_csv

        suite_to_csv(suite, args.csv)
        out(f"saved CSV results to {args.csv}")
    return 1 if suite.failures else 0


def cmd_validate(args, out):
    from repro.harness import RunFailure
    from repro.validate import (
        GOLDEN_CONFIGS,
        TraceValidator,
        compare_fingerprints,
        config_id,
        fingerprint_run,
        golden_machine,
        golden_spec,
        load_goldens,
        save_goldens,
    )

    if _check_exec_args(args, out):
        return 2
    names = SUITE if not args.apps else tuple(args.apps.split(","))
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        out(f"error: unknown applications: {', '.join(unknown)}")
        return 2

    goldens = None
    if not args.update_golden:
        try:
            goldens = load_goldens(args.golden)
        except FileNotFoundError:
            out("warning: no golden file found "
                "(run `repro validate --update-golden` to record one); "
                "checking invariants only")

    grid = [(name, cores, smt)
            for name in names for cores, smt in GOLDEN_CONFIGS]
    specs = [golden_spec(name, cores, smt) for name, cores, smt in grid]
    for spec in specs:
        spec.kwargs["keep_trace"] = True  # invariants need the trace
    executor = _executor_from_args(args)

    failures = 0
    fingerprints = {}
    static_bounds = {}
    for (name, cores, smt), run in zip(grid, executor.map(specs)):
        cid = config_id(cores, smt)
        if isinstance(run, RunFailure):
            failures += 1
            out(f"FAIL {name} [{cid}] quarantined as {run.kind}: "
                f"{run.detail}")
            continue
        report = TraceValidator(
            golden_machine(cores, smt).logical_cpus).validate(run.trace)
        problems = [str(v) for v in report.violations]
        fingerprint = fingerprint_run(run)
        fingerprints.setdefault(name, {})[cid] = fingerprint
        if not args.no_static:
            from repro.analysis.static import (analyze_work_span, check_bound,
                                               extract_structure)

            if (name, cid) not in static_bounds:
                static_bounds[name, cid] = analyze_work_span(
                    extract_structure(name,
                                      machine=golden_machine(cores, smt)))
            error = check_bound(static_bounds[name, cid],
                                float.fromhex(fingerprint["tlp"]),
                                machine_label=cid)
            if error:
                problems.append(f"static TLP bound violated: {error}")
        if goldens is not None:
            expected = goldens.get(name, {}).get(cid)
            if expected is None:
                problems.append("no committed golden fingerprint")
            else:
                problems += compare_fingerprints(expected, fingerprint)
        if problems:
            failures += 1
            out(f"FAIL {name} [{cid}]")
            for problem in problems:
                out(f"  {problem}")

    if args.streaming:
        streaming_specs = [golden_spec(name, cores, smt, streaming=True)
                           for name, cores, smt in grid]
        for spec in streaming_specs:
            spec.kwargs["validate"] = True  # online edge-stream checks
        for (name, cores, smt), run in zip(
                grid, executor.map(streaming_specs)):
            cid = config_id(cores, smt)
            expected = fingerprints.get(name, {}).get(cid)
            if expected is None:
                continue        # its post-hoc run was quarantined
            mismatches = (
                [f"quarantined as {run.kind}: {run.detail}"]
                if isinstance(run, RunFailure)
                else compare_fingerprints(expected, fingerprint_run(run)))
            if mismatches:
                failures += 1
                out(f"FAIL {name} [{cid}] streaming != post-hoc")
                for mismatch in mismatches:
                    out(f"  {mismatch}")

    checked = len(grid) * (2 if args.streaming else 1)
    if args.update_golden:
        try:
            merged = load_goldens(args.golden)
        except FileNotFoundError:
            merged = {}
        if failures:
            out(f"error: refusing to record goldens with {failures} "
                f"invariant failure(s)")
            return 1
        merged.update(fingerprints)
        path = save_goldens(merged, args.golden)
        out(f"recorded {len(grid)} golden fingerprints "
            f"({len(names)} apps) to {path}")
        return 0
    if failures:
        out(f"validate: {failures} of {checked} checks FAILED")
        return 1
    out(f"validate: {checked} checks ok "
        f"({len(names)} apps x {len(GOLDEN_CONFIGS)} configs"
        f"{', streaming cross-checked' if args.streaming else ''})")
    return 0


def cmd_lint(args, out):
    from repro.analysis.static import analyze_apps, app_source_paths
    from repro.reporting import render_lint_findings, render_static_bounds

    if _check_exec_args(args, out):
        return 2
    names = SUITE if args.all_apps or not args.apps \
        else tuple(args.apps.split(","))
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        out(f"error: unknown applications: {', '.join(unknown)}")
        return 2
    if args.fail_on not in ("error", "warning", "info"):
        out("error: --fail-on must be error, warning or info")
        return 2

    ast_paths = None
    if not args.no_ast:
        ast_paths = list(args.paths) if args.paths else app_source_paths()
    report = analyze_apps(names,
                          machine=_machine_from_args(args),
                          duration_us=int(args.duration * SECOND),
                          seed=args.seed,
                          ast_paths=ast_paths)
    out(render_static_bounds(report))
    out("")
    out(render_lint_findings(report))
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(report.to_payload(), handle, indent=2, sort_keys=True)
        out(f"saved JSON report to {args.json}")
    return 1 if report.failed(args.fail_on) else 0


def cmd_dse(args, out):
    if _check_exec_args(args, out):
        return 2
    if args.configs < 1:
        out("error: --configs must be >= 1")
        return 2
    from repro.analysis.dse import run_campaign
    from repro.analysis.dse.engine import duplicate_apps
    from repro.hardware.catalog import generate_machines

    names = (tuple(args.apps.split(",")) if args.apps
             else ("handbrake", "premiere", "excel"))
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        out(f"error: unknown applications: {', '.join(unknown)}")
        return 2
    repeated = duplicate_apps(names)
    if repeated:
        out(f"error: duplicate applications: {', '.join(repeated)}")
        return 2
    machines = generate_machines(args.configs, seed=args.seed)
    result = run_campaign(
        names, machines,
        duration_us=int(args.duration * SECOND),
        seed=args.seed,
        equivalence_samples=args.equivalence,
        executor=_executor_from_args(args))
    from repro.reporting import render_dse_frontiers

    out(render_dse_frontiers(result, top=args.top))
    if result.failures:
        from repro.reporting import render_failures

        out(render_failures(result.failures))
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(result.to_payload(include_scores=args.scores),
                      handle, indent=2, sort_keys=True)
        out(f"saved JSON results to {args.json}")
    bad = bool(result.failures) or (
        result.equivalence is not None and not result.equivalence.ok)
    return 1 if bad else 0


def cmd_serve(args, out):
    if _check_exec_args(args, out):
        return 2
    if args.job_workers < 1:
        out("error: --job-workers must be >= 1")
        return 2
    if args.max_queue < 0:
        out("error: --max-queue must be >= 0 (0 = unbounded)")
        return 2
    if args.job_ttl is not None and not (math.isfinite(args.job_ttl)
                                         and args.job_ttl > 0):
        out("error: --job-ttl must be a finite number of seconds > 0")
        return 2
    if not (math.isfinite(args.drain_s) and args.drain_s >= 0):
        out("error: --drain-s must be a finite number of seconds >= 0")
        return 2
    from repro.service import ENDPOINTS, ServiceServer, SweepService

    deadline_us = args.deadline_us
    service = SweepService(
        jobs=args.jobs if args.jobs is not None else 0,
        cache=args.cache,
        retries=args.retries or 0,
        deadline_s=deadline_us / 1e6 if deadline_us else None,
        golden_path=args.golden,
        dse_path=args.dse,
        ledger=args.ledger,
        job_workers=args.job_workers,
        max_queue=args.max_queue or None,
        job_ttl_s=args.job_ttl,
        drain_s=args.drain_s)

    def ready(server):
        out(f"serving on http://{server.host}:{server.port}")
        width = max(len(endpoint) for endpoint in ENDPOINTS)
        for endpoint, description in ENDPOINTS.items():
            out(f"  {endpoint:<{width}}  {description}")
        # Piped stdout is block-buffered: supervisors reading the
        # banner for the port would otherwise wait forever.
        sys.stdout.flush()

    ServiceServer(service, host=args.host, port=args.port,
                  on_ready=ready).run()
    out("service stopped")
    return 0


def cmd_compare(args, out):
    from repro.analysis import compare_suites, render_comparison
    from repro.harness.persistence import load_suite

    try:
        before, after = load_suite(args.before), load_suite(args.after)
    except OSError as exc:
        out(f"error: cannot read {exc.filename}: {exc.strerror}")
        return 2
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    comparison = compare_suites(before, after)
    out(render_comparison(comparison,
                          title=f"{args.before} -> {args.after}"))
    improved = comparison.improved(0.2)
    regressed = comparison.regressed(0.2)
    if improved:
        out(f"improved (ΔTLP > 0.2): {', '.join(improved)}")
    if regressed:
        out(f"regressed (ΔTLP < -0.2): {', '.join(regressed)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Parallelism Analysis of Prominent "
                    "Desktop Applications' (ISPASS 2019)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark applications")
    sub.add_parser("system", help="print the Table I system spec")

    def add_machine_args(p):
        p.add_argument("--cores", type=int, default=None,
                       help="active logical CPUs (default: all 12)")
        p.add_argument("--no-smt", action="store_true",
                       help="disable hyper-threading")
        p.add_argument("--gpu", choices=sorted(GPUS), default=None,
                       help="installed GPU (default: gtx-1080-ti)")
        p.add_argument("--duration", type=float, default=60.0,
                       help="simulated seconds per iteration")
        p.add_argument("--iterations", type=int, default=3,
                       help="iterations (paper protocol: 3)")
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="parallel simulation processes "
                            "(default: serial; 0 = one per CPU)")
        p.add_argument("--cache", default=None, metavar="DIR",
                       help="reuse simulation results cached under DIR "
                            "(created on first use)")
        p.add_argument("--streaming", action="store_true",
                       help="compute metrics in-simulation (O(1) memory, "
                            "bit-identical results) instead of recording "
                            "a trace")
        p.add_argument("--validate", action="store_true",
                       help="check every run against the trace-invariant "
                            "catalogue (fails loudly on an inconsistent "
                            "trace)")
        p.add_argument("--retries", type=int, default=None, metavar="N",
                       help="retry a failed run up to N times, each "
                            "retry at once (default 0: a failed run is "
                            "quarantined)")
        p.add_argument("--deadline-us", type=int, default=None,
                       metavar="US",
                       help="wall-clock budget per run attempt, in "
                            "microseconds; a run over budget is killed "
                            "and quarantined (implies process isolation)")
        p.add_argument("--profile", action="store_true",
                       help="run under cProfile and print the top 25 "
                            "functions by cumulative time")

    run_parser = sub.add_parser("run", help="run one application")
    run_parser.add_argument("app", help="registry key (see `list`)")
    run_parser.add_argument("--manual", action="store_true",
                            help="use the human-jitter input driver")
    run_parser.add_argument("--era", type=int, choices=(2010, 2018),
                            default=2018,
                            help="2010 runs the era model on Blake et "
                                 "al.'s machine (16 LCPUs, GTX 285), "
                                 "which --cores, --no-smt and --gpu "
                                 "then configure")
    add_machine_args(run_parser)

    suite_parser = sub.add_parser("suite", help="run the Table II suite")
    suite_parser.add_argument("--apps", default=None,
                              help="comma-separated registry keys "
                                   "(default: all 30)")
    suite_parser.add_argument("--json", default=None,
                              help="also save results as JSON")
    suite_parser.add_argument("--csv", default=None,
                              help="also save results as CSV")
    add_machine_args(suite_parser)

    compare_parser = sub.add_parser(
        "compare", help="compare two stored suite JSON files")
    compare_parser.add_argument("before", help="baseline suite JSON")
    compare_parser.add_argument("after", help="new suite JSON")

    validate_parser = sub.add_parser(
        "validate",
        help="trace-invariant + golden-fingerprint regression check")
    validate_parser.add_argument(
        "--apps", default=None,
        help="comma-separated registry keys (default: all 30)")
    validate_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel simulation processes (default: serial)")
    validate_parser.add_argument(
        "--golden", default=None, metavar="PATH",
        help="golden file (default: tests/golden/golden_traces.json)")
    validate_parser.add_argument(
        "--update-golden", action="store_true",
        help="re-record golden fingerprints for the selected apps")
    validate_parser.add_argument(
        "--streaming", action="store_true",
        help="also run the streaming metrics engine over the grid and "
             "cross-check it against the same fingerprints")
    validate_parser.add_argument(
        "--no-static", action="store_true",
        help="skip the static work/span TLP-bound cross-check")

    lint_parser = sub.add_parser(
        "lint",
        help="static concurrency analysis (no simulation): deadlock "
             "cycles, work/span TLP bounds, source lint")
    lint_parser.add_argument(
        "--apps", default=None,
        help="comma-separated registry keys")
    lint_parser.add_argument(
        "--all-apps", action="store_true",
        help="analyze every registered application (the default when "
             "--apps is not given)")
    lint_parser.add_argument("--cores", type=int, default=None,
                             help="active logical CPUs (default: all 12)")
    lint_parser.add_argument("--no-smt", action="store_true",
                             help="disable hyper-threading")
    lint_parser.add_argument("--gpu", choices=sorted(GPUS), default=None,
                             help="installed GPU (default: gtx-1080-ti)")
    lint_parser.add_argument(
        "--duration", type=float, default=1.0,
        help="analysis window in simulated seconds (bounds loop "
             "exploration; no simulation clock is involved)")
    lint_parser.add_argument("--seed", type=int, default=0,
                             help="seed handed to the shadow build")
    lint_parser.add_argument("--json", default=None, metavar="PATH",
                             help="also save the report as JSON")
    lint_parser.add_argument("--no-ast", action="store_true",
                             help="skip the AST source lint")
    lint_parser.add_argument(
        "--paths", nargs="*", default=None, metavar="PATH",
        help="files/directories for the AST lint "
             "(default: the shipped app models)")
    lint_parser.add_argument(
        "--fail-on", default="warning",
        choices=("error", "warning", "info"),
        help="minimum severity that makes the exit status nonzero")

    dse_parser = sub.add_parser(
        "dse",
        help="design-space exploration: simulate once per signature, "
             "score every config analytically, print Pareto frontiers")
    dse_parser.add_argument(
        "--apps", default=None,
        help="comma-separated registry keys "
             "(default: handbrake,premiere,excel)")
    dse_parser.add_argument(
        "--configs", type=int, default=200, metavar="N",
        help="generated machine configs in the campaign grid")
    dse_parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for the config generator, run seeds and the "
             "equivalence sample")
    dse_parser.add_argument(
        "--duration", type=float, default=1.0,
        help="simulated seconds per run (campaigns amortize one run "
             "over many configs; keep this modest)")
    dse_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel simulation processes (default: serial; 0 = one "
             "per CPU)")
    dse_parser.add_argument(
        "--equivalence", type=int, default=8, metavar="N",
        help="configs re-simulated in full to check the analytic path "
             "(0 disables the check)")
    dse_parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="frontier points printed per app (tables only; JSON "
             "keeps all)")
    dse_parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="reuse simulation results cached under DIR")
    dse_parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry a failed run up to N times")
    dse_parser.add_argument(
        "--deadline-us", type=int, default=None, metavar="US",
        help="wall-clock budget per run attempt, in microseconds")
    dse_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also save the campaign result as JSON")
    dse_parser.add_argument(
        "--scores", action="store_true",
        help="include every grid point's score in the JSON "
             "(not just the frontiers)")

    serve_parser = sub.add_parser(
        "serve",
        help="run the sweep service daemon (HTTP API over the "
             "supervised executor and the committed golden artifacts)")
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=8765,
        help="bind port (default: 8765; 0 picks an ephemeral port)")
    serve_parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="simulation processes per sweep (default: 0 = auto, "
             "re-resolved at every submission)")
    serve_parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="content-addressed result cache shared by all sweeps "
             "(created on first use); repeat submissions of computed "
             "grids never re-simulate")
    serve_parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry a failed run up to N times before quarantining it")
    serve_parser.add_argument(
        "--deadline-us", type=int, default=None, metavar="US",
        help="wall-clock budget per run attempt, in microseconds")
    serve_parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="write-ahead job ledger: every job transition is fsynced "
             "to PATH before it takes effect, and a restarted daemon "
             "replays it — finished sweeps restore through the result "
             "cache (zero re-simulation), interrupted ones re-enqueue "
             "and complete (implies --cache LEDGER.cache if unset)")
    serve_parser.add_argument(
        "--job-workers", type=int, default=2, metavar="N",
        help="dispatcher worker threads draining the job queue "
             "(default: 2; each job still fans out via its own "
             "executor)")
    serve_parser.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="queued-job cap; submissions beyond it get 429 + "
             "Retry-After (default: 64; 0 = unbounded)")
    serve_parser.add_argument(
        "--job-ttl", type=float, default=None, metavar="S",
        help="evict done/failed jobs from memory S seconds after they "
             "finish (default: keep forever; the ledger keeps the "
             "durable record)")
    serve_parser.add_argument(
        "--drain-s", type=float, default=60.0, metavar="S",
        help="POST /shutdown drain bound: in-flight jobs still "
             "running after S seconds are failed as `deadline` and "
             "the server stops anyway (default: 60)")
    serve_parser.add_argument(
        "--golden", default=None, metavar="PATH",
        help="golden fingerprint file served under /tables/goldens "
             "(default: tests/golden/golden_traces.json)")
    serve_parser.add_argument(
        "--dse", default=None, metavar="PATH",
        help="DSE frontier file served under /frontiers "
             "(default: tests/golden/golden_dse.json)")
    return parser


_COMMANDS = {
    "list": cmd_list,
    "system": cmd_system,
    "run": cmd_run,
    "suite": cmd_suite,
    "compare": cmd_compare,
    "validate": cmd_validate,
    "lint": cmd_lint,
    "dse": cmd_dse,
    "serve": cmd_serve,
}


def main(argv=None, out=print):
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    if getattr(args, "profile", False):
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        status = profiler.runcall(handler, args, out)
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream) \
            .sort_stats("cumulative").print_stats(25)
        out(stream.getvalue().rstrip())
        return status
    return handler(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
