"""Renderers for the paper's tables (I, II, III)."""

from repro.apps import CATEGORIES
from repro.data import PAPER_CATEGORY_AVERAGES, PAPER_TABLE2, PAPER_TABLE3
from repro.reporting.render import format_table, heat_row


def render_table1(machine):
    """Table I: specification of the benchmarking system."""
    rows = [
        ("CPU", f"{machine.cpu.name}, {machine.cpu.base_clock_ghz:.2f}-"
                f"{machine.cpu.turbo_clock_ghz:.2f} GHz, "
                f"{machine.cpu.physical_cores} cores / "
                f"{machine.cpu.logical_cpus} threads"),
        ("Graphics", f"{machine.gpu.name}, {machine.gpu.clock_mhz} MHz, "
                     f"{machine.gpu.cuda_cores} CUDA cores"),
        ("RAM", f"{machine.ram_gb} GB"),
        ("OS", machine.os_name),
    ]
    return format_table(("Component", "Specification"), rows,
                        title="Table I: benchmarking system")


def render_table2(suite_result):
    """Table II: heat map + TLP + GPU utilization for the whole suite."""
    headers = ("Category", "Application", "c0..c12", "TLP", "σ",
               "paper", "GPU%", "σ", "paper")
    rows = []
    for category, names in CATEGORIES.items():
        for name in names:
            if name not in suite_result.results:
                continue
            result = suite_result.results[name]
            paper_tlp, paper_gpu = PAPER_TABLE2[name]
            gpu_text = f"{result.gpu_util.mean:6.1f}"
            if result.gpu_capped:
                gpu_text = "*" + gpu_text.strip()
            display = result.display_name
            if getattr(result, "partial", False):
                display = "~" + display
            rows.append((
                category.value,
                display,
                heat_row(result.fractions),
                f"{result.tlp.mean:5.1f}",
                f"{result.tlp.std:4.2f}",
                f"{paper_tlp:5.1f}",
                gpu_text,
                f"{result.gpu_util.std:4.2f}",
                f"{paper_gpu:6.1f}",
            ))
    lines = [format_table(headers, rows,
                          title="Table II: application TLP and GPU "
                                "utilization (measured vs paper)")]
    lines.append("")
    lines.append("Per-category averages (measured vs paper):")
    for category, (tlp, gpu) in suite_result.category_averages().items():
        paper_tlp, paper_gpu = PAPER_CATEGORY_AVERAGES[category.value]
        lines.append(f"  {category.value:24s} TLP {tlp:5.2f} "
                     f"(paper {paper_tlp:4.1f})   GPU {gpu:6.2f}% "
                     f"(paper {paper_gpu:5.1f}%)")
    lines.append("")
    lines.append(f"Overall average TLP: "
                 f"{suite_result.overall_average_tlp():.2f} (paper 3.1)")
    above = suite_result.apps_with_tlp_above(4.0)
    lines.append(f"Applications with TLP > 4: {len(above)} of "
                 f"{len(suite_result.results)} (paper: 6 of 30): "
                 f"{', '.join(sorted(above))}")
    partial = [name for name, result in suite_result.results.items()
               if getattr(result, "partial", False)]
    if partial:
        lines.append(f"~ partial rows (iterations lost to quarantine): "
                     f"{', '.join(sorted(partial))}")
    return "\n".join(lines)


def render_failures(failures):
    """Quarantine report of a supervised sweep (RunFailure records)."""
    if not failures:
        return "supervisor: no quarantined runs"
    rows = [
        (failure.kind, failure.app, failure.seed, failure.attempts,
         failure.detail)
        for failure in failures
    ]
    counts = {}
    for failure in failures:
        counts[failure.kind] = counts.get(failure.kind, 0) + 1
    summary = ", ".join(f"{count} {kind}"
                        for kind, count in sorted(counts.items()))
    table = format_table(
        ("kind", "app", "seed", "attempts", "detail"), rows,
        title="Quarantined runs")
    return f"{table}\n\n{len(failures)} quarantined: {summary}"


def render_dse_frontiers(result, top=None):
    """Per-app Pareto frontiers of a DSE campaign (CampaignResult).

    Shows the campaign's simulation economy (how much of the grid was
    scored analytically), the equivalence-check verdict, then one
    frontier table per app — best Eq.-1 TLP first, energy-delay
    strictly improving down the list.  ``top`` truncates each table.
    """
    stats = result.stats
    lines = [
        f"DSE campaign: {stats.configs} configs x {stats.apps} apps = "
        f"{stats.grid_points} grid points, {stats.signatures} "
        f"trace-changing signatures",
        f"  simulated {stats.simulated_points} points "
        f"({stats.base_runs} base + {stats.equivalence_runs} "
        f"equivalence), scored {stats.analytic_fraction:.1%} "
        f"analytically, {stats.failed_runs} failed",
    ]
    if result.equivalence is not None:
        eq = result.equivalence
        lines.append(
            f"  equivalence: {'ok' if eq.ok else 'FAILED'} "
            f"({eq.samples} re-simulated samples, TLP "
            f"{'exact' if eq.tlp_exact else 'MISMATCH'}, max rel err "
            f"{eq.max_rel_err:.2e} vs rtol {eq.rtol:g})")
    headers = ("cfg", "machine", "LCPU", "nm", "DVFS", "TLP",
               "wall s", "energy J", "EDP J*s")
    for app in result.apps:
        frontier = result.frontiers.get(app, [])
        shown = frontier if top is None else frontier[:top]
        rows = [
            (score.config_index, score.machine_name,
             score.logical_cpus, score.tech_nm,
             f"{score.dvfs_ratio:.3f}", f"{score.tlp:6.2f}",
             f"{score.wall_s:.4f}", f"{score.energy_j:8.2f}",
             f"{score.edp_js:.4g}")
            for score in shown
        ]
        suffix = (f" (top {len(shown)} of {len(frontier)})"
                  if len(shown) < len(frontier) else
                  f" ({len(frontier)} points)")
        lines.append("")
        lines.append(format_table(
            headers, rows,
            title=f"{app}: Pareto frontier, TLP vs energy-delay"
                  f"{suffix}"))
    return "\n".join(lines)


def render_lint_findings(report):
    """Findings table for one ``repro lint`` run (StaticReport)."""
    findings = report.findings
    if not findings:
        return "lint: no findings"
    rows = [
        (finding.severity, finding.code, finding.app or "-",
         finding.location or "-", finding.message)
        for finding in findings
    ]
    counts = report.counts()
    summary = ", ".join(f"{counts[level]} {level}(s)"
                        for level in counts if counts[level])
    table = format_table(
        ("severity", "code", "app", "location", "message"), rows,
        title="Static analysis findings")
    return f"{table}\n\n{summary}"


def render_static_bounds(report):
    """Per-app structure + work/span bound table (StaticReport)."""
    rows = []
    for name, analysis in sorted(report.apps.items()):
        structure = analysis.structure
        work_span = analysis.work_span
        dynamic = sum(1 for t in structure.threads if t.dynamic)
        locks = sum(1 for s in structure.sync if s.kind == "lock")
        rows.append((
            name,
            len(structure.processes),
            f"{work_span.width}(+{dynamic}d)",
            locks,
            len(structure.sync),
            f"{work_span.work_us / 1000:.0f}",
            f"{work_span.span_us / 1000:.0f}",
            f"{work_span.parallelism:6.2f}",
            f"{work_span.tlp_bound:5.1f}",
            "yes" if structure.complete else "NO",
        ))
    table = format_table(
        ("application", "procs", "threads", "locks", "sync",
         "work ms", "span ms", "work/span", "TLP<=", "complete"),
        rows,
        title=f"Static structure and TLP bounds "
              f"({report.machine_name}, {report.logical_cpus} LCPUs)")
    return (f"{table}\n\n"
            "TLP<= is the enforced static ceiling min(LCPUs, threads); "
            "work/span is the structural parallelism estimate.")


def render_table3(rows):
    """Table III: WinX with and without CUDA/NVENC.

    ``rows`` is ``{logical_cores: {metric: value}}`` with metrics
    ``rate_cpu/rate_gpu/tlp_cpu/tlp_gpu/util_cpu/util_gpu``.
    """
    headers = ("Logical cores",
               "Rate noGPU (paper)", "Rate GPU (paper)",
               "TLP noGPU (paper)", "TLP GPU (paper)",
               "Util noGPU (paper)", "Util GPU (paper)")
    body = []
    for cores in sorted(rows):
        measured = rows[cores]
        paper = PAPER_TABLE3[cores]
        body.append((
            cores,
            f"{measured['rate_cpu']:5.1f} ({paper['rate_cpu']})",
            f"{measured['rate_gpu']:5.1f} ({paper['rate_gpu']})",
            f"{measured['tlp_cpu']:5.2f} ({paper['tlp_cpu']})",
            f"{measured['tlp_gpu']:5.2f} ({paper['tlp_gpu']})",
            f"{measured['util_cpu']:5.2f} ({paper['util_cpu']})",
            f"{measured['util_gpu']:5.2f} ({paper['util_gpu']})",
        ))
    return format_table(headers, body,
                        title="Table III: WinX transcode rate / TLP / GPU "
                              "utilization with and without CUDA/NVENC")
