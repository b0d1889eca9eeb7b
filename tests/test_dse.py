"""Design-space exploration engine: partition, scoring, Pareto, CLI.

The load-bearing claim of the DSE engine is the axis partition:
configs sharing a trace-changing signature replay one base simulation
and everything else is scored analytically.  These tests pin the
signature semantics, the analytic-vs-resimulation equivalence, the
Pareto frontier's order properties, the campaign's fault attribution
and the satellite fixes (auto-mode serial clamp, machine-digest cache
keys).
"""

import math
import time
from dataclasses import replace

import pytest

import repro.harness.supervisor as supervisor
import repro.metrics.kernels as kernels
from repro.analysis.dse import (
    CampaignResult,
    batch_score,
    partition_configs,
    run_campaign,
    score_from_simulation,
    sim_signature,
)
from repro.analysis.dse.engine import EQUIVALENCE_RTOL, _check_equivalence
from repro.analysis.dse.pareto import dominates, pareto_frontier
from repro.analysis.dse.score import ConfigScore, node_power_scale, time_scale
from repro.harness.cache import machine_digest, spec_key
from repro.harness.executor import (
    ParallelExecutor,
    SerialExecutor,
    execute_spec,
    make_spec,
    resolve_executor,
)
from repro.harness.supervisor import SupervisedExecutor
from repro.hardware import paper_machine
from repro.hardware.catalog import (
    FREQ_SCALE,
    GENERATOR_CORES,
    GENERATOR_SMT_WAYS,
    dvfs_bounds,
    generate_machines,
    parametric_machine,
)
from repro.metrics.kernels import batch_active_energy
from repro.os.energy import EnergyCoefficients, default_coefficients
from repro.sim import SECOND
from tests.test_kernels import each_backend

SHORT = SECOND // 5


def short_spec(name="chrome", seed=0, **overrides):
    overrides.setdefault("streaming", True)
    return make_spec(name, duration_us=SHORT, seed=seed, **overrides)


class TestSignature:
    def test_frequency_and_coefficients_are_invisible(self):
        lo, hi = dvfs_bounds(8)
        a = parametric_machine(8, smt_ways=2, tech_nm=45, dvfs_ratio=1.0)
        b = parametric_machine(8, smt_ways=2, tech_nm=8, dvfs_ratio=hi,
                               coefficients=default_coefficients())
        assert sim_signature(a) == sim_signature(b)

    def test_core_count_changes_signature(self):
        a = parametric_machine(8)
        b = parametric_machine(12)
        assert sim_signature(a) != sim_signature(b)

    def test_smt_ways_change_signature(self):
        a = parametric_machine(8, smt_ways=1)
        b = parametric_machine(8, smt_ways=2)
        assert sim_signature(a) != sim_signature(b)

    def test_reference_grid_point_shares_paper_machine_trace(self):
        # The 45 nm / DVFS 1.0 / 6c2t point IS the paper machine as far
        # as the simulator can tell — one base run covers both.
        param = parametric_machine(6, smt_ways=2)
        assert sim_signature(paper_machine()) == sim_signature(param)

    def test_generated_family_collapses_to_core_smt_grid(self):
        machines = generate_machines(300, seed=11)
        groups = partition_configs(machines)
        assert len(groups) <= len(GENERATOR_CORES) * len(GENERATOR_SMT_WAYS)
        # Partition invariants: every index exactly once, in order.
        indices = sorted(i for members in groups.values() for i in members)
        assert indices == list(range(300))
        for members in groups.values():
            assert members == sorted(members)

    def test_generator_is_deterministic(self):
        assert generate_machines(20, seed=5) == generate_machines(20, seed=5)
        assert generate_machines(20, seed=5) != generate_machines(20, seed=6)


class TestBatchKernel:
    def test_vector_matches_scalar(self, monkeypatch):
        t_us = [1000, 2500, 40, 999999]
        class_idx = [0, 2, 1, 0]
        factors = [1.0, 1.27, 1.1, 1.0054]
        # Class-major: one column per class, one entry per config.
        power = [[10.0, 8.0], [20.0, 16.0], [5.0, 4.0]]
        exponents = [2.0, 1.8]
        vec = batch_active_energy(t_us, class_idx, factors, power,
                                  exponents)
        monkeypatch.setattr(kernels, "_np", None)
        sca = batch_active_energy(t_us, class_idx, factors, power,
                                  exponents)
        assert len(vec) == len(sca) == 2
        for a, b in zip(vec, sca):
            assert a == pytest.approx(b, rel=1e-12)

    def test_empty_histogram_scores_zero(self):
        assert batch_active_energy([], [], [], [[1.0]], [2.0]) == [0.0]


class TestScoring:
    def test_reference_point_scales_are_unity(self):
        machine = parametric_machine(6, tech_nm=45, dvfs_ratio=1.0)
        assert time_scale(machine) == pytest.approx(1.0)
        assert node_power_scale(machine) == pytest.approx(1.0)
        assert time_scale(paper_machine()) == 1.0
        assert node_power_scale(paper_machine()) == 1.0

    def test_half_frequency_doubles_wall_time(self):
        run = execute_spec(short_spec())
        fast = parametric_machine(6, tech_nm=45, dvfs_ratio=1.0)
        slow = parametric_machine(6, tech_nm=45, dvfs_ratio=0.5)
        hi, lo = batch_score("chrome", run, [fast, slow])
        assert lo.wall_s == pytest.approx(2 * hi.wall_s)
        assert lo.tlp == hi.tlp  # TLP is a ratio of times

    def test_tech_node_frequency_scaling(self):
        run = execute_spec(short_spec())
        m45 = parametric_machine(6, tech_nm=45, dvfs_ratio=1.0)
        m8 = parametric_machine(6, tech_nm=8, dvfs_ratio=1.0)
        s45, s8 = batch_score("chrome", run, [m45, m8])
        assert s8.wall_s == pytest.approx(s45.wall_s / FREQ_SCALE[8])

    def test_analytic_matches_full_resimulation(self):
        lo, hi = dvfs_bounds(16)
        machine = parametric_machine(
            4, smt_ways=2, tech_nm=16, dvfs_ratio=(lo + hi) / 2,
            coefficients=EnergyCoefficients(
                active_power_w={cls: watts * 1.17 for cls, watts in
                                default_coefficients().active_power_w
                                .items()},
                cpu_idle_w=4.5,
                clock_exponent=1.9))
        run = execute_spec(short_spec("handbrake", machine=machine))
        fast = batch_score("handbrake", run, [machine])[0]
        slow = score_from_simulation("handbrake", run, machine)
        assert fast.tlp == slow.tlp
        assert fast.wall_s == pytest.approx(slow.wall_s, rel=1e-9)
        assert fast.energy_j == pytest.approx(slow.energy_j, rel=1e-9)
        assert fast.edp_js == pytest.approx(slow.edp_js, rel=1e-9)
        assert fast.analytic and not slow.analytic


def score_point(tlp, edp, index=0):
    return ConfigScore(app="x", config_index=index, machine_name="m",
                       logical_cpus=4, tech_nm=45, dvfs_ratio=1.0,
                       tlp=tlp, wall_s=1.0, energy_j=edp, edp_js=edp,
                       analytic=True)


class TestPareto:
    def test_dominated_points_are_dropped(self):
        good = score_point(4.0, 1.0, 0)
        bad = score_point(3.0, 2.0, 1)  # worse on both axes
        assert dominates(good, bad)
        assert pareto_frontier([bad, good]) == [good]

    def test_frontier_is_sorted_and_nondominated(self):
        points = [score_point(t, e, i) for i, (t, e) in enumerate(
            [(1.0, 0.5), (2.0, 1.0), (3.0, 4.0), (2.5, 0.9),
             (3.0, 5.0), (0.5, 0.1)])]
        frontier = pareto_frontier(points)
        tlps = [p.tlp for p in frontier]
        edps = [p.edp_js for p in frontier]
        assert tlps == sorted(tlps, reverse=True)
        assert edps == sorted(edps, reverse=True)  # strictly improving
        for a in frontier:
            assert not any(dominates(b, a) for b in points)

    def test_every_input_point_is_dominated_or_on_frontier(self):
        points = [score_point(t % 7, (t * 13) % 11 + 1, t)
                  for t in range(25)]
        frontier = pareto_frontier(points)
        for p in points:
            on = p in frontier
            dominated = any(dominates(q, p) and q is not p
                            for q in points)
            duplicate = any(q.tlp == p.tlp and q.edp_js == p.edp_js
                            and q is not p for q in frontier)
            assert on or dominated or duplicate

    def test_empty_frontier(self):
        assert pareto_frontier([]) == []


class TestCampaign:
    def test_small_campaign_end_to_end(self):
        machines = generate_machines(12, seed=3)
        result = run_campaign(["chrome", "excel"], machines,
                              duration_us=SHORT, equivalence_samples=3)
        assert isinstance(result, CampaignResult)
        stats = result.stats
        assert stats.grid_points == 24
        assert stats.failed_runs == 0
        assert stats.base_runs == 2 * stats.signatures
        # Every grid point scored, frontier members drawn from them.
        for app in ("chrome", "excel"):
            scores = result.scores[app]
            assert all(s is not None for s in scores)
            assert all(s.analytic for s in scores)
            assert result.frontiers[app]
            assert set(map(id, result.frontiers[app])) <= set(
                map(id, scores))
        eq = result.equivalence
        assert eq.samples == 3
        assert eq.tlp_exact
        assert eq.max_rel_err <= eq.rtol
        assert eq.ok

    def test_scalar_kernel_prices_like_the_energy_model(self, monkeypatch):
        # A re-simulation's energy report and the pure-Python kernel
        # price one activity histogram with one expression, in one
        # summation order, so they agree to the last bit.
        monkeypatch.setattr(kernels, "_np", None)
        result = run_campaign(["handbrake", "premiere", "excel"],
                              generate_machines(2000, seed=1), seed=1)
        assert result.equivalence.samples == 8
        assert result.equivalence.max_rel_err == 0.0

    def test_backends_agree_on_a_campaign(self):
        # The kernels may differ only by numpy's ``**`` rounding: the
        # frontiers are equal and every score is within the
        # equivalence tolerance of the pure-Python reference.
        machines = generate_machines(300, seed=2)
        results = {}
        for name, context in each_backend():
            with context:
                results[name] = run_campaign(["excel"], machines,
                                             duration_us=SHORT,
                                             equivalence_samples=0)
        want = results.pop("python")
        for name, got in results.items():
            assert [(s.config_index, s.tlp)
                    for s in got.frontiers["excel"]] == \
                [(s.config_index, s.tlp)
                 for s in want.frontiers["excel"]], name
            pairs = list(zip(got.scores["excel"], want.scores["excel"]))
            assert len(pairs) == 300
            for fast, reference in pairs:
                assert (fast.config_index, fast.tlp) == \
                    (reference.config_index, reference.tlp), name
                for attr in ("wall_s", "energy_j", "edp_js"):
                    assert math.isclose(getattr(fast, attr),
                                        getattr(reference, attr),
                                        rel_tol=EQUIVALENCE_RTOL), name

    def test_failed_base_run_leaves_its_group_unscored(self):
        class FirstBaseRunFails:
            failures = []

            def map(self, specs):
                results = SerialExecutor().map(specs)
                results[0] = None
                return results

        machines = generate_machines(12, seed=3)
        result = run_campaign(["chrome"], machines, duration_us=SHORT,
                              equivalence_samples=0,
                              executor=FirstBaseRunFails())
        lost = set(partition_configs(machines)[
            sim_signature(machines[0])])
        scores = result.scores["chrome"]
        assert result.stats.failed_runs == 1
        assert len(scores) == 12
        assert [i for i, s in enumerate(scores) if s is None] == \
            sorted(lost)
        assert all(s.config_index == i for i, s in enumerate(scores)
                   if s is not None)
        assert not {s.config_index for s in result.frontiers["chrome"]} \
            & lost

    def test_one_hung_base_run_costs_one_run(self, monkeypatch):
        # Five core counts are five signatures: five base runs, served
        # by two pooled workers.  Forked workers inherit the patch.
        machines = [paper_machine().with_logical_cpus(n)
                    for n in (12, 10, 8, 6, 4)]
        run = supervisor.execute_spec

        def hang_first_base_run(spec):
            if spec.kwargs["machine"] == machines[0]:
                time.sleep(60)
            return run(spec)

        monkeypatch.setattr(supervisor, "execute_spec", hang_first_base_run)
        result = run_campaign(["excel"], machines, duration_us=SHORT,
                              jobs=2, deadline_s=2.0,
                              equivalence_samples=0)
        assert result.stats.failed_runs == 1
        [failure] = result.failures
        assert failure.kind == "deadline" and failure.attempts == 1
        scores = result.scores["excel"]
        assert scores[0] is None
        assert all(score is not None for score in scores[1:])

    def test_analytic_fraction_accounting(self):
        machines = generate_machines(12, seed=3)
        result = run_campaign(["chrome"], machines, duration_us=SHORT,
                              equivalence_samples=0)
        stats = result.stats
        assert result.equivalence is None
        assert stats.simulated_points == stats.signatures
        assert stats.analytic_fraction == pytest.approx(
            1 - stats.signatures / 12)

    def test_repeated_app_is_rejected_before_simulating(self):
        class NoSimulation:
            failures = []

            def map(self, specs):
                raise AssertionError("a campaign with a repeated app ran")

        with pytest.raises(ValueError,
                           match="^duplicate applications: excel$"):
            run_campaign(["excel", "chrome", "excel"],
                         generate_machines(6, seed=1), duration_us=SHORT,
                         executor=NoSimulation())

    def test_payload_roundtrips_to_json(self):
        import json

        machines = generate_machines(6, seed=1)
        result = run_campaign(["excel"], machines, duration_us=SHORT,
                              equivalence_samples=2)
        payload = json.loads(json.dumps(
            result.to_payload(include_scores=True)))
        assert payload["stats"]["configs"] == 6
        assert len(payload["scores"]["excel"]) == 6
        assert payload["equivalence"]["ok"] is True


class TestEquivalenceCheck:
    """``_check_equivalence`` against a re-simulation whose energy
    report was tampered with after the run."""

    def check(self, cpu_active_j=None):
        machine = generate_machines(1, seed=4)[0]
        run = execute_spec(short_spec("excel", machine=machine))
        scores = {"excel": batch_score("excel", run, [machine])}
        if cpu_active_j is not None:
            run = replace(run, energy=replace(run.energy,
                                              cpu_active_j=cpu_active_j))
        return _check_equivalence([("excel", 0)], [run], [machine],
                                  scores, rtol=1e-6)

    def test_untouched_run_passes(self):
        report = self.check()
        assert report.ok and report.samples == 1
        assert report.max_rel_err <= 1e-6

    def test_finite_mismatch_fails(self):
        report = self.check(cpu_active_j=1e3)
        assert not report.ok
        assert 1e-6 < report.max_rel_err < math.inf

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=repr)
    def test_non_finite_deviation_fails(self, value):
        report = self.check(cpu_active_j=value)
        assert report.samples == 1
        assert report.max_rel_err == math.inf
        assert not report.ok


class TestAutoModeClamp:
    def test_auto_jobs_degrade_to_serial_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr("repro.harness.executor.default_jobs",
                            lambda: 1)
        assert isinstance(resolve_executor(jobs=0), SerialExecutor)

    def test_auto_jobs_keep_pool_on_many_cpus(self, monkeypatch):
        monkeypatch.setattr("repro.harness.executor.default_jobs",
                            lambda: 4)
        executor = resolve_executor(jobs=0)
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 4

    def test_explicit_jobs_still_build_a_pool(self, monkeypatch):
        monkeypatch.setattr("repro.harness.executor.default_jobs",
                            lambda: 1)
        assert isinstance(resolve_executor(jobs=2), ParallelExecutor)

    def test_supervisor_auto_degrades_to_no_pool(self, monkeypatch):
        monkeypatch.setattr("repro.harness.supervisor.default_jobs",
                            lambda: 1)
        assert SupervisedExecutor(jobs=0)._pool_size(8) == 0


class TestMachineDigestCache:
    def test_digest_is_stable_and_discriminating(self):
        a = parametric_machine(8, tech_nm=45, dvfs_ratio=1.0)
        b = parametric_machine(8, tech_nm=45, dvfs_ratio=1.0)
        assert machine_digest(a) == machine_digest(b)
        assert machine_digest(a) != machine_digest(paper_machine())

    def test_coefficients_change_the_spec_key(self):
        # Same CPU name, same clocks — only the energy coefficients
        # differ.  Pre-digest cache keys collided on exactly this.
        plain = parametric_machine(8)
        tuned = parametric_machine(8, coefficients=EnergyCoefficients(
            active_power_w=default_coefficients().active_power_w,
            cpu_idle_w=1.0))
        assert machine_digest(plain) != machine_digest(tuned)
        assert spec_key(short_spec(machine=plain)) != \
            spec_key(short_spec(machine=tuned))

    def test_cached_campaign_is_identical(self, tmp_path):
        from repro.harness.cache import ResultCache

        machines = generate_machines(6, seed=2)
        cold = run_campaign(["excel"], machines, duration_us=SHORT,
                            equivalence_samples=2,
                            cache=ResultCache(tmp_path))
        warm = run_campaign(["excel"], machines, duration_us=SHORT,
                            equivalence_samples=2,
                            cache=ResultCache(tmp_path))
        assert [s.to_payload() for s in cold.scores["excel"]] == \
            [s.to_payload() for s in warm.scores["excel"]]


class TestDseCli:
    def test_dse_verb_prints_frontiers(self, capsys):
        from repro.cli import main

        lines = []
        status = main(["dse", "--configs", "8", "--apps", "excel",
                       "--duration", "0.2", "--equivalence", "2",
                       "--top", "3"], out=lines.append)
        text = "\n".join(lines)
        assert status == 0
        assert "Pareto frontier" in text
        assert "equivalence: ok" in text

    def test_dse_json_export(self, tmp_path):
        import json

        from repro.cli import main

        path = tmp_path / "dse.json"
        status = main(["dse", "--configs", "6", "--apps", "excel",
                       "--duration", "0.2", "--equivalence", "0",
                       "--json", str(path)], out=lambda _line: None)
        assert status == 0
        payload = json.loads(path.read_text())
        assert payload["stats"]["configs"] == 6
        assert "excel" in payload["frontiers"]

    def test_dse_rejects_unknown_app(self):
        from repro.cli import main

        lines = []
        assert main(["dse", "--apps", "nope"], out=lines.append) == 2
        assert "unknown applications" in lines[0]
