"""Property-based proof of the DSE simulate-once guarantee.

The engine's correctness claim: for any config drawn from the
generator's axes, scoring it analytically from the *signature
representative's* base run equals fully re-simulating the config
itself — exactly on every integer-derived quantity (TLP, duration),
to float tolerance on the energy path (summation order and kernel
``**`` rounding differ).  Hypothesis draws the tech node, DVFS point
and energy coefficients; base runs are memoized per signature so each
example costs one simulation, not two.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.metrics.kernels as kernels
from repro.analysis.dse.axes import sim_signature
from repro.analysis.dse.pareto import dominates, pareto_frontier
from repro.analysis.dse.score import ConfigScore, batch_score, \
    score_from_simulation
from repro.harness.executor import execute_spec, make_spec
from repro.hardware.catalog import TECH_NODES, dvfs_bounds, \
    parametric_machine
from repro.metrics.kernels import batch_active_energy
from repro.os.energy import EnergyCoefficients, default_coefficients
from repro.os.work import WorkClass
from repro.sim import SECOND

SHORT = SECOND // 10

#: Base runs per (app, cores, smt) — one simulation per signature for
#: the whole suite, exactly the economy the engine itself exploits.
_BASE_RUNS = {}


def base_run(app, cores, smt_ways):
    key = (app, cores, smt_ways)
    if key not in _BASE_RUNS:
        machine = parametric_machine(cores, smt_ways=smt_ways)
        _BASE_RUNS[key] = execute_spec(make_spec(
            app, machine=machine, duration_us=SHORT, streaming=True))
    return _BASE_RUNS[key]


def coefficients_strategy():
    base = default_coefficients()
    factor = st.floats(0.5, 1.5, allow_nan=False)
    return st.builds(
        lambda factors, idle, exponent: EnergyCoefficients(
            active_power_w={cls: watts * factors[i] for i, (cls, watts)
                            in enumerate(sorted(
                                base.active_power_w.items(),
                                key=lambda kv: kv[0].value))},
            cpu_idle_w=idle,
            clock_exponent=exponent),
        st.tuples(*[factor] * len(base.active_power_w)),
        st.floats(0.5, 20.0),
        st.floats(1.0, 3.0))


config_strategy = st.tuples(
    st.sampled_from(["excel", "handbrake", "chrome"]),
    st.sampled_from([2, 4, 8]),
    st.sampled_from([1, 2]),
    st.sampled_from(TECH_NODES),
    st.floats(0.0, 1.0, allow_nan=False),   # position in the DVFS band
    coefficients_strategy())


class TestAnalyticEqualsResimulation:
    @settings(max_examples=12, deadline=None)
    @given(config_strategy)
    def test_fast_path_matches_slow_path(self, drawn):
        app, cores, smt, tech, dvfs_pos, coefficients = drawn
        lo, hi = dvfs_bounds(tech)
        machine = parametric_machine(
            cores, smt_ways=smt, tech_nm=tech,
            dvfs_ratio=lo + (hi - lo) * dvfs_pos,
            coefficients=coefficients)
        rep = parametric_machine(cores, smt_ways=smt)
        assert sim_signature(machine) == sim_signature(rep)

        base = base_run(app, cores, smt)
        run = execute_spec(make_spec(app, machine=machine,
                                     duration_us=SHORT, streaming=True))
        fast = batch_score(app, base, [machine])[0]
        slow = score_from_simulation(app, run, machine)
        # Integer-derived quantities are bit-exact.
        assert fast.tlp == slow.tlp
        assert run.duration_us == base.duration_us
        # Float energy path agrees to far better than the engine's
        # advertised rtol.
        assert fast.wall_s == pytest.approx(slow.wall_s, rel=1e-9)
        assert fast.energy_j == pytest.approx(slow.energy_j, rel=1e-9)
        assert fast.edp_js == pytest.approx(slow.edp_js, rel=1e-9)


histogram_strategy = st.lists(
    st.tuples(st.integers(1, 10_000_000),          # microseconds
              st.integers(0, len(list(WorkClass)) - 1),
              st.floats(0.9, 1.3, allow_nan=False)),
    min_size=0, max_size=12)

power_strategy = st.lists(
    st.tuples(st.lists(st.floats(0.0, 60.0),
                       min_size=len(list(WorkClass)),
                       max_size=len(list(WorkClass))),
              st.floats(1.0, 3.0)),
    min_size=1, max_size=8)


class TestBatchKernelProperties:
    @settings(max_examples=50, deadline=None)
    @given(histogram_strategy, power_strategy)
    def test_backends_agree(self, histogram, configs):
        t_us = [t for t, _, _ in histogram]
        class_idx = [c for _, c, _ in histogram]
        factors = [f for _, _, f in histogram]
        power = [row for row, _ in configs]
        exponents = [e for _, e in configs]
        vec = batch_active_energy(t_us, class_idx, factors, power,
                                  exponents)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_np", None)
            sca = batch_active_energy(t_us, class_idx, factors, power,
                                      exponents)
        assert len(vec) == len(sca) == len(configs)
        for a, b in zip(vec, sca):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)
            assert a >= 0.0


def score_point(tlp, edp, index):
    return ConfigScore(app="x", config_index=index, machine_name="m",
                       logical_cpus=4, tech_nm=45, dvfs_ratio=1.0,
                       tlp=tlp, wall_s=1.0, energy_j=edp, edp_js=edp,
                       analytic=True)


scores_strategy = st.lists(
    st.tuples(st.floats(0.1, 32.0, allow_nan=False),
              st.floats(1e-3, 1e3, allow_nan=False)),
    min_size=0, max_size=40).map(
        lambda pairs: [score_point(t, e, i)
                       for i, (t, e) in enumerate(pairs)])


class TestParetoProperties:
    @settings(max_examples=60, deadline=None)
    @given(scores_strategy)
    def test_frontier_is_sound_and_complete(self, scores):
        frontier = pareto_frontier(scores)
        # Sound: no frontier member is dominated by any input point.
        for member in frontier:
            assert not any(dominates(other, member) for other in scores)
        # Complete: every excluded point is dominated or a duplicate of
        # a frontier member.
        kept = {(m.tlp, m.edp_js) for m in frontier}
        for point in scores:
            if point in frontier:
                continue
            assert any(dominates(other, point) for other in scores) \
                or (point.tlp, point.edp_js) in kept
        # Ordered: TLP descending, EDP strictly improving.
        tlps = [m.tlp for m in frontier]
        edps = [m.edp_js for m in frontier]
        assert tlps == sorted(tlps, reverse=True)
        assert all(a > b for a, b in zip(edps, edps[1:]))

    @settings(max_examples=30, deadline=None)
    @given(scores_strategy)
    def test_frontier_is_idempotent(self, scores):
        frontier = pareto_frontier(scores)
        assert pareto_frontier(frontier) == frontier
