"""Property-based proof of the DSE simulate-once guarantee.

The engine's correctness claim: for any config drawn from the
generator's axes, scoring it analytically from the *signature
representative's* base run equals fully re-simulating the config
itself — exactly on every integer-derived quantity (TLP, duration),
to float tolerance on the energy path (both paths price the same
activity histogram in the same order, but numpy's ``**`` may round
differently from the scalar one).  Hypothesis draws the tech node,
DVFS point and energy coefficients; base runs are memoized per
signature so each example costs one simulation, not two.
"""

import gc
import random
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.metrics.kernels as kernels
from repro.analysis.dse.axes import partition_configs, sim_signature
from repro.analysis.dse.engine import _sample_equivalence, frontier_from_groups
from repro.analysis.dse.pareto import dominates, pareto_frontier
from repro.analysis.dse.score import (
    WORK_CLASSES,
    ConfigColumns,
    ConfigScore,
    _assemble,
    batch_score,
    coefficients_for,
    score_from_simulation,
)
from repro.harness.cache import machine_digest
from repro.harness.executor import execute_spec, make_spec
from repro.hardware.catalog import (
    GENERATOR_CORES,
    GENERATOR_SMT_WAYS,
    GPUS,
    GTX_285,
    GTX_1080_TI,
    SMP_2000,
    TECH_NODES,
    VTH_V,
    MachineGrid,
    dvfs_bounds,
    generate_machines,
    machine_2010,
    paper_machine,
    parametric_machine,
)
from repro.hardware.specs import MachineSpec
from repro.metrics.kernels import argmin, batch_active_energy, score_tail
from repro.os.energy import EnergyCoefficients, default_coefficients
from repro.os.memmodel import MemoryModel
from repro.os.scheduler import build_topology, compute_clock_factor
from repro.os.work import WorkClass
from repro.sim import SECOND
from repro.validate import GOLDEN_CONFIGS, golden_machine
from tests.test_kernels import each_backend

SHORT = SECOND // 10

#: Flautner et al.'s 2000-era SMP: a catalog CPU without SMT.
MACHINE_2000 = MachineSpec(cpu=SMP_2000, gpu=GTX_285, ram_gb=1,
                           os_name="Linux 2.2 / Windows 2000")

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
        power = [list(column) for column in zip(*(row for row, _ in configs))]
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


# -- one model call per histogram bucket ---------------------------------------

#: Slices as (process, work class, wall µs, (sibling busy, same process)).
slices_strategy = st.lists(
    st.tuples(st.sampled_from(["a.exe", "b.exe"]),
              st.sampled_from(list(WorkClass)),
              st.integers(1, 1_000_000),
              st.sampled_from([(False, False), (True, False),
                               (True, True)])),
    max_size=60)


class TestSliceBucketProperties:
    """The scheduler folds its slice histogram into the memory model,
    one call per bucket; the counters must be those of one call per
    slice."""

    @settings(max_examples=100, deadline=None)
    @given(slices_strategy)
    def test_one_call_per_bucket_counts_like_one_per_slice(self, slices):
        per_slice, per_bucket = MemoryModel(), MemoryModel()
        buckets = {}
        for name, work_class, wall_us, flags in slices:
            per_slice.record_slice(name, work_class, wall_us, *flags)
            key = (name, work_class, flags)
            buckets[key] = buckets.get(key, 0) + wall_us
        for (name, work_class, flags), wall_us in buckets.items():
            per_bucket.record_slice(name, work_class, wall_us, *flags)
        assert per_bucket.process_names() == per_slice.process_names()
        for name in per_slice.process_names():
            want, got = per_slice.counters(name), per_bucket.counters(name)
            assert got.work_us == want.work_us
            assert got.contended_us == want.contended_us
            assert got.by_class == want.by_class
            assert got.llc_misses == pytest.approx(want.llc_misses,
                                                   rel=1e-12)
            assert got.l1_stall_us == pytest.approx(want.l1_stall_us,
                                                    rel=1e-12)


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


# -- the columnar scoring path against its scalar reference -------------------

def drawn_machine(cores, smt_ways, tech, dvfs_pos, coefficients,
                  gpu_tdp_w, gpu):
    lo, hi = dvfs_bounds(tech)
    return parametric_machine(
        cores, smt_ways=smt_ways, tech_nm=tech,
        dvfs_ratio=lo + (hi - lo) * dvfs_pos, gpu=gpu,
        coefficients=replace(coefficients, gpu_tdp_w=gpu_tdp_w))


def machine_strategy():
    """Parametric machines over every axis (tech node, DVFS point,
    coefficients with or without a GPU TDP override, GPU), mixed with
    the catalog machines that carry no parametric fields at all."""
    parametric = st.builds(
        drawn_machine,
        st.sampled_from(GENERATOR_CORES),
        st.sampled_from(GENERATOR_SMT_WAYS),
        st.sampled_from(TECH_NODES),
        st.floats(0.0, 1.0, allow_nan=False),
        coefficients_strategy(),
        st.one_of(st.none(), st.floats(60.0, 400.0)),
        st.sampled_from(sorted(GPUS.values(), key=lambda g: g.name)))
    catalog = st.sampled_from([paper_machine(), machine_2010(),
                               MACHINE_2000,
                               paper_machine().with_smt(False)])
    return st.one_of(parametric, catalog)


def fake_run(histogram, duration_us, gpu_busy_us, tlp):
    """The base-run fields the scoring path reads."""
    activity = {}
    for wall_us, column, factor in histogram:
        key = (WORK_CLASSES[column], factor)
        activity[key] = activity.get(key, 0) + wall_us
    return SimpleNamespace(activity=activity, duration_us=duration_us,
                           gpu_busy_us=gpu_busy_us,
                           tlp=SimpleNamespace(tlp=tlp))


run_strategy = st.builds(fake_run, histogram_strategy,
                         st.integers(0, 10_000_000),
                         st.integers(0, 20_000_000),
                         st.floats(0.0, 32.0, allow_nan=False))


def assembled(app, run, machines, indices):
    """The scalar path: the kernel over the whole list, then one
    ``_assemble`` per config."""
    coeffs = [coefficients_for(machine) for machine in machines]
    entries = sorted(run.activity.items())
    active = batch_active_energy(
        [us for _, us in entries],
        [WORK_CLASSES.index(cls) for (cls, _), _ in entries],
        [factor for (_, factor), _ in entries],
        [[c.active_power_w.get(cls, 0.0) for c in coeffs]
         for cls in WORK_CLASSES],
        [c.clock_exponent for c in coeffs])
    return [_assemble(app, index, machine, run.tlp.tlp, run.duration_us,
                      active[k], run.gpu_busy_us, analytic=True)
            for k, (index, machine) in enumerate(zip(indices, machines))]


class TestColumnarScoring:
    """Each scoring backend of :mod:`repro.metrics.kernels` against
    ``_assemble`` over its own kernel totals."""

    @settings(max_examples=60, deadline=None)
    @given(run_strategy, st.lists(machine_strategy(), min_size=1,
                                  max_size=10))
    def test_batch_score_equals_assemble_exactly(self, run, machines):
        machines.append(paper_machine())
        indices = [3 * k + 1 for k in range(len(machines))]
        for name, context in each_backend():
            with context:
                scores = batch_score("excel", run, machines,
                                     indices=indices)
                expected = assembled("excel", run, machines, indices)
            assert len(scores) == len(expected), name
            for k, want in enumerate(expected):
                got = scores[k]
                assert got == want, name    # every field, floats under ==
                assert got is scores[k], name   # built once, then reused
                assert {type(got.wall_s), type(got.energy_j),
                        type(got.edp_js)} == {float}, name
            assert list(scores) == expected, name
            assert scores[-1] is scores[len(scores) - 1], name
            for k in (len(scores), -len(scores) - 1):
                with pytest.raises(IndexError):
                    scores[k]

    def test_real_base_run_scores_exactly(self):
        run = base_run("handbrake", 4, 2)
        machines = generate_machines(40, seed=3) + [paper_machine()]
        for name, context in each_backend():
            with context:
                assert list(batch_score("handbrake", run, machines)) == \
                    assembled("handbrake", run, machines,
                              range(len(machines))), name


def columns_of(length, elements):
    """``length``-long lists of ``elements``, one per scoring column."""
    return st.lists(elements, min_size=length, max_size=length)


#: One group's scoring-tail inputs: active joules, base-run duration
#: and GPU busy fraction, then the five per-config factor and watt
#: columns.
tail_strategy = st.integers(0, 12).flatmap(lambda n: st.tuples(
    columns_of(n, st.floats(0.0, 1e4)),
    st.integers(0, 10_000_000),
    st.floats(0.0, 1.0),
    *[columns_of(n, st.floats(1e-3, 300.0))] * 5))

#: EDP columns drawn from three values, so ties are common, with
#: distinct config indices in any order.
edp_strategy = st.lists(st.sampled_from([0.5, 2.0, 3.25]), min_size=1,
                        max_size=20).flatmap(
    lambda edps: st.tuples(st.just(edps),
                           st.permutations(range(len(edps)))))


class TestScoringKernels:
    """The numpy scoring tail and argmin against the pure-Python ones,
    which are the reference: every operation rounds the same per
    element, so the results are equal, not just close."""

    @settings(max_examples=80, deadline=None)
    @given(tail_strategy)
    def test_tail_equals_the_pure_tail(self, drawn):
        results = {}
        for name, context in each_backend():
            with context:
                results[name] = [float_hexes(column)
                                 for column in score_tail(*drawn)]
        assert all(got == results["python"] for got in results.values())

    @settings(max_examples=120, deadline=None)
    @given(edp_strategy)
    def test_argmin_equals_the_tuple_minimum(self, drawn):
        edps, keys = drawn
        want = min(zip(edps, keys, range(len(edps))))[2]
        for name, context in each_backend():
            with context:
                assert argmin(edps, keys) == want, name


# -- the group-minimum frontier ------------------------------------------------

_POOL = [parametric_machine(4, tech_nm=45, dvfs_ratio=1.0),
         parametric_machine(4, tech_nm=8, dvfs_ratio=0.9),
         parametric_machine(4, tech_nm=22, dvfs_ratio=1.2,
                            coefficients=replace(default_coefficients(),
                                                 cpu_idle_w=2.0))]

#: Per config: (group label, machine from a three-machine pool).
#: Repeated pool picks inside a group tie on EDP; labels sharing a TLP
#: from the three-value set tie across groups.
campaign_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, len(_POOL) - 1)),
    min_size=1, max_size=30)


class TestGroupMinimumFrontier:
    @settings(max_examples=80, deadline=None)
    @given(campaign_strategy,
           st.lists(st.sampled_from([1.5, 2.0, 3.25]), min_size=5,
                    max_size=5),
           st.sets(st.integers(0, 4), max_size=2),
           histogram_strategy)
    @example([(0, 0), (0, 0), (1, 1), (0, 2), (1, 0), (1, 0), (2, 1)],
             [2.0, 2.0, 1.5, 2.0, 2.0], set(),
             [(500_000, 0, 1.0), (20_000, 2, 1.27)])
    def test_equals_pareto_over_every_score(self, campaign, tlps,
                                            failed, histogram):
        groups = {}
        for index, (label, _) in enumerate(campaign):
            groups.setdefault(label, []).append(index)
        for name, context in each_backend():
            with context:
                blocks = [
                    None if label in failed else batch_score(
                        "excel",
                        fake_run(histogram, 1_000_000, 250_000,
                                 tlps[label]),
                        [_POOL[campaign[i][1]] for i in members],
                        indices=members)
                    for label, members in groups.items()
                ]
                frontier = frontier_from_groups(blocks)
            everything = pareto_frontier(
                [score for block in blocks if block is not None
                 for score in block])
            assert frontier == everything, name
            assert [id(s) for s in frontier] == \
                [id(s) for s in everything], name


# -- the arithmetic signature against a real topology --------------------------

def topology_signature(machine):
    """The signature computed from a built topology and a fresh
    clock-factor table: the reference the arithmetic one must equal."""
    cpu = machine.cpu
    gpu = machine.gpu
    n_cores = len({lcpu.core for lcpu in build_topology(machine)})
    return (
        cpu.physical_cores,
        cpu.smt_ways,
        machine.smt_enabled,
        machine.active_logical_cpus,
        tuple(compute_clock_factor(cpu, busy, n_cores)
              for busy in range(n_cores + 1)),
        cpu.llc_mb,
        tuple(sorted((cls.value, rate)
                     for cls, rate in cpu.smt_throughput.items())),
        machine.ram_gb,
        (gpu.name, gpu.cuda_cores, gpu.clock_mhz, gpu.architecture,
         gpu.vram_gb, gpu.has_nvenc, gpu.mining_optimized,
         gpu.vr_capable, gpu.video_engine_slowdown),
    )


def assert_same_signature(machine):
    got, want = sim_signature(machine), topology_signature(machine)
    assert got == want
    assert [f.hex() for f in got[4]] == [f.hex() for f in want[4]]


def restricted(machine):
    """``machine`` at every logical CPU count, with SMT and without."""
    variants = []
    for base in (machine, machine.with_smt(False)):
        limit = base.logical_cpus
        variants += [base.with_logical_cpus(k) for k in range(1, limit + 1)]
    return variants


CATALOG = [paper_machine(), machine_2010(), MACHINE_2000]


class TestArithmeticSignature:
    @pytest.mark.parametrize("cores", GENERATOR_CORES)
    @pytest.mark.parametrize("smt_ways", GENERATOR_SMT_WAYS)
    def test_every_generator_pair(self, cores, smt_ways):
        for tech in TECH_NODES:
            lo, hi = dvfs_bounds(tech)
            for dvfs in (lo, 1.0, hi):
                assert_same_signature(parametric_machine(
                    cores, smt_ways=smt_ways, tech_nm=tech,
                    dvfs_ratio=dvfs))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(GENERATOR_CORES),
           st.sampled_from(GENERATOR_SMT_WAYS),
           st.sampled_from(TECH_NODES),
           st.floats(0.0, 1.0, allow_nan=False))
    def test_drawn_dvfs_points(self, cores, smt_ways, tech, pos):
        lo, hi = dvfs_bounds(tech)
        assert_same_signature(parametric_machine(
            cores, smt_ways=smt_ways, tech_nm=tech,
            dvfs_ratio=lo + (hi - lo) * pos))

    @pytest.mark.parametrize("machine", CATALOG,
                             ids=lambda m: m.cpu.name)
    def test_catalog_machines_at_every_cpu_count(self, machine):
        for variant in [machine] + restricted(machine):
            assert_same_signature(variant)

    @pytest.mark.parametrize("cores, smt", GOLDEN_CONFIGS)
    def test_golden_grid_machines(self, cores, smt):
        assert_same_signature(golden_machine(cores, smt))

    def test_generated_campaign(self):
        for machine in generate_machines(2000, seed=7):
            assert_same_signature(machine)


# -- the columnar machine grid against the per-machine generator ---------------

def reference_machines(count, seed=0, cores=GENERATOR_CORES,
                       smt_ways=GENERATOR_SMT_WAYS, tech_nodes=TECH_NODES,
                       coefficient_jitter=0.25, gpu=GTX_1080_TI):
    """The per-machine generator loop the grid must reproduce: the same
    draws in the same order, each machine built as it is drawn."""
    rng = random.Random(f"dse-machines:{seed}")
    machines = []
    for _ in range(count):
        tech = rng.choice(tech_nodes)
        lo, hi = dvfs_bounds(tech)

        def jitter():
            return 1.0 + rng.uniform(-coefficient_jitter,
                                     coefficient_jitter)

        base = default_coefficients()
        coefficients = EnergyCoefficients(
            active_power_w={cls: watts * jitter()
                            for cls, watts in base.active_power_w.items()},
            cpu_idle_w=base.cpu_idle_w * jitter(),
            clock_exponent=base.clock_exponent + rng.uniform(-0.2, 0.2),
        )
        machines.append(parametric_machine(
            cores=rng.choice(cores),
            smt_ways=rng.choice(smt_ways),
            tech_nm=tech,
            dvfs_ratio=rng.uniform(lo, hi),
            gpu=gpu,
            coefficients=coefficients,
        ))
    return machines


#: Generator axes: the defaults, and narrower or unusual ones.
axes_strategy = st.fixed_dictionaries({}, optional={
    "cores": st.sampled_from([(4,), (1, 3, 64)]),
    "smt_ways": st.sampled_from([(1,), (2, 4)]),
    "tech_nodes": st.sampled_from([(22,), (8, 45)]),
    "coefficient_jitter": st.sampled_from([0.0, 0.5]),
    "gpu": st.sampled_from(sorted(GPUS.values(), key=lambda g: g.name)),
})

grid_strategy = st.tuples(st.integers(0, 300), st.integers(0, 2**32 - 1),
                          axes_strategy)


def float_hexes(column):
    """A score column as hex strings; power rows (lists, tuples or
    arrays) are flattened."""
    return [value.hex() for entry in column
            for value in ([entry] if isinstance(entry, float) else entry)]


_COLUMNS = ("power", "exponents", "cpu_idle_w", "gpu_idle_w",
            "gpu_span_w", "time_scale", "node_scale")


class TestMachineGrid:
    @settings(max_examples=25, deadline=None)
    @given(grid_strategy)
    @example((300, 1, {}))
    @example((120, 7, {"smt_ways": (1,), "tech_nodes": (22,),
                       "coefficient_jitter": 0.0}))
    def test_grid_equals_the_per_machine_generator(self, drawn):
        count, seed, axes = drawn
        grid = generate_machines(count, seed=seed, **axes)
        want = reference_machines(count, seed=seed, **axes)
        assert len(grid) == count
        assert list(grid) == want
        assert [machine_digest(m) for m in grid] == \
            [machine_digest(m) for m in want]

    @settings(max_examples=25, deadline=None)
    @given(grid_strategy)
    def test_grid_partition_equals_machine_by_machine(self, drawn):
        count, seed, axes = drawn
        grid = generate_machines(count, seed=seed, **axes)
        got = partition_configs(grid)
        assert list(got.items()) == \
            list(partition_configs(list(grid)).items())
        for machines in (grid, grid + CATALOG):
            for signature, members in partition_configs(machines).items():
                assert all(sim_signature(machines[index]) == signature
                           for index in members)

    @settings(max_examples=25, deadline=None)
    @given(grid_strategy)
    def test_grid_columns_equal_machine_columns(self, drawn):
        # On each backend the grid's gather (one index operation per
        # typed column on numpy, list comprehensions otherwise) equals
        # the per-machine reference.
        count, seed, axes = drawn
        grid = generate_machines(count, seed=seed, **axes)
        groups = list(partition_configs(grid).values())
        for backend, context in each_backend():
            with context:
                for members in groups + [list(range(count))[::3]]:
                    got = ConfigColumns(grid, members)
                    want = ConfigColumns([grid[i] for i in members],
                                         members)
                    assert got.indices == want.indices == members
                    for name in _COLUMNS:
                        assert float_hexes(getattr(got, name)) == \
                            float_hexes(getattr(want, name)), \
                            (backend, name)
                    assert all(got.machine(k) is grid[index]
                               for k, index in enumerate(members))

    def test_columns_of_a_grid_in_another_class_order(self):
        # Power columns are gathered by class name, so a grid in any
        # class order reads into the kernel's order.
        grid = generate_machines(40, seed=2)
        flipped = MachineGrid(
            grid.tech_nm, grid.dvfs_ratio, grid.cores, grid.smt_ways,
            grid.power_w[::-1], grid.cpu_idle_w,
            grid.clock_exponent, grid.power_classes[::-1], grid.gpu)
        assert list(flipped) == list(grid)
        members = list(range(0, 40, 3))
        for backend, context in each_backend():
            with context:
                for name in _COLUMNS:
                    assert float_hexes(getattr(
                        ConfigColumns(flipped, members), name)) == \
                        float_hexes(getattr(ConfigColumns(grid, members),
                                            name)), (backend, name)

    def test_grid_holds_typed_columns(self):
        # Each numeric column is one typed buffer, eight bytes per
        # config, so 20,000 configs retain about 88 bytes each: ten
        # column entries and the slot ``grid[i]`` builds its machine
        # into.
        generate_machines(10, seed=1)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grid = generate_machines(20_000, seed=1)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        columns = [grid.tech_nm, grid.cores, grid.smt_ways,
                   grid.dvfs_ratio, *grid.power_w, grid.cpu_idle_w,
                   grid.clock_exponent]
        for column in columns:
            with memoryview(column) as view:
                assert view.format in ("q", "d")
                assert view.nbytes == 8 * 20_000
        assert retained <= 100 * 20_000

    def test_grid_reads_like_the_machine_list(self):
        grid = generate_machines(30, seed=4)
        machines = reference_machines(30, seed=4)
        assert len(grid) == 30
        assert grid[7] is grid[7]
        assert grid[-1] is grid[29]
        assert grid[-30] == machines[0]
        for index in (30, -31):
            with pytest.raises(IndexError):
                grid[index]
        assert grid[3:11:2] == machines[3:11:2]
        assert grid[::-1] == machines[::-1]
        assert grid[40:] == []
        assert list(iter(grid)) == machines
        assert grid == machines and machines == grid
        assert grid == generate_machines(30, seed=4)
        assert grid != machines[:-1]
        assert grid != generate_machines(30, seed=5)
        assert grid + [paper_machine()] == machines + [paper_machine()]
        assert grid + generate_machines(2, seed=1) == \
            machines + reference_machines(2, seed=1)

    @pytest.mark.parametrize("axes, message", [
        ({"cores": (4, 0)}, "^physical_cores must be >= 1$"),
        ({"smt_ways": (0,)}, "^smt_ways must be >= 1$"),
        ({"tech_nodes": (22, 7)}, "^unknown tech node 7 nm"),
        ({"cores": ()}, "^cores axis is empty$"),
        ({"smt_ways": ()}, "^smt_ways axis is empty$"),
        ({"tech_nodes": ()}, "^tech_nodes axis is empty$"),
    ], ids=["cores", "smt_ways", "tech_nodes", "empty-cores",
            "empty-smt_ways", "empty-tech_nodes"])
    def test_bad_axis_raises_at_generation(self, axes, message):
        # The axes are checked before the first draw, so a grid of no
        # configs rejects them too.
        for count in (0, 50):
            with pytest.raises(ValueError, match=message):
                generate_machines(count, seed=0, **axes)

    def test_generation_adds_no_object_per_config(self):
        # The grid is a fixed set of columns of untracked floats and
        # ints: 20,000 configs add a handful of GC-tracked objects
        # (a per-config row list would add 20,000).
        generate_machines(10, seed=1)
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            grid = generate_machines(20_000, seed=1)
            added = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert len(grid) == 20_000
        assert added < 100

    def test_empty_dvfs_band_raises_at_generation(self, monkeypatch):
        # A threshold above the overclock ceiling leaves no DVFS point.
        monkeypatch.setitem(VTH_V, 45, 2.0)
        with pytest.raises(ValueError, match=r"^dvfs_ratio=.* outside "
                                             r"\[2\.0000, 1\.3000\] at 45 nm$"):
            generate_machines(3, seed=0, tech_nodes=(45,))


# -- the equivalence sample against its materialized pool ----------------------

def pooled_sample(apps, groups, samples, seed):
    """The sampler that builds every (app, config) pair and samples the
    list: the reference the positional sampler must equal."""
    non_rep = [(app, index) for app in apps
               for members in groups.values() for index in members[1:]]
    pool = non_rep or [(app, members[0]) for app in apps
                       for members in groups.values()]
    rng = random.Random(f"dse-equivalence:{seed}")
    if samples >= len(pool):
        return list(pool)
    return sorted(rng.sample(pool, samples))


@st.composite
def sampling_strategy(draw):
    """Apps, a partition of configs into groups (all singletons, so
    the sampler falls back to the representatives, or not), a sample
    size from 0 to two past the pool and a seed."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    configs = draw(st.permutations(range(sum(sizes))))
    groups = {}
    for group, size in enumerate(sizes):
        start = sum(sizes[:group])
        groups[("signature", group)] = sorted(configs[start:start + size])
    apps = draw(st.sampled_from([["excel"], ["premiere", "excel"],
                                 ["handbrake", "premiere", "excel"]]))
    per_app = sum(sizes) - len(sizes) or len(sizes)
    samples = draw(st.integers(0, len(apps) * per_app + 2))
    return apps, groups, samples, draw(st.integers(0, 2**32 - 1))


class TestEquivalenceSample:
    @settings(max_examples=200, deadline=None)
    @given(sampling_strategy())
    @example((["excel"], {"a": [0], "b": [1], "c": [2]}, 2, 1))
    @example((["excel", "chrome"], {"a": [3], "b": [0, 2, 5], "c": [1, 4]},
              7, 3))
    @example((["handbrake", "premiere", "excel"],
              {"a": list(range(0, 120, 2)), "b": list(range(1, 120, 2))},
              8, 1))
    def test_equals_the_materialized_pool(self, drawn):
        apps, groups, samples, seed = drawn
        assert _sample_equivalence(apps, groups, samples, seed) == \
            pooled_sample(apps, groups, samples, seed)
