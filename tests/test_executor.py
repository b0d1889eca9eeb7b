"""Tests for the execution engine: backends, fan-out, determinism.

The headline guarantee: every grid point owns its environment and is
fully seed-determined, so a process-pool run must be **bit-identical**
to a serial run — same TLP fractions, same GPU utilization, float for
float.
"""

import inspect

import pytest

from repro.apps.transcoding import HandBrake
from repro.harness import (
    ParallelExecutor,
    SerialExecutor,
    make_spec,
    run_app,
    run_suite,
    smt_sweep,
)
from repro.harness.cache import ResultCache
from repro.harness.executor import (
    RUN_DEFAULTS,
    _CachingExecutor,
    default_jobs,
    execute_spec,
)
from repro.harness.runner import run_app_once
from repro.harness.supervisor import SupervisedExecutor
from repro.hardware import GTX_1080_TI, paper_machine
from repro.sim import SECOND
from repro.validate import fingerprint_run

SHORT = 3 * SECOND


class TestExecutorChoice:
    """A library call runs on the ``executor=`` it is given, and on a
    fresh :class:`SerialExecutor` without one."""

    def test_default_is_serial(self, monkeypatch):
        used = []
        execute = SerialExecutor._execute

        def spy(self, specs, pending):
            used.append(self)
            return execute(self, specs, pending)

        monkeypatch.setattr(SerialExecutor, "_execute", spy)
        run_app("excel", duration_us=SHORT, iterations=1)
        run_suite(names=("excel",), duration_us=SHORT, iterations=1)
        assert len(used) == 2 and used[0] is not used[1]

    def test_jobs_n_is_parallel(self):
        assert ParallelExecutor(jobs=4).jobs == 4

    def test_jobs_zero_autosizes(self):
        assert ParallelExecutor(jobs=0).jobs == default_jobs() >= 1

    def test_explicit_executor_wins(self):
        executor = SerialExecutor()
        run_app("excel", duration_us=SHORT, iterations=2, executor=executor)
        assert executor.executed == 2

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=-1)


class TestSpecs:
    def test_make_spec_normalizes_machine(self):
        spec = make_spec("excel", seed=3)
        assert spec.kwargs["machine"] == paper_machine()
        assert spec.kwargs["seed"] == 3
        assert spec.kwargs["duration_us"] == 60 * SECOND

    def test_make_spec_rejects_unknown_knob(self):
        with pytest.raises(TypeError):
            make_spec("excel", quantums=1)

    def test_run_defaults_are_run_app_once_defaults(self):
        params = inspect.signature(run_app_once).parameters
        assert RUN_DEFAULTS == {
            name: param.default for name, param in params.items()
            if name not in ("app", "config")}

    def test_execute_spec_by_name_and_config(self):
        run = execute_spec(make_spec("winx", config={"use_gpu": False},
                                     duration_us=SHORT, seed=2))
        assert run.outputs["gpu_path"] is False

    def test_execute_spec_rejects_config_on_instance(self):
        with pytest.raises(ValueError):
            execute_spec(make_spec(HandBrake(), config={"use_gpu": True},
                                   duration_us=SHORT))


class TestDeterminism:
    """Parallel fan-out must be bit-identical to serial execution."""

    NAMES = ("excel", "handbrake")

    @pytest.fixture(scope="class")
    def suites(self):
        serial = run_suite(names=self.NAMES, duration_us=SHORT,
                           iterations=2, executor=SerialExecutor())
        parallel = run_suite(names=self.NAMES, duration_us=SHORT,
                             iterations=2, executor=ParallelExecutor(jobs=4))
        return serial, parallel

    def test_fractions_bit_identical(self, suites):
        serial, parallel = suites
        for name in self.NAMES:
            assert serial.results[name].fractions == \
                parallel.results[name].fractions
            for a, b in zip(serial.results[name].runs,
                            parallel.results[name].runs):
                assert a.tlp.fractions == b.tlp.fractions
                assert a.tlp.tlp == b.tlp.tlp

    def test_gpu_util_bit_identical(self, suites):
        serial, parallel = suites
        for name in self.NAMES:
            assert serial.results[name].gpu_util == \
                parallel.results[name].gpu_util
            for a, b in zip(serial.results[name].runs,
                            parallel.results[name].runs):
                assert a.gpu_util.utilization_pct == b.gpu_util.utilization_pct

    def test_summaries_bit_identical(self, suites):
        serial, parallel = suites
        for name in self.NAMES:
            assert serial.results[name].tlp == parallel.results[name].tlp
            assert serial.results[name].max_instantaneous == \
                parallel.results[name].max_instantaneous


class TestParallelBackend:
    def test_executed_counts_simulations(self):
        executor = SerialExecutor()
        run_suite(names=("excel",), duration_us=SHORT, iterations=2,
                  executor=executor)
        assert executor.executed == 2

    def test_unpicklable_spec_falls_back_in_process(self):
        app = HandBrake()
        app.on_done = lambda: None   # lambdas cannot cross a process pool
        executor = ParallelExecutor(jobs=2)
        (run,) = executor.map([make_spec(app, duration_us=SHORT, seed=4)])
        assert run.tlp.tlp > 0
        assert executor.executed == 1

    def test_sweep_accepts_jobs(self):
        def grid(**kw):
            return smt_sweep(lambda: HandBrake(), physical_cores=(2,),
                             gpus=(GTX_1080_TI,), duration_us=SHORT, **kw)

        serial, parallel = grid(), grid(executor=ParallelExecutor(jobs=2))
        assert set(serial) == set(parallel)
        for key in serial:
            assert serial[key].tlp.fractions == parallel[key].tlp.fractions


#: The three backends of the one shared ``map``.
EXECUTORS = {
    "serial": lambda cache: SerialExecutor(cache=cache),
    "parallel": lambda cache: ParallelExecutor(jobs=2, cache=cache),
    "supervised": lambda cache: SupervisedExecutor(cache=cache),
}


class TestOneMap:
    """Every executor is one ``_execute`` under the same ``map``."""

    def test_no_executor_subclasses_another(self):
        # perfbench wraps each class's ``map``; a wrapped class that
        # inherited from another wrapped one would be counted twice.
        classes = (SerialExecutor, ParallelExecutor, SupervisedExecutor)
        for cls in classes:
            assert not [other for other in classes
                        if other is not cls and issubclass(cls, other)]
            assert "map" not in vars(cls)
            assert cls.map is _CachingExecutor.map

    @pytest.mark.parametrize("make", EXECUTORS.values(), ids=EXECUTORS)
    def test_every_executor_carries_the_same_counters(self, make):
        executor = make(None)
        counters = {name: getattr(executor, name) for name in (
            "executed", "cache_hits", "rejected", "retried", "failures",
            "incidents")}
        assert counters == {"executed": 0, "cache_hits": 0, "rejected": 0,
                            "retried": 0, "failures": [], "incidents": []}

    @pytest.mark.parametrize("make", EXECUTORS.values(), ids=EXECUTORS)
    def test_corrupt_entry_is_an_incident_and_recomputes(self, make,
                                                         tmp_path):
        specs = [make_spec("excel", duration_us=SHORT, seed=seed)
                 for seed in (0, 1)]
        cold = SerialExecutor(cache=ResultCache(tmp_path)).map(specs)
        key = ResultCache(tmp_path).key_for(specs[1])
        (tmp_path / key[:2] / f"{key}.pkl").write_bytes(b"not a pickle")

        executor = make(ResultCache(tmp_path))
        warm = executor.map(specs)
        assert (executor.cache_hits, executor.executed) == (1, 1)
        assert [(i.index, i.kind, i.attempts, i.spec_key)
                for i in executor.incidents] == \
            [(1, "cache-corrupt", 0, key)]
        assert executor.failures == []
        assert [fingerprint_run(run) for run in warm] == \
            [fingerprint_run(run) for run in cold]
