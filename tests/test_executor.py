"""Tests for the execution engine: backends, fan-out, determinism.

The headline guarantee: every grid point owns its environment and is
fully seed-determined, so a process-pool run must be **bit-identical**
to a serial run — same TLP fractions, same GPU utilization, float for
float.
"""

import pytest

from repro.apps.transcoding import HandBrake
from repro.harness import (
    ParallelExecutor,
    SerialExecutor,
    make_spec,
    resolve_executor,
    run_suite,
    smt_sweep,
)
from repro.harness.executor import default_jobs, execute_spec
from repro.hardware import GTX_1080_TI, paper_machine
from repro.sim import SECOND

SHORT = 3 * SECOND


class TestResolveExecutor:
    def test_default_is_serial(self):
        assert isinstance(resolve_executor(), SerialExecutor)
        assert isinstance(resolve_executor(jobs=1), SerialExecutor)

    def test_jobs_n_is_parallel(self):
        executor = resolve_executor(jobs=4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 4

    def test_jobs_zero_autosizes(self):
        assert resolve_executor(jobs=0).jobs == default_jobs() >= 1

    def test_explicit_executor_wins(self):
        executor = SerialExecutor()
        assert resolve_executor(executor=executor) is executor

    def test_jobs_and_executor_conflict(self):
        with pytest.raises(ValueError):
            resolve_executor(jobs=2, executor=SerialExecutor())

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
                           iterations=2, jobs=1)
        parallel = run_suite(names=self.NAMES, duration_us=SHORT,
                             iterations=2, jobs=4)
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

        serial, parallel = grid(), grid(jobs=2)
        assert set(serial) == set(parallel)
        for key in serial:
            assert serial[key].tlp.fractions == parallel[key].tlp.fractions
