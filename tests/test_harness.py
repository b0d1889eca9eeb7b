"""Tests for the experiment harness: runner, sweeps, suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.harness
from repro.apps.transcoding import HandBrake, WinXVideoConverter
from repro.harness import (
    core_scaling_sweep,
    gpu_swap_sweep,
    run_app,
    run_app_once,
    run_suite,
    runner,
    smt_sweep,
)
from repro.hardware import GTX_1080_TI, GTX_680
from repro.sim import SECOND
from repro.validate import InjectedCrash, TraceValidationError

SHORT = 15 * SECOND


class TestRunner:
    def test_harness_reexports_the_runner(self):
        assert repro.harness.run_app is runner.run_app
        assert repro.harness.run_app_once is runner.run_app_once

    def test_run_app_once_by_name(self):
        result = runner.run_app_once("excel", duration_us=SHORT, seed=2)
        assert result.app_name == "excel"
        assert result.tlp.tlp > 0
        assert "EXCEL.EXE" in result.process_names

    def test_run_app_once_with_config(self):
        result = runner.run_app_once("winx", config={"use_gpu": False},
                                     duration_us=SHORT, seed=2)
        assert result.outputs["gpu_path"] is False

    def test_run_app_with_config(self):
        result = runner.run_app("winx", config={"use_gpu": False},
                                duration_us=SHORT, iterations=1)
        assert result.outputs["gpu_path"] is False

    def test_config_rejected_for_model_instances(self):
        with pytest.raises(ValueError,
                           match="config kwargs only apply when app is a name"):
            runner.run_app_once(HandBrake(), config={"x": 1},
                                duration_us=SHORT)
        with pytest.raises(ValueError,
                           match="config kwargs only apply when app is a name"):
            runner.run_app(HandBrake(), config={"x": 1}, duration_us=SHORT)

    def test_iterations_summarized(self):
        result = run_app("excel", duration_us=SHORT, iterations=3)
        assert result.tlp.n == 3
        assert result.tlp.std < 0.5  # paper: low sigma across iterations
        assert len(result.runs) == 3

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            run_app("excel", duration_us=SHORT, iterations=0)

    def test_keep_trace_retains_artifacts(self):
        result = run_app_once("excel", duration_us=SHORT, seed=2,
                              keep_trace=True)
        assert result.trace is not None
        assert result.cpu_table is not None
        assert result.trace.duration == SHORT

    def test_trace_not_kept_by_default(self):
        result = run_app_once("excel", duration_us=SHORT, seed=2)
        assert result.trace is None

    def test_memory_counters_aggregated(self):
        result = run_app_once("handbrake", duration_us=SHORT, seed=2)
        assert result.memory_counters.work_us > 0
        assert result.memory_counters.llc_misses > 0

    def test_memory_counters_ignore_the_hash_seed(self):
        # An app's processes are a set of names; its float counters
        # must not be summed in the set's hash-seed-dependent order.
        script = (
            "from repro.apps import create_app\n"
            "from repro.harness import run_app_once\n"
            "from repro.sim import SECOND\n"
            "for name in ('firefox', 'edge'):\n"
            "    c = run_app_once(create_app(name), duration_us=SECOND,\n"
            "                     seed=1).memory_counters\n"
            "    print(name, c.llc_misses.hex(), c.l1_stall_us.hex())\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = set()
        for hash_seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                       PYTHONPATH=src)
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120).stdout)
        assert len(outputs) == 1, outputs

    def test_fractions_averaged_over_iterations(self):
        result = run_app("vlc", duration_us=SHORT, iterations=2)
        assert len(result.fractions) == 13
        assert sum(result.fractions) == pytest.approx(1.0, abs=1e-6)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            run_app_once("chrome", duration_us=SECOND,
                         fault="no-such-fault")

    def test_validated_trace_fault_raises(self):
        with pytest.raises(TraceValidationError):
            run_app_once("chrome", duration_us=SECOND, seed=2019,
                         fault="timestamp-skew", validate=True)

    def test_injected_crash_propagates(self):
        with pytest.raises(InjectedCrash):
            run_app_once("chrome", duration_us=SECOND, seed=2019,
                         fault="worker-crash")


class TestSweeps:
    def test_core_scaling_monotone_for_scalable_app(self):
        sweep = core_scaling_sweep(lambda: HandBrake(),
                                   logical_cpus=(4, 8, 12),
                                   duration_us=SHORT)
        tlps = [sweep[n].tlp.mean for n in (4, 8, 12)]
        assert tlps[0] < tlps[1] < tlps[2]
        assert tlps[0] == pytest.approx(4.0, abs=0.6)

    def test_core_scaling_flat_for_serial_app(self):
        sweep = core_scaling_sweep(lambda: __import__(
            "repro.apps.office", fromlist=["Excel"]).Excel(),
            logical_cpus=(4, 12), duration_us=SHORT)
        assert abs(sweep[12].tlp.mean - sweep[4].tlp.mean) < 0.7

    def test_smt_sweep_shape(self):
        grid = smt_sweep(lambda: HandBrake(), physical_cores=(2, 6),
                         gpus=(GTX_1080_TI,), duration_us=SHORT)
        assert set(grid) == {(GTX_1080_TI.name, True, 2),
                             (GTX_1080_TI.name, True, 6),
                             (GTX_1080_TI.name, False, 2),
                             (GTX_1080_TI.name, False, 6)}

    def test_smt_lowers_transcode_rate(self):
        # The Fig. 8 headline: FU-bound encode loses throughput to SMT.
        grid = smt_sweep(lambda: HandBrake(), physical_cores=(6,),
                         gpus=(GTX_1080_TI,), duration_us=30 * SECOND)
        smt_frames = grid[(GTX_1080_TI.name, True, 6)].outputs["frames"]
        nosmt_frames = grid[(GTX_1080_TI.name, False, 6)].outputs["frames"]
        assert nosmt_frames >= smt_frames

    def test_gpu_swap_raises_utilization_on_weaker_gpu(self):
        sweep = gpu_swap_sweep(lambda: WinXVideoConverter(),
                               duration_us=SHORT)
        assert (sweep[GTX_680.name].gpu_util.mean
                > 2.0 * sweep[GTX_1080_TI.name].gpu_util.mean)

    def test_gpu_swap_keeps_nvenc_rate(self):
        # Fig. 8a: transcode rates overlap exactly across GPUs because
        # NVENC is fixed-function.
        sweep = gpu_swap_sweep(lambda: WinXVideoConverter(),
                               duration_us=SHORT)
        rate_680 = sweep[GTX_680.name].outputs["frames"]
        rate_1080 = sweep[GTX_1080_TI.name].outputs["frames"]
        assert rate_680 == pytest.approx(rate_1080, rel=0.06)


class TestSuite:
    @pytest.fixture(scope="class")
    def small_suite(self):
        return run_suite(names=("excel", "vlc", "handbrake", "wineth"),
                         duration_us=SHORT, iterations=1)

    def test_all_requested_apps_present(self, small_suite):
        assert set(small_suite.results) == {"excel", "vlc", "handbrake",
                                            "wineth"}

    def test_category_averages(self, small_suite):
        averages = small_suite.category_averages()
        assert len(averages) == 4
        for tlp, gpu in averages.values():
            assert tlp > 0 and gpu >= 0

    def test_overall_average(self, small_suite):
        overall = small_suite.overall_average_tlp()
        per_app = [r.tlp.mean for r in small_suite.results.values()]
        assert overall == pytest.approx(sum(per_app) / len(per_app))

    def test_threshold_filters(self, small_suite):
        above = small_suite.apps_with_tlp_above(4.0)
        assert "handbrake" in above
        assert "vlc" not in above

    def test_max_tlp_filter(self, small_suite):
        reaching = small_suite.apps_reaching_max_tlp(12)
        assert "handbrake" in reaching
