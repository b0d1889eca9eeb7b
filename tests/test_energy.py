"""Tests for the activity-based energy model."""

import pytest

from repro.apps import create_app
from repro.harness import run_app_once
from repro.hardware import paper_machine
from repro.os import EnergyModel, WorkClass
from repro.sim import MS, SECOND

SHORT = 15 * SECOND


class TestEnergyModelUnit:
    def test_no_activity_no_active_energy(self):
        model = EnergyModel(paper_machine())
        report = model.report(SECOND)
        assert report.cpu_active_j == 0.0
        assert report.cpu_idle_j > 0.0

    def test_active_energy_accumulates_per_process(self):
        model = EnergyModel(paper_machine())
        model.record_slice("a.exe", WorkClass.BALANCED, 100 * MS, 1.0)
        model.record_slice("b.exe", WorkClass.BALANCED, 100 * MS, 1.0)
        assert model.active_j(("a.exe",)) > 0
        assert model.active_j(("a.exe",)) == pytest.approx(
            model.active_j(("b.exe",)))

    def test_fu_bound_work_costs_more_than_ui(self):
        model = EnergyModel(paper_machine())
        model.record_slice("fu.exe", WorkClass.FU_BOUND, 100 * MS, 1.0)
        model.record_slice("ui.exe", WorkClass.UI, 100 * MS, 1.0)
        assert (model.active_j(("fu.exe",))
                > model.active_j(("ui.exe",)))

    def test_turbo_clock_raises_power_superlinearly(self):
        model = EnergyModel(paper_machine())
        model.record_slice("base.exe", WorkClass.BALANCED, 100 * MS, 1.0)
        model.record_slice("turbo.exe", WorkClass.BALANCED, 100 * MS, 1.27)
        ratio = (model.active_j(("turbo.exe",))
                 / model.active_j(("base.exe",)))
        assert ratio == pytest.approx(1.27 ** 2, rel=0.01)

    def test_report_filters_by_process(self):
        model = EnergyModel(paper_machine())
        model.record_slice("a.exe", WorkClass.BALANCED, 100 * MS, 1.0)
        model.record_slice("b.exe", WorkClass.BALANCED, 300 * MS, 1.0)
        only_a = model.report(SECOND, processes={"a.exe"})
        both = model.report(SECOND)
        assert only_a.cpu_active_j < both.cpu_active_j

    def test_average_power(self):
        model = EnergyModel(paper_machine())
        report = model.report(2 * SECOND)
        assert report.average_power_w == pytest.approx(
            report.total_j / 2.0)


class TestEnergyIntegration:
    def test_busy_app_uses_more_cpu_energy_than_idle_app(self):
        handbrake = run_app_once(create_app("handbrake"),
                                 duration_us=SHORT, seed=1)
        word = run_app_once(create_app("word"), duration_us=SHORT, seed=1)
        assert handbrake.energy.cpu_active_j > 5 * word.energy.cpu_active_j

    def test_gpu_heavy_app_draws_gpu_energy(self):
        miner = run_app_once(create_app("wineth"), duration_us=SHORT, seed=1)
        assert miner.energy.gpu_active_j > miner.energy.cpu_active_j

    def test_energy_report_window_matches_run(self):
        run = run_app_once(create_app("excel"), duration_us=SHORT, seed=1)
        assert run.energy.window_us == SHORT

    def test_more_cores_spend_more_energy_for_parallel_work(self):
        four = run_app_once(create_app("handbrake"),
                            machine=paper_machine().with_logical_cpus(4),
                            duration_us=SHORT, seed=1)
        twelve = run_app_once(create_app("handbrake"),
                              duration_us=SHORT, seed=1)
        # Twelve cores transcode more frames and burn more joules.
        assert twelve.energy.cpu_active_j > four.energy.cpu_active_j
