"""Unit tests for TLP metrics (Equation 1) and interval machinery."""

import pytest

from repro.metrics import (
    fused_sweep,
    measure_tlp,
    tlp_from_fractions,
)
from repro.trace import CpuUsagePreciseTable


def table_from_intervals(intervals, start=0, stop=100):
    """Build a CPU table where each (cpu, s, e) is one app interval."""
    rows = [("app.exe", 8, 8000 + i, f"t{i}", cpu, s, s, e)
            for i, (cpu, s, e) in enumerate(intervals)]
    return CpuUsagePreciseTable(rows, start, stop)


class TestIntervals:
    def test_profile_of_empty_set_is_all_idle(self):
        assert fused_sweep([], 0, 100).profile == {0: 100}

    def test_profile_partitions_window(self):
        profile = fused_sweep([(10, 40), (30, 60)], 0, 100).profile
        assert sum(profile.values()) == 100
        assert profile[2] == 10  # overlap 30..40
        assert profile[1] == 40  # 10..30 and 40..60
        assert profile[0] == 50

    def test_profile_clips_to_window(self):
        profile = fused_sweep([(-50, 20)], 0, 100).profile
        assert profile[1] == 20

    def test_identical_intervals_stack(self):
        profile = fused_sweep([(0, 10)] * 3, 0, 10).profile
        assert profile[3] == 10

    def test_union_length(self):
        assert fused_sweep([(0, 10), (5, 20), (30, 40)],
                           0, 100).union_length == 30

    def test_max_concurrency(self):
        intervals = [(0, 10), (2, 8), (4, 6), (50, 60)]
        assert fused_sweep(intervals, 0, 100).max_concurrency == 3

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            fused_sweep([], 10, 0).profile


class TestEquationOne:
    def test_single_thread_always_running(self):
        # c = [0, 1.0] -> TLP 1.0
        assert tlp_from_fractions([0.0, 1.0]) == pytest.approx(1.0)

    def test_idle_time_is_factored_out(self):
        # Half idle, half 1 thread: TLP is still 1.0 by Eq. 1.
        assert tlp_from_fractions([0.5, 0.5]) == pytest.approx(1.0)

    def test_paper_equation_worked_example(self):
        # c0=0.2, c1=0.4, c2=0.4 -> (0.4*1 + 0.4*2) / 0.8 = 1.5
        assert tlp_from_fractions([0.2, 0.4, 0.4]) == pytest.approx(1.5)

    def test_fully_parallel(self):
        fractions = [0.0] + [0.0] * 11 + [1.0]
        assert tlp_from_fractions(fractions) == pytest.approx(12.0)

    def test_fully_idle_returns_zero(self):
        assert tlp_from_fractions([1.0, 0.0]) == 0.0

    def test_empty_fraction_list(self):
        assert tlp_from_fractions([]) == 0.0

    def test_unnormalized_fractions_are_normalized(self):
        assert tlp_from_fractions([20, 40, 40]) == pytest.approx(1.5)


class TestMeasureTlp:
    def test_one_thread_half_time(self):
        table = table_from_intervals([(0, 0, 50)])
        result = measure_tlp(table, n_logical=4)
        assert result.tlp == pytest.approx(1.0)
        assert result.idle_fraction == pytest.approx(0.5)
        assert result.max_instantaneous == 1

    def test_two_threads_overlapping(self):
        table = table_from_intervals([(0, 0, 100), (1, 0, 100)])
        result = measure_tlp(table, n_logical=4)
        assert result.tlp == pytest.approx(2.0)
        assert result.fractions[2] == pytest.approx(1.0)

    def test_mixed_serial_and_parallel(self):
        # 2 CPUs busy 0..50, 1 CPU busy 50..100: TLP = (.5*2 + .5*1)/1 = 1.5
        table = table_from_intervals([(0, 0, 50), (1, 0, 50), (0, 50, 100)])
        result = measure_tlp(table, n_logical=4)
        assert result.tlp == pytest.approx(1.5)

    def test_process_filtering(self):
        rows = [
            ("app.exe", 8, 8000, "t", 0, 0, 0, 100),
            ("other.exe", 9, 9000, "t", 1, 0, 0, 100),
        ]
        table = CpuUsagePreciseTable(rows, 0, 100)
        app_only = measure_tlp(table, 4, processes={"app.exe"})
        both = measure_tlp(table, 4)
        assert app_only.tlp == pytest.approx(1.0)
        assert both.tlp == pytest.approx(2.0)

    def test_window_restriction(self):
        table = table_from_intervals([(0, 0, 50)], stop=100)
        early = measure_tlp(table, 4, window=(0, 50))
        late = measure_tlp(table, 4, window=(50, 100))
        assert early.tlp == pytest.approx(1.0)
        assert early.idle_fraction == pytest.approx(0.0)
        assert late.tlp == 0.0

    def test_fraction_levels_cover_full_range(self):
        table = table_from_intervals([(0, 0, 100)])
        result = measure_tlp(table, n_logical=12)
        assert len(result.fractions) == 13
        assert sum(result.fractions) == pytest.approx(1.0)

    def test_n_logical_validation(self):
        table = table_from_intervals([(0, 0, 100)])
        with pytest.raises(ValueError):
            measure_tlp(table, 0)

    def test_empty_window_rejected(self):
        table = table_from_intervals([(0, 0, 100)])
        with pytest.raises(ValueError):
            measure_tlp(table, 4, window=(50, 50))

    def test_tlp_never_exceeds_logical_cpus(self):
        intervals = [(cpu, 0, 100) for cpu in range(12)]
        result = measure_tlp(table_from_intervals(intervals), n_logical=12)
        assert result.tlp == pytest.approx(12.0)
        assert result.max_instantaneous == 12
