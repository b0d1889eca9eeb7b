"""Zero-width and empty-window edge cases of the sweep helpers.

The validation layer leans on these invariant properties, so the edge
behaviour is pinned explicitly: zero-width windows and intervals are
well-defined no-ops, and empty measurement windows raise the
documented ``ValueError`` (never ``ZeroDivisionError``).
"""

import pytest

from repro.metrics import (
    clip,
    fused_sweep,
    interval_events,
    measure_gpu_utilization,
    measure_tlp,
    tlp_result_from_profile,
)
from repro.metrics.gpu import gpu_result_from_totals
from repro.metrics.intervals import first_time_above
from repro.trace import CpuUsagePreciseTable, GpuUtilizationTable


INTERVALS = [(0, 10), (5, 15), (20, 30)]


class TestZeroWidthWindow:
    def test_fused_sweep(self):
        sweep = fused_sweep(INTERVALS, 7, 7)
        assert sweep.profile == {0: 0}
        assert sweep.union_length == 0
        assert sweep.max_concurrency == 0

    def test_fused_sweep_prebuilt_events(self):
        events = interval_events(INTERVALS)
        assert fused_sweep((), 7, 7, events=events).union_length == 0

    def test_union_length(self):
        assert fused_sweep(INTERVALS, 7, 7).union_length == 0

    def test_max_concurrency(self):
        events = interval_events(INTERVALS)
        assert fused_sweep((), 7, 7, events=events).max_concurrency == 0

    def test_concurrency_profile(self):
        assert fused_sweep(INTERVALS, 7, 7).profile == {0: 0}


class TestZeroWidthIntervals:
    """A zero-width interval has no measure anywhere in the pipeline."""

    def test_clip_drops_empty_results(self):
        assert clip([(5, 5), (3, 9)], 0, 10) == [(3, 9)]

    def test_interval_events_pairs_cancel(self):
        events = interval_events([(5, 5)])
        # -1 sorts before +1 at the same instant, so the pair cancels
        # without ever producing a positive level.
        assert events == [(5, -1), (5, 1)]

    def test_fused_sweep_ignores_them(self):
        sweep = fused_sweep([(5, 5)], 0, 10)
        assert sweep.profile == {0: 10}
        assert sweep.union_length == 0
        assert sweep.max_concurrency == 0

    def test_mixed_with_real_intervals(self):
        sweep = fused_sweep([(2, 8), (5, 5)], 0, 10)
        assert sweep.union_length == 6
        assert sweep.max_concurrency == 1


class TestInvertedWindow:
    def test_fused_sweep_raises(self):
        with pytest.raises(ValueError):
            fused_sweep(INTERVALS, 10, 5)

    def test_union_length_raises(self):
        with pytest.raises(ValueError):
            fused_sweep((), 10, 5, events=interval_events(INTERVALS))

    def test_max_concurrency_raises(self):
        # A window inverted by one microsecond, over no intervals.
        with pytest.raises(ValueError):
            fused_sweep((), 6, 5)


class TestEmptyMeasurementWindow:
    """TLP / GPU utilization of an empty window: documented ValueError."""

    def test_tlp_result_from_profile(self):
        with pytest.raises(ValueError, match="empty measurement window"):
            tlp_result_from_profile({0: 0}, 0, 4, 0)

    def test_gpu_result_from_totals(self):
        with pytest.raises(ValueError, match="empty measurement window"):
            gpu_result_from_totals(0, 0, 0, 0, "sum")

    def test_measure_tlp_zero_width_explicit_window(self):
        table = CpuUsagePreciseTable([], 0, 100)
        with pytest.raises(ValueError, match="empty measurement window"):
            measure_tlp(table, 4, window=(50, 50))

    def test_measure_tlp_empty_trace(self):
        # A session stopped the instant it started: zero-length trace.
        table = CpuUsagePreciseTable([], 42, 42)
        with pytest.raises(ValueError, match="empty measurement window"):
            measure_tlp(table, 4)

    def test_measure_gpu_empty_trace(self):
        table = GpuUtilizationTable([], 42, 42)
        with pytest.raises(ValueError, match="empty measurement window"):
            measure_gpu_utilization(table)

    def test_empty_table_nonzero_window_is_fine(self):
        result = measure_tlp(CpuUsagePreciseTable([], 0, 100), 4)
        assert result.tlp == 0.0
        assert result.fractions[0] == 1.0
        assert result.max_instantaneous == 0


class TestFirstTimeAbove:
    def test_reports_earliest_positive_excursion(self):
        events = [(0, 1), (5, 1), (5, 1), (9, -1), (9, -1), (12, -1)]
        assert first_time_above(events, 2) == 5

    def test_zero_width_excursions_ignored(self):
        # +2 at t=7 immediately cancelled at t=7: no positive span.
        events = [(0, 1), (7, 1), (7, 1), (7, -1), (7, -1), (10, -1)]
        assert first_time_above(events, 2) is None

    def test_never_above(self):
        events = [(0, 1), (4, -1), (4, 1), (8, -1)]
        assert first_time_above(events, 1) is None
