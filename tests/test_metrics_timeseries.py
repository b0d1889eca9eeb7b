"""Unit tests for windowed time series (instantaneous TLP and FPS)."""

import pytest

from repro.metrics import (
    frame_rate_series,
    instantaneous_tlp,
)
from repro.sim import SECOND
from repro.trace import CpuUsagePreciseTable, FramePresentRecord


class TestInstantaneousTlp:
    def test_windows_capture_phases(self):
        # Two CPUs busy in the first second, one in the second second.
        rows = [
            ("app.exe", 8, 1, "a", 0, 0, 0, SECOND),
            ("app.exe", 8, 2, "b", 1, 0, 0, SECOND),
            ("app.exe", 8, 1, "a", 0, SECOND, SECOND, 2 * SECOND),
        ]
        table = CpuUsagePreciseTable(rows, 0, 2 * SECOND)
        series = instantaneous_tlp(table, n_logical=4, step_us=SECOND)
        assert len(series) == 2
        assert series.values[0] == pytest.approx(2.0)
        assert series.values[1] == pytest.approx(1.0)

    def test_idle_window_is_zero(self):
        rows = [("app.exe", 8, 1, "a", 0, 0, 0, SECOND)]
        table = CpuUsagePreciseTable(rows, 0, 3 * SECOND)
        series = instantaneous_tlp(table, n_logical=4, step_us=SECOND)
        assert series.values[1] == 0.0
        assert series.values[2] == 0.0

    def test_times_and_helpers(self):
        rows = [("app.exe", 8, 1, "a", 0, 0, 0, SECOND)]
        table = CpuUsagePreciseTable(rows, 0, 2 * SECOND)
        series = instantaneous_tlp(table, 4, step_us=SECOND)
        assert (series.start_us, series.step_us) == (0, SECOND)
        assert series.maximum() == pytest.approx(1.0)
        assert series.mean() == pytest.approx(0.5)

    def test_invalid_step_rejected(self):
        table = CpuUsagePreciseTable([], 0, SECOND)
        with pytest.raises(ValueError):
            instantaneous_tlp(table, 4, step_us=0)


class TestFrameRate:
    def test_counts_frames_per_second(self):
        frames = [FramePresentRecord("game.exe", 8, t, 90)
                  for t in range(0, 2 * SECOND, SECOND // 90)]
        series = frame_rate_series(frames, 0, 2 * SECOND)
        assert len(series) == 2
        assert series.values[0] == pytest.approx(90, abs=1)

    def test_process_filtering(self):
        frames = [
            FramePresentRecord("game.exe", 8, 0, 90),
            FramePresentRecord("other.exe", 9, 1, 90),
        ]
        series = frame_rate_series(frames, 0, SECOND,
                                   processes={"game.exe"})
        assert series.values[0] == pytest.approx(1.0)

    def test_partial_final_window_scales(self):
        frames = [FramePresentRecord("g", 1, t, 90)
                  for t in range(0, SECOND // 2, SECOND // 90)]
        series = frame_rate_series(frames, 0, SECOND // 2)
        # 45 frames in half a second -> 90 FPS.
        assert series.values[0] == pytest.approx(90, abs=2)

    def test_empty_series(self):
        series = frame_rate_series([], 0, SECOND)
        assert series.values == [0.0]
        assert series.maximum() == 0.0
