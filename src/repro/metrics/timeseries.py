"""Windowed time series: instantaneous TLP and frame rate.

These back the paper's time-resolved plots — Figs. 5-7 (instantaneous
TLP over time for HandBrake / Photoshop / Project CARS 2) and Fig. 13
(instantaneous frame rate per VR headset).
"""

from dataclasses import dataclass

from repro.metrics.tlp import measure_tlp
from repro.sim import SECOND


@dataclass
class TimeSeries:
    """Evenly-spaced samples starting at ``start_us``."""

    start_us: int
    step_us: int
    values: list

    def __len__(self):
        return len(self.values)

    def maximum(self):
        return max(self.values) if self.values else 0.0

    def mean(self):
        return sum(self.values) / len(self.values) if self.values else 0.0


def _windows(start, stop, step):
    if step <= 0:
        raise ValueError("step must be positive")
    lo = start
    while lo < stop:
        yield lo, min(lo + step, stop)
        lo += step


def instantaneous_tlp(cpu_table, n_logical, processes=None,
                      step_us=100_000):
    """Per-window TLP (Eq. 1 applied inside each window)."""
    values = [
        measure_tlp(cpu_table, n_logical, processes=processes,
                    window=(lo, hi)).tlp
        for lo, hi in _windows(cpu_table.trace_start, cpu_table.trace_stop,
                               step_us)
    ]
    return TimeSeries(cpu_table.trace_start, step_us, values)


def frame_rate_series(frames, trace_start, trace_stop, processes=None,
                      step_us=SECOND):
    """Frames presented per second, windowed.

    ``frames`` is an iterable of
    :class:`~repro.trace.records.FramePresentRecord`.
    """
    presents = sorted(
        f.present_time for f in frames
        if processes is None or f.process in processes)
    values = []
    index = 0
    for lo, hi in _windows(trace_start, trace_stop, step_us):
        count = 0
        while index < len(presents) and presents[index] < hi:
            if presents[index] >= lo:
                count += 1
            index += 1
        values.append(count * SECOND / (hi - lo))
    return TimeSeries(trace_start, step_us, values)
