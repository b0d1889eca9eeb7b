"""Measurement metrics: TLP (Eq. 1), GPU utilization, time series."""

from repro.metrics.gpu import (
    GpuUtilResult,
    cross_validate,
    gpu_result_from_totals,
    measure_gpu_utilization,
)
from repro.metrics.intervals import (
    FusedSweep,
    clip,
    fused_sweep,
    interval_events,
)
from repro.metrics.kernels import (
    build_event_arrays,
    fused_sweep_arrays,
    occupancy_sweep,
)
from repro.metrics.online import FrameStats, OnlineMetricsEngine, OnlineSweep
from repro.metrics.responsiveness import (
    ResponseLatency,
    pair_marks,
    percentile,
    response_summary,
    tail_latency,
)
from repro.metrics.stats import Summary, mean, relative_difference_pct, summarize
from repro.metrics.timeseries import (
    TimeSeries,
    frame_rate_series,
    instantaneous_tlp,
)
from repro.metrics.tlp import (
    TlpResult,
    measure_tlp,
    tlp_from_fractions,
    tlp_result_from_profile,
)

__all__ = [
    "FrameStats",
    "FusedSweep",
    "GpuUtilResult",
    "build_event_arrays",
    "fused_sweep_arrays",
    "occupancy_sweep",
    "OnlineMetricsEngine",
    "OnlineSweep",
    "ResponseLatency",
    "Summary",
    "TimeSeries",
    "TlpResult",
    "clip",
    "cross_validate",
    "frame_rate_series",
    "fused_sweep",
    "gpu_result_from_totals",
    "interval_events",
    "instantaneous_tlp",
    "mean",
    "pair_marks",
    "percentile",
    "measure_gpu_utilization",
    "measure_tlp",
    "relative_difference_pct",
    "response_summary",
    "summarize",
    "tail_latency",
    "tlp_from_fractions",
    "tlp_result_from_profile",
]
