"""GPU utilization — the paper's §III-B definition.

"For GPU utilization, we consider the amount of time spent by work
packets actually running over a period of time ... measured by
aggregating for all packets the ratio of packet running time to total
time."

The aggregate-of-ratios (``sum`` method) can nominally exceed 100%
when engines overlap — the paper flags PhoenixMiner, where two packets
executed simultaneously throughout, as "*100.0".  We reproduce that:
the value is capped at 100 and ``capped`` is set.  A ``union`` method
(fraction of time at least one packet is running) is also provided for
cross-validation.
"""

from dataclasses import dataclass

from repro.metrics.kernels import occupancy_sweep


@dataclass
class GpuUtilResult:
    """A GPU utilization measurement."""

    utilization_pct: float
    method: str
    #: Peak number of simultaneously executing packets.
    max_concurrent_packets: int
    #: True when the sum-of-ratios exceeded 100% and was capped
    #: (the paper's PhoenixMiner asterisk).
    capped: bool
    window_us: int


def gpu_result_from_totals(busy_sum, union_length, peak, total, method):
    """Build a :class:`GpuUtilResult` from integer totals.

    Shared by :func:`measure_gpu_utilization` and the streaming
    :class:`~repro.metrics.online.OnlineMetricsEngine`, so both paths
    compute the percentage (and the PhoenixMiner cap) identically.
    """
    if method not in ("sum", "union"):
        raise ValueError(f"unknown method {method!r}")
    if total <= 0:
        raise ValueError("empty measurement window")
    if method == "union":
        value, capped = 100.0 * union_length / total, False
    else:
        value = 100.0 * busy_sum / total
        capped = value > 100.0
        if capped:
            value = 100.0
    return GpuUtilResult(
        utilization_pct=value,
        method=method,
        max_concurrent_packets=peak,
        capped=capped,
        window_us=total,
    )


def measure_gpu_utilization(gpu_table, processes=None, window=None,
                            method="sum"):
    """Compute utilization from a GPU Utilization (FM) table."""
    if method not in ("sum", "union"):
        raise ValueError(f"unknown method {method!r}")
    start, stop = window or (gpu_table.trace_start, gpu_table.trace_stop)
    if stop <= start:
        raise ValueError("empty measurement window")
    total = stop - start
    # One occupancy sweep over the table's memoized event buffers
    # yields union length and peak concurrency and integrates the
    # concurrency level, which equals the clipped busy sum of the
    # sum-of-ratios definition.
    times, deltas = gpu_table.packet_event_arrays(processes)
    sweep, busy = occupancy_sweep(times, deltas, start, stop)
    return gpu_result_from_totals(busy, sweep.union_length,
                                  sweep.max_concurrency, total, method)


def cross_validate(gpu_table, device, processes=None, tolerance_pct=1.0):
    """Check the trace-derived busy time against device-side counters.

    Mirrors the paper's "we cross-validate the GPU data with those
    reported by WPA".  Returns the absolute difference in utilization
    percentage points; raises ``ValueError`` beyond ``tolerance_pct``.

    Only meaningful without process filtering (device counters are
    global); pass ``processes=None`` for a strict check.
    """
    window = (gpu_table.trace_start, gpu_table.trace_stop)
    total = window[1] - window[0]
    if total <= 0:
        raise ValueError("empty trace window")
    trace_busy = sum(e - s for _eng, s, e
                     in gpu_table.packet_intervals(processes=processes))
    trace_pct = 100.0 * trace_busy / total
    device_pct = device.utilization_pct(total)
    delta = abs(trace_pct - device_pct)
    if processes is None and delta > tolerance_pct:
        raise ValueError(
            f"GPU cross-validation failed: trace={trace_pct:.2f}% "
            f"device={device_pct:.2f}% (tolerance {tolerance_pct}%)")
    return delta
