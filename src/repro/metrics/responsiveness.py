"""Interactive response latency from trace marks.

The paper's predecessor (Flautner et al. 2000) framed multiprocessing
largely in terms of *responsiveness*: even when average TLP stayed
below 2, "a second processor improved the responsiveness of
interactive applications".  Application models emit ``input:<label>``
and ``response:<label>`` marks around every handled user input; this
module pairs them into latencies so that claim can be tested on the
simulated 2018 machine too.
"""

import math
from dataclasses import dataclass

from repro.metrics.stats import summarize


@dataclass(frozen=True)
class ResponseLatency:
    """One completed interaction."""

    label: str
    input_time: int
    response_time: int

    @property
    def latency_us(self):
        return self.response_time - self.input_time


def pair_marks(marks, processes=None):
    """Pair input/response marks into :class:`ResponseLatency` records.

    Marks are matched per process in FIFO order per label prefix; an
    unmatched trailing input (cut off by the end of the trace) is
    dropped.
    """
    pending = {}
    latencies = []
    for mark in sorted(marks, key=lambda m: m.time):
        if processes is not None and mark.process not in processes:
            continue
        kind, _, label = mark.label.partition(":")
        key = (mark.process, label)
        if kind == "input":
            pending.setdefault(key, []).append(mark.time)
        elif kind == "response" and pending.get(key):
            start = pending[key].pop(0)
            latencies.append(ResponseLatency(label, start, mark.time))
    return latencies


def response_summary(marks, processes=None):
    """Mean/σ of interactive response latency (µs) over a trace."""
    latencies = [r.latency_us for r in pair_marks(marks, processes)]
    if not latencies:
        raise ValueError("no completed interactions in trace")
    return summarize(latencies)


def percentile(values, fraction):
    """Nearest-rank percentile of a sequence (``fraction`` in (0, 1])."""
    if not values:
        raise ValueError("no values")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail_latency(marks, fraction=0.95, processes=None):
    """Tail (e.g. p95) response latency in µs."""
    latencies = [r.latency_us for r in pair_marks(marks, processes)]
    return percentile(latencies, fraction)
