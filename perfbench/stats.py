"""The benchmark's own arithmetic: percentiles, self time, failures.

Kept free of any ``repro`` import so the self-tests in
``perfbench/tests`` exercise it without the simulator.
"""

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the tail is a handful of points, not a measure.
MIN_BEYOND = 10


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank ``p``-th percentile of ``n``."""
    rank = max(1, math.ceil(p / 100.0 * n))
    return n - rank


def percentile(samples, p):
    """Nearest-rank ``p``-th percentile; ``ValueError`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, p) < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has fewer than {MIN_BEYOND} beyond it")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100.0 * n)) - 1]


def highest_percentile(samples, candidates=(50, 90, 99, 99.9)):
    """``(p, value)`` for the highest reportable candidate percentile,
    or ``None`` when not even the lowest has enough samples beyond it."""
    best = None
    for p in sorted(candidates):
        if samples_beyond(len(samples), p) >= MIN_BEYOND:
            best = (p, percentile(samples, p))
    return best


def median(values):
    return statistics.median(values)


def union_length(intervals):
    """Total length covered by ``[(start, end), ...]``, overlaps once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clip(intervals, start, end):
    """``intervals`` cut to ``[start, end]``; empty pieces dropped."""
    return [(max(s, start), min(e, end)) for s, e in intervals
            if min(e, end) > max(s, start)]


def self_time(start, end, children):
    """A span's duration minus the union of its children inside it.

    Children may come from several threads and overlap one another;
    the overlap counts once, so self time never goes negative.
    """
    return (end - start) - union_length(clip(children, start, end))


def subtract(start, end, children):
    """The parts of ``[start, end]`` not covered by any child."""
    pieces = []
    cursor = start
    for s, e in sorted(clip(children, start, end)):
        if s > cursor:
            pieces.append((cursor, s))
        cursor = max(cursor, e)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


class FailureTally:
    """``failed_pct``: failed or refused operations over attempted ones.

    An HTTP reply counts as failed unless its status is the one the
    client expected (a 429 is a refusal, so a failure); a simulated run
    counts as failed when it was quarantined; an equivalence sample
    counts as failed when the campaign's check did not pass.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def reply(self, status, expected):
        self.attempted += 1
        if status != expected:
            self.failed += 1

    def runs(self, attempted, quarantined):
        self.attempted += attempted
        self.failed += quarantined

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def pct(self):
        return 100.0 * self.failed / self.attempted if self.attempted else 0.0
