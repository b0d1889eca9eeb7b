"""Sweep-line helpers over time intervals.

Everything in the metrics layer reduces to questions about sets of
``(start, stop)`` busy intervals: how long were exactly *k* of them
active (concurrency profile), how long was at least one active (union
length), and how many were ever active at once (max concurrency).

All of them are answered by one fused sweep over the sorted
``(time, +1/-1)`` event stream.  Instead of clipping intervals to the
measurement window up front, the sweep clamps each event time into
the window as it goes: an interval entirely outside the window
degenerates to a ``+1``/``-1`` pair at the same boundary instant,
which contributes zero measure and is ignored by the
positive-span-only peak tracking — exactly the clip-first semantics,
without rebuilding and re-sorting the event list per query.  That
clamping is what lets callers (``measure_tlp`` over hundreds of
time-series windows) reuse one cached, pre-sorted event array for
every window.
"""

from collections import namedtuple

#: Result of :func:`fused_sweep`: the ``{level: microseconds}``
#: concurrency profile, the union length, and the peak concurrency —
#: all from a single traversal.
FusedSweep = namedtuple("FusedSweep",
                        ("profile", "union_length", "max_concurrency"))


def clip(intervals, window_start, window_stop):
    """Clip intervals to a window, dropping empty results."""
    clipped = []
    for start, stop in intervals:
        lo = max(start, window_start)
        hi = min(stop, window_stop)
        if hi > lo:
            clipped.append((lo, hi))
    return clipped


def interval_events(intervals):
    """Sorted ``(time, +1/-1)`` edge events of ``intervals``.

    Ties sort ``-1`` before ``+1`` so touching intervals never count
    as concurrent.  Build once, reuse across windows via the
    ``events=`` parameter of the sweep functions.
    """
    events = []
    for start, stop in intervals:
        events.append((start, 1))
        events.append((stop, -1))
    events.sort()
    return events


def fused_sweep(intervals, window_start, window_stop, *, events=None):
    """Concurrency profile, union length and peak in one traversal.

    Pass pre-sorted ``events`` (from :func:`interval_events`) to skip
    the per-call extract-and-sort; ``intervals`` is ignored then.

    Edge cases are well-defined rather than accidental: a zero-width
    window yields ``FusedSweep({0: 0}, 0, 0)`` (no measure, no peak),
    zero-width intervals contribute nothing, and an inverted window
    raises ``ValueError``.  Callers that need a *non-empty* window
    (Eq.-1 TLP divides by it) raise the documented ``ValueError:
    empty measurement window`` themselves — see
    :func:`repro.metrics.tlp.measure_tlp`.
    """
    if window_stop < window_start:
        raise ValueError("window_stop before window_start")
    if window_stop == window_start:
        return FusedSweep({0: 0}, 0, 0)
    if events is None:
        events = interval_events(intervals)
    total = window_stop - window_start
    profile = {0: total}
    level = 0
    covered = 0
    peak = 0
    prev = window_start
    for time, delta in events:
        if time < window_start:
            time = window_start
        elif time > window_stop:
            time = window_stop
        if time > prev:
            span = time - prev
            profile[level] = profile.get(level, 0) + span
            if level > 0:
                covered += span
                if level > peak:
                    peak = level
            prev = time
        level += delta
    profile[0] = total - covered
    return FusedSweep(profile, covered, peak)


def first_time_above(events, bound):
    """Earliest instant at which more than ``bound`` intervals overlap
    for a positive span, or ``None`` if the level never exceeds it.

    Zero-width excursions above the bound (a ``+1``/``-1`` pair at the
    same instant) are ignored, matching the positive-span-only peak
    tracking of :func:`fused_sweep`.  The trace validator prints it in
    its CPU-oversubscription message ("first oversubscribed at t=…").
    """
    level = 0
    above_since = None
    for time, delta in events:
        if above_since is not None and time > above_since:
            return above_since
        level += delta
        if level > bound:
            if above_since is None:
                above_since = time
        else:
            above_since = None
    return None

