"""Property tests: the fused single-pass sweep matches the reference.

``fused_sweep`` replaces the old build-events-clip-and-sort-per-query
implementation.  The reference below *is* that old implementation;
the properties assert exact equality on randomized interval sets,
including intervals partially or entirely outside the measurement
window.
"""

from hypothesis import given, strategies as st

from repro.metrics import (
    fused_sweep,
    interval_events,
)
from repro.metrics.intervals import clip

WINDOW = (1_000, 21_000)


def reference_profile(intervals, window_start, window_stop):
    """The seed implementation: clip, build events, sort, sweep."""
    total = window_stop - window_start
    profile = {0: total}
    events = []
    for start, stop in clip(intervals, window_start, window_stop):
        events.append((start, 1))
        events.append((stop, -1))
    if not events:
        return profile
    events.sort()
    level = 0
    covered = 0
    prev_time = events[0][0]
    for time, delta in events:
        if time > prev_time:
            span = time - prev_time
            profile[level] = profile.get(level, 0) + span
            if level > 0:
                covered += span
            prev_time = time
        level += delta
    profile[0] = total - covered
    return profile


intervals_strategy = st.lists(
    st.tuples(st.integers(-5_000, 30_000), st.integers(1, 12_000)).map(
        lambda p: (p[0], p[0] + p[1])),
    max_size=40,
)


@given(intervals_strategy)
def test_fused_profile_matches_reference(intervals):
    expected = reference_profile(intervals, *WINDOW)
    sweep = fused_sweep(intervals, *WINDOW)
    assert sweep.profile == expected


@given(intervals_strategy)
def test_fused_union_and_max_match_reference(intervals):
    expected = reference_profile(intervals, *WINDOW)
    sweep = fused_sweep(intervals, *WINDOW)
    assert sweep.union_length == sum(
        length for level, length in expected.items() if level > 0)
    assert sweep.max_concurrency == max(
        (level for level, length in expected.items()
         if level > 0 and length > 0), default=0)


@given(intervals_strategy)
def test_presorted_events_path_is_equivalent(intervals):
    events = interval_events(intervals)
    assert fused_sweep(intervals, *WINDOW) == \
        fused_sweep((), *WINDOW, events=events)


@given(intervals_strategy, st.integers(0, 20))
def test_windowed_queries_share_one_event_array(intervals, offset):
    """Sub-window queries over one cached event array equal clip-first."""
    events = interval_events(intervals)
    lo = WINDOW[0] + offset * 500
    hi = min(lo + 4_000, WINDOW[1])
    assert fused_sweep((), lo, hi, events=events).profile == \
        reference_profile(intervals, lo, hi)


def test_degenerate_window():
    assert fused_sweep([(0, 10)], 5, 5) == ({0: 0}, 0, 0)
