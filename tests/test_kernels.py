"""Property tests: batched sweep kernels == scalar kernels, exactly.

Both platform paths of :mod:`repro.metrics.kernels` — numpy when it
imports, pure Python otherwise — must be bit-identical to the scalar
tuple-list sweep of :mod:`repro.metrics.intervals` on *every* input,
including the adversarial edges the vectorized math could plausibly
get wrong: zero-length windows, duplicate timestamps (many intervals
sharing endpoints), single-event traces, intervals entirely outside
the window, and start/stop ties where the ``-1`` must sort first.
Hypothesis drives randomized interval sets through each path (the
pure-Python one by hiding numpy from the module) and asserts exact
equality of profile, union length, peak and the GPU busy integral.
"""

from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.metrics.kernels as kernels
from repro.metrics import fused_sweep, interval_events
from repro.metrics.kernels import (
    build_event_arrays,
    fused_sweep_arrays,
    occupancy_sweep,
)

WINDOW = (1_000, 21_000)

# Small coordinate space on purpose: collisions (shared endpoints,
# duplicate intervals, stop == next start) should be common, not rare.
intervals_strategy = st.lists(
    st.tuples(st.integers(-2_000, 23_000), st.integers(0, 9))
    .map(lambda p: (p[0] * 1_000, (p[0] + p[1]) * 1_000)),
    max_size=40,
)


def scalar_reference(intervals, window_start, window_stop):
    """(FusedSweep, busy_sum) via the scalar paths — the ground truth."""
    sweep = fused_sweep(intervals, window_start, window_stop)
    busy = sum(min(e, window_stop) - max(s, window_start)
               for s, e in intervals
               if min(e, window_stop) > max(s, window_start))
    return sweep, busy


def to_columns(intervals):
    starts = array("q", (s for s, _ in intervals))
    stops = array("q", (e for _, e in intervals))
    return starts, stops


#: numpy (when installed) and the pure-Python fallback.
BACKENDS = (("numpy", kernels._np), ("python", None)) \
    if kernels.numpy_available() else (("python", None),)


@contextmanager
def backend(np_module):
    """Run the kernels with ``_np`` patched to ``np_module``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_np", np_module)
        yield


def each_backend():
    """``(name, context)`` per platform path, for use inside
    hypothesis tests (which cannot take function-scoped fixtures)."""
    return [(name, backend(np_module)) for name, np_module in BACKENDS]


class TestVectorEqualsScalar:
    @given(intervals_strategy)
    def test_sweep_matches_scalar(self, intervals):
        expected, expected_busy = scalar_reference(intervals, *WINDOW)
        for name, context in each_backend():
            with context:
                times, deltas = build_event_arrays(*to_columns(intervals))
                actual, busy = occupancy_sweep(times, deltas, *WINDOW)
            assert actual.profile == expected.profile, name
            assert actual.union_length == expected.union_length, name
            assert actual.max_concurrency == expected.max_concurrency, name
            assert busy == expected_busy, name

    @given(intervals_strategy)
    def test_event_arrays_match_interval_events(self, intervals):
        """Same edges, same order — including the -1-before-+1 ties."""
        for name, context in each_backend():
            with context:
                times, deltas = build_event_arrays(*to_columns(intervals))
            assert list(zip(times, deltas)) == \
                interval_events(intervals), name

    @given(intervals_strategy)
    def test_wrappers_match_scalar(self, intervals):
        expected, _ = scalar_reference(intervals, *WINDOW)
        for name, context in each_backend():
            with context:
                times, deltas = build_event_arrays(*to_columns(intervals))
                sweep = fused_sweep_arrays(times, deltas, *WINDOW)
            assert sweep == expected, name

    @given(intervals_strategy, st.integers(0, 25_000_000))
    def test_zero_length_window(self, intervals, at):
        """A zero-measure window: empty profile, no peak, no busy."""
        for name, context in each_backend():
            with context:
                times, deltas = build_event_arrays(*to_columns(intervals))
                sweep, busy = occupancy_sweep(times, deltas, at, at)
            assert (sweep.profile, sweep.union_length,
                    sweep.max_concurrency, busy) == ({0: 0}, 0, 0, 0), name

    def test_single_event_trace(self):
        for interval in ((5_000, 5_001), (0, 50_000), (WINDOW[0], WINDOW[0]),
                         (21_000, 30_000), (-10, 0)):
            expected, expected_busy = scalar_reference([interval], *WINDOW)
            for name, context in each_backend():
                with context:
                    times, deltas = build_event_arrays(
                        *to_columns([interval]))
                    actual, busy = occupancy_sweep(times, deltas, *WINDOW)
                assert actual.profile == expected.profile, (name, interval)
                assert busy == expected_busy, (name, interval)

    @given(st.integers(0, 22), st.integers(1, 64))
    def test_duplicate_timestamps_stack(self, start_k, copies):
        """``copies`` identical intervals: peak == copies inside window."""
        interval = (start_k * 1_000, start_k * 1_000 + 1_000)
        intervals = [interval] * copies
        expected, expected_busy = scalar_reference(intervals, *WINDOW)
        for name, context in each_backend():
            with context:
                times, deltas = build_event_arrays(*to_columns(intervals))
                actual, busy = occupancy_sweep(times, deltas, *WINDOW)
            assert actual.profile == expected.profile, name
            assert actual.max_concurrency == expected.max_concurrency, name
            assert busy == expected_busy, name

    def test_inverted_window_raises(self):
        for _name, context in each_backend():
            with context:
                times, deltas = build_event_arrays(array("q"), array("q"))
                with pytest.raises(ValueError):
                    occupancy_sweep(times, deltas, 10, 5)

    @given(intervals_strategy)
    @settings(max_examples=25)
    def test_mask_selects_subset(self, intervals):
        starts, stops = to_columns(intervals)
        mask = [i % 2 for i in range(len(intervals))]
        kept = [iv for iv, keep in zip(intervals, mask) if keep]
        for name, context in each_backend():
            with context:
                times, deltas = build_event_arrays(starts, stops, mask=mask)
            assert list(zip(times, deltas)) == interval_events(kept), name
