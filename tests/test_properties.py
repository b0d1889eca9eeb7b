"""Property-based tests (hypothesis) on kernel and metric invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    fused_sweep,
    measure_gpu_utilization,
    tlp_from_fractions,
)
from repro.sim import Environment, Store
from repro.trace import GpuUtilizationTable

intervals_strategy = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(1, 5_000)).map(
        lambda pair: (pair[0], pair[0] + pair[1])),
    max_size=30)


class TestIntervalProperties:
    @given(intervals_strategy)
    def test_profile_partitions_window(self, intervals):
        window = (0, 20_000)
        profile = fused_sweep(intervals, *window).profile
        assert sum(profile.values()) == window[1] - window[0]
        assert all(duration >= 0 for duration in profile.values())

    @given(intervals_strategy)
    def test_union_bounded_by_window_and_sum(self, intervals):
        union = fused_sweep(intervals, 0, 20_000).union_length
        total = sum(min(e, 20_000) - max(s, 0)
                    for s, e in intervals if e > 0 and s < 20_000)
        assert 0 <= union <= 20_000
        assert union <= total

    @given(intervals_strategy)
    def test_max_concurrency_bounds(self, intervals):
        peak = fused_sweep(intervals, 0, 20_000).max_concurrency
        live = [i for i in intervals if i[1] > 0 and i[0] < 20_000]
        assert 0 <= peak <= len(live)

    @given(intervals_strategy, st.integers(1, 4))
    def test_duplicating_intervals_scales_concurrency(self, intervals, k):
        base = fused_sweep(intervals, 0, 20_000).max_concurrency
        stacked = fused_sweep(intervals * k, 0, 20_000).max_concurrency
        assert stacked == base * k


class TestTlpProperties:
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=13))
    def test_tlp_bounded_by_levels(self, fractions):
        tlp = tlp_from_fractions(fractions)
        assert 0.0 <= tlp <= len(fractions) - 1

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=13))
    def test_tlp_at_least_one_when_any_level_active(self, fractions):
        # With non-zero mass at every level >= 1, TLP >= 1
        # (up to float round-off).
        tlp = tlp_from_fractions(fractions)
        assert tlp >= 1.0 - 1e-9

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=13),
           st.floats(0.01, 10.0))
    def test_tlp_invariant_under_scaling(self, fractions, scale):
        # Eq. 1 normalizes, so scaling all c_i together changes nothing.
        if sum(fractions[1:]) == 0:
            return
        if sum(f * scale for f in fractions[1:]) == 0:
            # Denormal underflow (e.g. 5e-324 * 0.5 == 0.0) can wipe
            # out all busy mass, collapsing the scaled TLP to 0.
            return
        if sum(fractions[1:]) < 1e-9 * sum(fractions):
            # Busy mass at the edge of float cancellation: Eq. 1's
            # ``1 - c0`` loses most of its significant bits (e.g.
            # busy 2e-13 against idle 1.0), so the computed TLP
            # wobbles beyond any fixed tolerance even though the
            # exact value is scale-invariant.
            return
        base = tlp_from_fractions(fractions)
        scaled = tlp_from_fractions([f * scale for f in fractions])
        assert abs(base - scaled) < 1e-6

    @given(st.floats(0.0, 0.99))
    def test_idle_fraction_never_changes_tlp(self, idle):
        # Adding idle time must not change TLP (idle is factored out).
        busy = [0.25, 0.5, 0.25]
        with_idle = [idle] + [f * (1 - idle) for f in busy]
        without = [0.0] + busy
        assert abs(tlp_from_fractions(with_idle)
                   - tlp_from_fractions(without)) < 1e-9


class TestGpuMetricProperties:
    @given(intervals_strategy)
    def test_union_never_exceeds_sum_method(self, intervals):
        rows = [("p.exe", 1, "3D", "k", s, s, e) for s, e in intervals]
        table = GpuUtilizationTable(rows, 0, 20_000)
        by_union = measure_gpu_utilization(table, method="union")
        by_sum = measure_gpu_utilization(table, method="sum")
        assert by_union.utilization_pct <= 100.0
        # Sum counts overlap multiple times, so (before capping) it is
        # at least the union.
        assert (by_sum.utilization_pct >= by_union.utilization_pct
                or by_sum.capped)


class TestKernelProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 200), min_size=1, max_size=10),
           st.integers(0, 10_000))
    def test_timeouts_fire_in_order(self, delays, start):
        env = Environment(initial_time=start)
        fired = []
        for delay in delays:
            env.timeout(delay).callbacks.append(
                lambda e, d=delay: fired.append((env.now, d)))
        env.run()
        times = [t for t, _d in fired]
        assert times == sorted(times)
        assert len(fired) == len(delays)
        assert env.now == start + max(delays)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 100), max_size=20),
           st.integers(1, 5))
    def test_store_preserves_fifo_under_any_capacity(self, items, capacity):
        env = Environment()
        store = Store(env, capacity=capacity)
        received = []

        def producer():
            for item in items:
                yield store.put(item)

        def consumer():
            for _ in items:
                value = yield store.get()
                received.append(value)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == items
