"""Tests for interactive response-latency metrics."""

import pytest

from repro.apps import create_app
from repro.harness import run_app_once
from repro.hardware import paper_machine
from repro.metrics import (
    pair_marks,
    percentile,
    response_summary,
    tail_latency,
)
from repro.sim import SECOND
from repro.trace import MarkRecord

SHORT = 20 * SECOND


def mark(process, time, label):
    return MarkRecord(process, 1, time, label)


class TestPairing:
    def test_simple_pair(self):
        marks = [mark("a", 10, "input:save"), mark("a", 60, "response:save")]
        (latency,) = pair_marks(marks)
        assert latency.label == "save"
        assert latency.latency_us == 50

    def test_fifo_matching_for_repeated_labels(self):
        marks = [
            mark("a", 0, "input:op"), mark("a", 10, "input:op"),
            mark("a", 30, "response:op"), mark("a", 70, "response:op"),
        ]
        latencies = pair_marks(marks)
        assert [lat.latency_us for lat in latencies] == [30, 60]

    def test_unmatched_trailing_input_dropped(self):
        marks = [mark("a", 0, "input:op")]
        assert pair_marks(marks) == []

    def test_process_filtering(self):
        marks = [
            mark("a", 0, "input:op"), mark("a", 5, "response:op"),
            mark("b", 0, "input:op"), mark("b", 9, "response:op"),
        ]
        latencies = pair_marks(marks, processes={"b"})
        assert [lat.latency_us for lat in latencies] == [9]

    def test_non_interaction_marks_ignored(self):
        marks = [mark("a", 0, "phase:render"),
                 mark("a", 1, "input:op"), mark("a", 4, "response:op")]
        assert len(pair_marks(marks)) == 1

    def test_summary_requires_interactions(self):
        with pytest.raises(ValueError):
            response_summary([])


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3

    def test_p100_is_max(self):
        assert percentile([7, 1, 9], 1.0) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestIntegration:
    def test_interactive_apps_emit_interaction_marks(self):
        run = run_app_once(create_app("word"), duration_us=SHORT, seed=2)
        summary = response_summary(run.marks)
        assert summary.n > 10
        assert summary.mean > 0

    def test_latency_improves_with_second_cpu(self):
        # The Flautner-era observation on the 2018 substrate.
        def mean_latency(cores):
            machine = paper_machine().with_smt(False).with_logical_cpus(cores)
            run = run_app_once(create_app("photoshop"), machine=machine,
                               duration_us=30 * SECOND, seed=2)
            return response_summary(run.marks).mean

        assert mean_latency(2) < mean_latency(1)

    def test_tail_latency_at_least_mean(self):
        run = run_app_once(create_app("excel"), duration_us=SHORT, seed=2)
        summary = response_summary(run.marks)
        assert tail_latency(run.marks, 0.95) >= summary.mean * 0.8
