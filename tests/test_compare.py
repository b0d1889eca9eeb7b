"""Tests for the longitudinal suite comparison tool."""

import pytest

from repro.analysis import compare_suites, render_comparison
from repro.harness import run_suite
from repro.harness.persistence import load_suite, save_suite
from repro.hardware import paper_machine
from repro.sim import SECOND

SHORT = 12 * SECOND


def delta_of(comparison, app_name):
    """The one delta of ``app_name`` in ``comparison``."""
    (delta,) = [d for d in comparison.deltas if d.app_name == app_name]
    return delta


@pytest.fixture(scope="module")
def suites():
    narrow = run_suite(names=("handbrake", "excel"), iterations=1,
                       machine=paper_machine().with_logical_cpus(4),
                       duration_us=SHORT)
    wide = run_suite(names=("handbrake", "excel", "vlc"), iterations=1,
                     duration_us=SHORT)
    return narrow, wide


class TestCompareSuites:
    def test_common_apps_compared(self, suites):
        narrow, wide = suites
        comparison = compare_suites(narrow, wide)
        assert {d.app_name for d in comparison.deltas} == \
            {"handbrake", "excel"}
        assert comparison.only_after == ["vlc"]
        assert comparison.only_before == []

    def test_core_scaling_shows_as_improvement(self, suites):
        narrow, wide = suites
        comparison = compare_suites(narrow, wide)
        # HandBrake gains massively from 4 -> 12 logical CPUs.
        assert "handbrake" in comparison.improved(threshold=2.0)
        delta = delta_of(comparison, "handbrake")
        assert delta.tlp_after > 2.0 * delta.tlp_before

    def test_serial_app_unchanged(self, suites):
        narrow, wide = suites
        comparison = compare_suites(narrow, wide)
        assert abs(delta_of(comparison, "excel").tlp_delta) < 0.8

    def test_works_on_persisted_suites(self, suites, tmp_path):
        narrow, wide = suites
        before_path = tmp_path / "before.json"
        after_path = tmp_path / "after.json"
        save_suite(narrow, before_path)
        save_suite(wide, after_path)
        comparison = compare_suites(load_suite(before_path),
                                    load_suite(after_path))
        delta = delta_of(comparison, "handbrake")
        assert delta.tlp_after > 2.0 * delta.tlp_before

    def test_render(self, suites):
        comparison = compare_suites(*suites)
        text = render_comparison(comparison, title="4 vs 12 LCPUs")
        assert "4 vs 12 LCPUs" in text
        assert "handbrake" in text
        assert "only in new run: vlc" in text
