"""Tests for result persistence (JSON) and the CSV export."""

import csv

import pytest

from repro.harness import run_suite
from repro.harness.persistence import (
    app_result_to_dict,
    load_suite,
    save_suite,
)
from repro.reporting.export import suite_to_csv
from repro.sim import SECOND


@pytest.fixture(scope="module")
def suite():
    return run_suite(names=("excel", "handbrake", "phoenixminer"),
                     duration_us=12 * SECOND, iterations=2)


class TestPersistence:
    def test_round_trip_preserves_summaries(self, suite, tmp_path):
        path = tmp_path / "suite.json"
        save_suite(suite, path, metadata={"duration_s": 12})
        loaded = load_suite(path)
        for name in suite.results:
            original = suite.results[name]
            restored = loaded.results[name]
            assert restored.tlp.mean == pytest.approx(original.tlp.mean)
            assert restored.tlp.std == pytest.approx(original.tlp.std)
            assert restored.gpu_util.mean == pytest.approx(
                original.gpu_util.mean)
            assert restored.fractions == pytest.approx(original.fractions)
            assert restored.max_instantaneous == original.max_instantaneous
            assert restored.gpu_capped == original.gpu_capped

    def test_loaded_suite_supports_aggregations(self, suite, tmp_path):
        path = tmp_path / "suite.json"
        save_suite(suite, path)
        loaded = load_suite(path)
        assert loaded.overall_average_tlp() == pytest.approx(
            suite.overall_average_tlp())
        assert set(loaded.apps_with_tlp_above(4.0)) == set(
            suite.apps_with_tlp_above(4.0))

    def test_iteration_values_stored(self, suite):
        data = app_result_to_dict(suite.results["excel"])
        assert len(data["iteration_tlp"]) == 2
        assert data["category"] == "Office"

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_suite(path)


class TestExports:
    def test_csv_export(self, suite, tmp_path):
        path = tmp_path / "table2.csv"
        suite_to_csv(suite, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        by_app = {row["app"]: row for row in rows}
        assert float(by_app["handbrake"]["tlp_paper"]) == 9.4
        assert by_app["phoenixminer"]["gpu_capped"] == "True"
