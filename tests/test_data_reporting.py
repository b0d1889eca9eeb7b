"""Tests for historical datasets and the table/figure renderers."""

from repro.data import (
    BLAKE_2010_GPU,
    BLAKE_2010_TLP,
    FIG2_LINEAGES,
    FIG3_LINEAGES,
    FLAUTNER_2000_TLP,
    PAPER_CATEGORY_AVERAGES,
    PAPER_TABLE2,
    PAPER_TABLE3,
    historical_gpu,
    historical_tlp,
)
from repro.hardware import paper_machine
from repro.reporting import (
    bar_chart,
    fig2_series,
    fig3_series,
    format_table,
    heat_row,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig9,
    render_fig11,
    render_fig12,
    render_table1,
    sparkline,
)
from repro.metrics.timeseries import TimeSeries


class TestHistoricalData:
    def test_paper_table2_covers_thirty_apps(self):
        assert len(PAPER_TABLE2) == 30

    def test_category_averages_complete(self):
        assert len(PAPER_CATEGORY_AVERAGES) == 9

    def test_2000_values_below_two(self):
        # Flautner et al.: average TLP below 2 on the 2000 SMP.
        assert all(v < 2.0 for v in FLAUTNER_2000_TLP.values())

    def test_2010_gpu_exceeds_2018_for_shared_lineages(self):
        # Fig. 3's claim: all non-VR 2018 GPU utilizations are lower
        # than their 2010 counterparts.
        assert BLAKE_2010_GPU["Win Media Player (2010)"] > 16.1
        assert BLAKE_2010_GPU["HandBrake 0.9"] > 0.4
        assert BLAKE_2010_GPU["Firefox 3.5"] > 8.6

    def test_historical_lookup_by_year(self):
        assert historical_tlp("Word 97", 2000) == FLAUTNER_2000_TLP["Word 97"]
        assert historical_tlp("Crysis", 2010) == BLAKE_2010_TLP["Crysis"]

    def test_historical_gpu_lookup(self):
        assert historical_gpu("Crysis") == BLAKE_2010_GPU["Crysis"]

    def test_table3_matches_paper_headline(self):
        # +143% average rate improvement claim materialises as
        # 14/9, 27/19, 37/28.
        ratios = [PAPER_TABLE3[n]["rate_gpu"] / PAPER_TABLE3[n]["rate_cpu"]
                  for n in (4, 8, 12)]
        assert all(r > 1.3 for r in ratios)

    def test_fig2_lineage_sources_resolve(self):
        from repro.apps import REGISTRY

        for _category, entries in FIG2_LINEAGES:
            for _label, year, source in entries:
                if year == 2018:
                    assert source in REGISTRY
                else:
                    assert historical_tlp(source, year) > 0

    def test_fig3_lineage_sources_resolve(self):
        from repro.apps import REGISTRY

        for _category, entries in FIG3_LINEAGES:
            for _label, year, source in entries:
                if year == 2018:
                    assert source in REGISTRY
                else:
                    assert historical_gpu(source) >= 0


class TestRenderHelpers:
    def test_format_table_aligns_columns(self):
        text = format_table(("a", "bee"), [("x", 1), ("longer", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_heat_row_shades_scale_with_fraction(self):
        row = heat_row([0.0, 0.05, 0.5, 1.0])
        assert row[0] == " "
        assert row[-1] == "█"
        assert len(row) == 4

    def test_bar_chart_scales_to_peak(self):
        chart = bar_chart([("a", 10.0), ("b", 5.0)], max_width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bar_chart_empty(self):
        assert bar_chart([]) == "(no data)"

    def test_sparkline_length(self):
        assert len(sparkline([1, 2, 3])) == 3

    def test_sparkline_empty(self):
        assert sparkline([]) == ""


class TestFigureRenderers:
    def test_fig2_series_mixes_measured_and_historical(self):
        measured = {key: 5.0 for key in PAPER_TABLE2}
        series = fig2_series(measured)
        years = {year for _c, points in series
                 for _l, year, _v in points}
        assert years == {2000, 2010, 2018}
        for _category, points in series:
            for _label, year, value in points:
                if year == 2018:
                    assert value == 5.0

    def test_fig3_series(self):
        measured = {key: 1.0 for key in PAPER_TABLE2}
        series = fig3_series(measured)
        assert any(year == 2010 for _c, pts in series
                   for _l, year, _v in pts)

    def test_render_fig2_smoke(self):
        measured = {key: tlp for key, (tlp, _g) in PAPER_TABLE2.items()}
        text = render_fig2(measured)
        assert "Fig. 2" in text
        assert "HandBrake 1.1.0 [2018]" in text

    def test_render_fig3_smoke(self):
        measured = {key: gpu for key, (_t, gpu) in PAPER_TABLE2.items()}
        text = render_fig3(measured)
        assert "Fig. 3" in text

    def test_render_fig4(self):
        text = render_fig4({"EasyMiner": {4: 4.0, 8: 8.0, 12: 11.8}})
        assert "Ideal" in text and "EasyMiner" in text

    def test_render_fig9(self):
        text = render_fig9({("GTX 680", True): (9.1, 1.5),
                            ("GTX 680", False): (2.1, 1.6)})
        assert "CUDA" in text and "non-CUDA" in text

    def test_render_fig11(self):
        results = {(b, t): (2.0, 5.0)
                   for b in ("Chrome", "Edge")
                   for t in ("multi-tab", "wiki")}
        text = render_fig11(results)
        assert "Fig. 11a" in text and "Fig. 11b" in text

    def test_render_fig12(self):
        results = {(g, h): (3.0, 70.0)
                   for g in ("Fallout 4",)
                   for h in ("Rift", "Vive")}
        text = render_fig12(results)
        assert "Fig. 12a" in text

    def test_render_table1_matches_spec(self):
        text = render_table1(paper_machine())
        assert "i7-8700K" in text
        assert "3584 CUDA cores" in text

    def test_render_timeseries(self):
        from repro.reporting import render_timeseries_figure

        series = TimeSeries(0, 1_000_000, [1.0, 5.0, 12.0])
        text = render_timeseries_figure(
            "Fig. 5", {"12 LCPUs": series})
        assert "Fig. 5" in text
        assert "max= 12.00" in text
