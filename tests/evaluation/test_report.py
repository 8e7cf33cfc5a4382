"""Tests for the Markdown report generator."""

from __future__ import annotations

import pytest

from benchmarks.paper.report import ExperimentReport, ascii_series


class TestAsciiSeries:
    def test_monotone_series_rises(self):
        spark = ascii_series([0.0, 1.0, 2.0, 3.0], width=4)
        assert len(spark) == 4
        assert spark[0] != spark[-1]

    def test_constant_series_is_flat(self):
        spark = ascii_series([5.0, 5.0, 5.0], width=3)
        assert len(set(spark)) == 1

    def test_long_series_resampled_to_width(self):
        spark = ascii_series(list(range(1000)), width=16)
        assert len(spark) == 16

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ascii_series([])


class TestExperimentReport:
    def test_render_contains_title_and_sections(self):
        report = ExperimentReport("My repro")
        section = report.section("Figure 2")
        section.add_series("some series", [1.0, 2.0])
        rendered = report.render()
        assert rendered.startswith("# My repro")
        assert "## Figure 2" in rendered
        assert "some series" in rendered

    def test_table_rendering(self):
        report = ExperimentReport("r")
        section = report.section("s")
        section.add_table(("a", "b"), [(1, 2.5), ("x", 3.0)])
        rendered = report.render()
        assert "| a" in rendered
        assert "| 1" in rendered
        assert "2.5" in rendered

    def test_table_row_width_checked(self):
        section = ExperimentReport("r").section("s")
        with pytest.raises(ValueError, match="row width"):
            section.add_table(("a", "b"), [(1,)])

    def test_series_line(self):
        report = ExperimentReport("r")
        section = report.section("s")
        section.add_series("bytes", [1.0, 2.0, 8.0])
        rendered = report.render()
        assert "- bytes: `" in rendered
        assert "(1 → 8)" in rendered

    def test_empty_title_rejected(self):
        with pytest.raises(ValueError, match="title"):
            ExperimentReport("")


class TestClaimsReport:
    def test_one_section_per_recorded_bench(self):
        from benchmarks.paper.claims import load
        from benchmarks.paper.report import claims_report

        claims = load()
        report = claims_report(claims)
        assert len(report.sections) == len(claims)
        rendered = report.render()
        assert "## `bench_fig02_communication`" in rendered
        assert "| nfd.cludistream_bytes" in rendered
        assert "- nfd.periodic_series: `" in rendered
