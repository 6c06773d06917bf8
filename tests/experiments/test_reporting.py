"""Reporting helpers."""

import pytest

from repro.experiments.reporting import curve_line, percent, sparkline


class TestSparkline:
    def test_monotone_ramp(self):
        s = sparkline([0, 1, 2, 3])
        assert s[0] == "▁" and s[-1] == "█"
        assert len(s) == 4

    def test_constant(self):
        assert sparkline([5, 5, 5]) == "▄▄▄"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_pinned_scale(self):
        s = sparkline([0.5], lo=0.0, hi=1.0)
        assert s in "▃▄▅"

    def test_out_of_range_clipped(self):
        s = sparkline([2.0], lo=0.0, hi=1.0)
        assert s == "█"


class TestCurveLine:
    def test_contains_label_and_endpoints(self):
        line = curve_line("potential", [0.1, 0.9], [0.8, 0.2])
        assert "potential" in line
        assert "0.80" in line and "0.20" in line
        assert "x=[0.1, 0.9]" in line

    def test_empty_series_renders_labelled_row(self):
        line = curve_line("potential", [], [])
        assert "potential" in line
        assert "no data" in line

    def test_empty_generator_renders_labelled_row(self):
        line = curve_line("gen", iter([]), iter([]))
        assert "no data" in line


class TestPercent:
    def test_formats(self):
        assert percent(0.849) == "84.9%"
        assert percent(0.005, 2) == "0.50%"
