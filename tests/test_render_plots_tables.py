"""Presentation helpers: ASCII plots, tables."""

from repro.experiments.plots import line_plot
from repro.experiments.tables import fmt, format_table, gib, mib


class TestLinePlot:
    def test_contains_legend_and_axis(self):
        text = line_plot({"a": [1, 2, 3], "b": [3, 2, 1]}, title="t",
                         y_label="units")
        assert "t" in text
        assert "*=a" in text and "o=b" in text
        assert "[units]" in text

    def test_extremes_labeled(self):
        text = line_plot({"a": [0.0, 10.0]})
        assert "10.000" in text and "0.000" in text

    def test_empty_series(self):
        assert line_plot({}, title="nothing") == "nothing"


class TestTables:
    def test_format_alignment(self):
        text = format_table(["col", "x"], [["a", 1], ["bb", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[1]
        assert all("  " in l for l in lines[3:])

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_numeric_helpers(self):
        assert fmt(1.23456) == "1.23"
        assert fmt(1.23456, 3) == "1.235"
        assert mib(2 * 2**20) == "2.0"
        assert gib(3 * 2**30) == "3.00"
