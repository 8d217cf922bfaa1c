"""Metrics and report rendering."""

import pytest

from repro.analysis.metrics import gmean, normalize, percent_change, speedup
from repro.analysis.report import (
    format_value,
    render_table,
)
from repro.errors import ExperimentError


class TestMetrics:
    def test_gmean_basic(self):
        assert gmean([2.0, 8.0]) == pytest.approx(4.0)

    def test_gmean_identity(self):
        assert gmean([3.0]) == pytest.approx(3.0)

    def test_gmean_rejects_empty(self):
        with pytest.raises(ExperimentError):
            gmean([])

    def test_gmean_rejects_nonpositive(self):
        with pytest.raises(ExperimentError):
            gmean([1.0, 0.0])

    def test_normalize(self):
        out = normalize({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}

    def test_normalize_missing_baseline(self):
        with pytest.raises(ExperimentError):
            normalize({"a": 1.0}, "z")

    def test_speedup_eq7(self):
        assert speedup(baseline_cpi=10.0, tech_cpi=5.0) == 2.0

    def test_percent_change(self):
        assert percent_change(2.0, 3.0) == pytest.approx(50.0)


class TestReport:
    def test_format_value(self):
        assert format_value(1.23456, 2) == "1.23"
        assert format_value("x") == "x"

    def test_render_table_alignment(self):
        text = render_table(
            ["name", "v"],
            [{"name": "alpha", "v": 1.5}, {"name": "b", "v": 22.25}],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "alpha" in text and "22.250" in text
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # all rows equal width

    def test_render_table_missing_cells(self):
        text = render_table(["a", "b"], [{"a": 1}])
        assert "b" in text


class TestBars:
    def test_render_bars_basic(self):
        from repro.analysis.report import render_bars
        text = render_bars({"fpb": 1.8, "ideal": 2.0}, title="speedup")
        lines = text.splitlines()
        assert lines[0] == "speedup"
        assert "fpb" in text and "1.80" in text
        # The longest bar belongs to the largest value.
        fpb_bar = lines[2].count("#")
        ideal_bar = lines[3].count("#")
        assert ideal_bar > fpb_bar

    def test_reference_marker(self):
        from repro.analysis.report import render_bars
        text = render_bars({"a": 0.5, "b": 2.0}, reference=1.0)
        assert "|" in text

    def test_empty(self):
        from repro.analysis.report import render_bars
        assert render_bars({}, title="t") == "t"
