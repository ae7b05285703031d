"""Tests for result formatting."""

import math

import pytest

from repro.experiments.report import (
    figure_series,
    format_table,
    metric_series,
    series_table,
)


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.333]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].split() == ["a", "bb"]
        assert "0.333" in text

    def test_handles_nan_and_large_numbers(self):
        text = format_table(["x"], [[float("nan")], [123_456.0]])
        assert "nan" in text
        assert "123,456" in text

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text


class TestSeriesTable:
    def test_renders_all_series(self):
        text = series_table(
            "TTL", [10, 100], {"PUSH": [0.5, 0.9], "PULL": [0.1, 0.4]}
        )
        assert "PUSH" in text and "PULL" in text
        assert "0.9" in text

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="points"):
            series_table("x", [1, 2], {"s": [1.0]})


class TestMetricSeries:
    def _results(self):
        from repro.api import ExperimentSpec, run
        from repro.traces.synthetic import haggle_like

        trace = haggle_like(scale=0.01, seed=6)
        spec = ExperimentSpec(
            protocol="PULL", ttl_min=300, min_rate_per_s=1 / 7200.0
        )
        return [run(trace, spec)]

    def test_known_metrics(self):
        results = self._results()
        assert metric_series(results, "delivery_ratio")[0] == results[
            0
        ].summary.delivery_ratio
        assert metric_series(results, "fpr") == [0.0]
        for metric in ("delay_min", "forwardings"):
            value = metric_series(results, metric)[0]
            assert isinstance(value, float)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            metric_series([], "latency")

    def test_figure_series(self):
        results = self._results()
        series = figure_series({"PULL": results}, "delivery_ratio")
        assert set(series) == {"PULL"}
        assert len(series["PULL"]) == 1
