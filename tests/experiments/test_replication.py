"""Tests for multi-seed replication."""

import math

import pytest

from repro.experiments.config import ExperimentSpec
from repro.experiments.replication import MetricStats, _stats, replicate
from repro.traces.synthetic import haggle_like


def factory(seed):
    return haggle_like(scale=0.01, seed=seed)


def spec(protocol):
    return ExperimentSpec(
        protocol=protocol, ttl_min=300.0, min_rate_per_s=1 / 7200.0
    )


class TestMetricStats:
    def test_mean_and_std(self):
        stats = _stats([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.std == pytest.approx(1.0)
        assert stats.count == 3

    def test_single_value(self):
        stats = _stats([5.0])
        assert stats.mean == 5.0
        assert stats.std == 0.0

    def test_nans_filtered(self):
        stats = _stats([1.0, float("nan"), 3.0])
        assert stats.mean == 2.0
        assert stats.count == 2

    def test_all_nan(self):
        stats = _stats([float("nan")])
        assert math.isnan(stats.mean)
        assert stats.count == 0

    def test_str_format(self):
        assert "n=3" in str(_stats([1.0, 2.0, 3.0]))


class TestRunReplicated:
    def test_aggregates_over_seeds(self):
        result = replicate(factory, spec("PULL"), seeds=(0, 1, 2))
        assert len(result.runs) == 3
        assert result["delivery_ratio"].count == 3
        assert 0.0 <= result["delivery_ratio"].mean <= 1.0

    def test_seeds_produce_different_runs(self):
        result = replicate(factory, spec("PULL"), seeds=(0, 1))
        ratios = [r.summary.delivery_ratio for r in result.runs]
        assert ratios[0] != ratios[1]

    def test_deterministic_overall(self):
        a = replicate(factory, spec("PULL"), seeds=(0, 1))
        b = replicate(factory, spec("PULL"), seeds=(0, 1))
        assert a["delivery_ratio"].mean == b["delivery_ratio"].mean

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            replicate(factory, spec("PULL"), seeds=())

    def test_all_metrics_present(self):
        result = replicate(factory, spec("PUSH"), seeds=(0,))
        assert set(result.metrics) == {
            "delivery_ratio",
            "mean_delay_min",
            "forwardings_per_delivered",
            "false_positive_ratio",
            "broker_fraction",
        }

    def test_ordering_stable_across_seeds(self):
        """PUSH beats PULL in the mean, not just in one lucky seed."""
        push = replicate(factory, spec("PUSH"), seeds=(0, 1, 2))
        pull = replicate(factory, spec("PULL"), seeds=(0, 1, 2))
        assert push["delivery_ratio"].mean > pull["delivery_ratio"].mean
