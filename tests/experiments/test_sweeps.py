"""Tests for the TTL and DF sweeps."""

import pytest

from repro.experiments.config import ExperimentSpec
from repro.experiments.sweeps import sweep
from repro.traces.synthetic import haggle_like


@pytest.fixture(scope="module")
def tiny_trace():
    return haggle_like(scale=0.01, seed=4)


@pytest.fixture(scope="module")
def base_spec():
    return ExperimentSpec(min_rate_per_s=1 / 7200.0)


class TestTtlSweep:
    def test_shape(self, tiny_trace, base_spec):
        results = sweep(tiny_trace, base_spec, ttl_min=(60.0, 600.0))
        assert set(results) == {"PUSH", "B-SUB", "PULL"}
        assert all(len(cells) == 2 for cells in results.values())

    def test_ttls_recorded_in_order(self, tiny_trace, base_spec):
        results = sweep(tiny_trace, base_spec, ttl_min=(60.0, 600.0))
        assert [r.ttl_min for r in results["PUSH"]] == [60.0, 600.0]

    def test_df_rederived_per_ttl(self, tiny_trace, base_spec):
        results = sweep(
            tiny_trace, base_spec, ttl_min=(60.0, 600.0), protocols=("B-SUB",)
        )
        dfs = [r.decay_factor_per_min for r in results["B-SUB"]]
        assert dfs[0] > dfs[1]  # shorter TTL -> faster decay

    def test_protocol_subset(self, tiny_trace, base_spec):
        results = sweep(
            tiny_trace, base_spec, ttl_min=(60.0,), protocols=("PULL",)
        )
        assert set(results) == {"PULL"}

    def test_delivery_ratio_nondecreasing_in_ttl(self, tiny_trace, base_spec):
        """Figs. 7(a)/8(a): longer TTLs can only help delivery."""
        results = sweep(
            tiny_trace, base_spec, ttl_min=(30.0, 1200.0), protocols=("PUSH",)
        )
        ratios = [r.summary.delivery_ratio for r in results["PUSH"]]
        assert ratios[1] >= ratios[0]


class TestDfSweep:
    def test_runs_bsub_at_each_df(self, tiny_trace, base_spec):
        results = sweep(
            tiny_trace, base_spec.with_ttl(600.0), df_per_min=(0.0, 1.0)
        )
        assert [r.decay_factor_per_min for r in results] == [0.0, 1.0]
        assert all(r.protocol == "B-SUB" for r in results)

    def test_fixed_ttl(self, tiny_trace, base_spec):
        results = sweep(tiny_trace, base_spec.with_ttl(240.0), df_per_min=(0.5,))
        assert results[0].ttl_min == 240.0

    def test_high_df_reduces_forwardings(self, tiny_trace, base_spec):
        """Fig. 9(c): interests stop propagating at huge DF, so the
        relay path dries up and forwarding overhead falls."""
        free, strangled = sweep(
            tiny_trace, base_spec.with_ttl(600.0), df_per_min=(0.0, 50.0)
        )
        assert (
            strangled.summary.num_forwardings <= free.summary.num_forwardings
        )
