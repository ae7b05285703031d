"""Tests for the experiment runner."""

import pytest

from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import (
    average_peers_met_within,
    derive_decay_factor,
    run,
)
from repro.traces.synthetic import haggle_like

from ..conftest import make_trace


@pytest.fixture(scope="module")
def tiny_trace():
    return haggle_like(scale=0.01, seed=2)


def fast_spec(**overrides):
    defaults = dict(ttl_min=300.0, min_rate_per_s=1 / 7200.0)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestAveragePeersMetWithin:
    def test_simple_window(self):
        trace = make_trace(
            [(0.0, 1.0, 0, 1), (10.0, 1.0, 0, 2), (2000.0, 1.0, 0, 1)]
        )
        # window 100 s: node 0 has windows {1,2} and {1}; nodes 1,2 one
        # window each -> mean of [2, 1, 1, 1, 1] = 1.2
        assert average_peers_met_within(trace, 100.0) == pytest.approx(1.2)

    def test_empty_trace(self):
        from repro.traces.model import ContactTrace

        assert average_peers_met_within(ContactTrace([], nodes=[0]), 100.0) == 0.0

    def test_invalid_window(self):
        trace = make_trace([(0.0, 1.0, 0, 1)])
        with pytest.raises(ValueError):
            average_peers_met_within(trace, 0.0)

    def test_larger_window_more_peers(self, tiny_trace):
        small = average_peers_met_within(tiny_trace, 600.0)
        large = average_peers_met_within(tiny_trace, 6 * 3600.0)
        assert large >= small


class TestDeriveDecayFactor:
    def test_positive_and_finite(self, tiny_trace):
        df = derive_decay_factor(tiny_trace, fast_spec())
        assert 0.0 < df < 100.0

    def test_shorter_ttl_larger_df(self, tiny_trace):
        short = derive_decay_factor(tiny_trace, fast_spec(ttl_min=60.0))
        long = derive_decay_factor(tiny_trace, fast_spec(ttl_min=1200.0))
        assert short > long

    def test_includes_delta(self, tiny_trace):
        base = derive_decay_factor(
            tiny_trace, fast_spec(df_delta_per_min=0.0)
        )
        bumped = derive_decay_factor(
            tiny_trace, fast_spec(df_delta_per_min=0.5)
        )
        assert bumped == pytest.approx(base + 0.5)


class TestRunExperiment:
    @pytest.mark.parametrize("protocol", ["PUSH", "B-SUB", "PULL"])
    def test_all_protocols_run(self, tiny_trace, protocol):
        result = run(tiny_trace, fast_spec(protocol=protocol))
        assert result.protocol == protocol
        assert result.summary.num_messages > 0
        assert 0.0 <= result.summary.delivery_ratio <= 1.0

    def test_unknown_protocol_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="unknown protocol"):
            run(tiny_trace, fast_spec(protocol="FLOOD"))

    def test_deterministic(self, tiny_trace):
        a = run(tiny_trace, fast_spec(protocol="PULL"))
        b = run(tiny_trace, fast_spec(protocol="PULL"))
        assert a.summary == b.summary

    def test_same_workload_across_protocols(self, tiny_trace):
        push = run(tiny_trace, fast_spec(protocol="PUSH"))
        pull = run(tiny_trace, fast_spec(protocol="PULL"))
        assert push.summary.num_messages == pull.summary.num_messages
        assert push.summary.num_intended_pairs == pull.summary.num_intended_pairs

    def test_bsub_auto_df(self, tiny_trace):
        result = run(tiny_trace, fast_spec(protocol="B-SUB"))
        assert result.decay_factor_per_min > 0.0

    def test_bsub_explicit_df(self, tiny_trace):
        result = run(tiny_trace, fast_spec(df_per_min=0.5))
        assert result.decay_factor_per_min == 0.5

    def test_broker_fraction_only_for_bsub(self, tiny_trace):
        bsub = run(tiny_trace, fast_spec(protocol="B-SUB"))
        push = run(tiny_trace, fast_spec(protocol="PUSH"))
        assert bsub.broker_fraction > 0.0
        assert push.broker_fraction == 0.0

    def test_engine_report_attached(self, tiny_trace):
        result = run(tiny_trace, fast_spec(protocol="PULL"))
        assert result.engine.num_contacts == tiny_trace.num_contacts

    def test_baselines_never_deliver_falsely(self, tiny_trace):
        for name in ("PUSH", "PULL"):
            result = run(tiny_trace, fast_spec(protocol=name))
            assert result.summary.num_false_deliveries == 0
