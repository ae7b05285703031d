"""Feature-combination tests.

Every optional mechanism (multi-filter relays, adaptive DF, bounded
buffers, raw encoding, static brokers, multi-key messages,
multi-interest consumers) must compose with the others without breaking
protocol invariants.  Each cell of the matrix runs a small end-to-end
simulation and checks the conserved quantities.
"""

import pytest

from repro import api
from repro.api import ExperimentSpec
from repro.pubsub.adaptive import AdaptiveDecayConfig
from repro.traces.synthetic import haggle_like


@pytest.fixture(scope="module")
def trace():
    return haggle_like(scale=0.02, seed=42)


def run(trace, **overrides):
    defaults = dict(ttl_min=300.0, min_rate_per_s=1 / 7200.0)
    defaults.update(overrides)
    return api.run(trace, ExperimentSpec(**defaults))


def assert_sane(result):
    summary = result.summary
    assert summary.num_messages > 0
    assert 0.0 <= summary.delivery_ratio <= 1.0
    assert summary.num_intended_deliveries <= summary.num_intended_pairs
    assert summary.num_deliveries == (
        summary.num_intended_deliveries + summary.num_false_deliveries
    )
    assert result.engine.bytes_transferred >= 0


class TestSingleFeatures:
    def test_baseline(self, trace):
        assert_sane(run(trace))

    def test_multi_filter_relay(self, trace):
        assert_sane(run(trace, relay_fill_threshold=0.25, relay_max_filters=4))

    def test_adaptive_df(self, trace):
        assert_sane(
            run(
                trace,
                df_per_min=0.1,
                adaptive_df=AdaptiveDecayConfig(target_fpr=0.01),
            )
        )

    def test_bounded_buffers(self, trace):
        assert_sane(run(trace, carried_capacity=25))

    def test_reject_eviction(self, trace):
        assert_sane(run(trace, carried_capacity=25, eviction="reject"))

    def test_raw_encoding(self, trace):
        result = run(trace, interest_encoding="raw")
        assert_sane(result)
        assert result.summary.false_positive_ratio == 0.0

    def test_static_brokers(self, trace):
        brokers = tuple(range(0, 79, 3))
        result = run(trace, static_brokers=brokers)
        assert_sane(result)
        assert result.broker_fraction == pytest.approx(len(brokers) / 79)

    def test_multi_key_messages(self, trace):
        assert_sane(run(trace, keys_per_message=3))

    def test_multi_interest_consumers(self, trace):
        assert_sane(run(trace, interests_per_node=3))


class TestCombinations:
    def test_collection_plus_adaptive_plus_buffers(self, trace):
        result = run(
            trace,
            relay_fill_threshold=0.25,
            relay_max_filters=3,
            df_per_min=0.1,
            adaptive_df=AdaptiveDecayConfig(target_fpr=0.01, interval_s=900.0),
            carried_capacity=30,
        )
        assert_sane(result)

    def test_raw_plus_buffers_plus_static(self, trace):
        result = run(
            trace,
            interest_encoding="raw",
            carried_capacity=20,
            eviction="reject",
            static_brokers=tuple(range(0, 79, 4)),
        )
        assert_sane(result)
        assert result.summary.false_injection_ratio == 0.0

    def test_multikey_plus_multiinterest_plus_collection(self, trace):
        result = run(
            trace,
            keys_per_message=2,
            interests_per_node=2,
            relay_fill_threshold=0.3,
        )
        assert_sane(result)
        # richer matching surface -> more intended pairs per message
        assert result.summary.num_intended_pairs > result.summary.num_messages

    def test_amerge_ablation_plus_adaptive(self, trace):
        result = run(
            trace,
            broker_broker_additive_merge=True,
            df_per_min=0.2,
            adaptive_df=AdaptiveDecayConfig(target_fpr=0.02),
        )
        assert_sane(result)

    def test_raw_forbids_collection(self, trace):
        with pytest.raises(ValueError, match="only applies"):
            run(trace, interest_encoding="raw", relay_fill_threshold=0.3)

    def test_everything_at_once(self, trace):
        result = run(
            trace,
            keys_per_message=2,
            interests_per_node=2,
            relay_fill_threshold=0.3,
            relay_max_filters=3,
            df_per_min=0.15,
            adaptive_df=AdaptiveDecayConfig(target_fpr=0.02, interval_s=1200.0),
            carried_capacity=40,
            push_buffer_capacity=40,  # harmless for B-SUB
        )
        assert_sane(result)


class TestWorkloadConsistencyAcrossFeatures:
    def test_same_workload_regardless_of_protocol_options(self, trace):
        plain = run(trace)
        fancy = run(
            trace, relay_fill_threshold=0.3, carried_capacity=30
        )
        assert plain.summary.num_messages == fancy.summary.num_messages
        assert (
            plain.summary.num_intended_pairs == fancy.summary.num_intended_pairs
        )
