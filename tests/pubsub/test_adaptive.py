"""Tests for the Sec. VI-B online DF adaptation."""

import pytest

from repro.core.allocation import TCBFCollection
from repro.core.hashing import HashFamily
from repro.core.tcbf import TemporalCountingBloomFilter
from repro.pubsub.adaptive import AdaptiveDecayConfig, AdaptiveDecayController


@pytest.fixture
def family():
    return HashFamily(4, 64, seed=50)


def controller(initial=0.01, **overrides):
    defaults = dict(target_fpr=0.02, interval_s=100.0)
    defaults.update(overrides)
    return AdaptiveDecayController(AdaptiveDecayConfig(**defaults), initial)


def crowded_relay(family, keys=40):
    relay = TemporalCountingBloomFilter(
        family=family, initial_value=50.0, decay_factor=0.01
    )
    relay.a_merge(
        TemporalCountingBloomFilter.of(
            [f"k{i}" for i in range(keys)], family=family, initial_value=50.0
        )
    )
    return relay


class TestConfigValidation:
    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            AdaptiveDecayConfig(target_fpr=0.0)
        with pytest.raises(ValueError):
            AdaptiveDecayConfig(target_fpr=1.0)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            AdaptiveDecayConfig(adjust_factor=1.0)

    def test_rejects_bad_clamps(self):
        with pytest.raises(ValueError):
            AdaptiveDecayConfig(min_df_per_s=0.5, max_df_per_s=0.1)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            AdaptiveDecayConfig(interval_s=0.0)


class TestEstimateFpr:
    def test_empty_filter_zero(self, family):
        relay = TemporalCountingBloomFilter(family=family, initial_value=50)
        assert AdaptiveDecayController.estimate_fpr(relay) == 0.0

    def test_equals_fill_ratio_power_k(self, family):
        relay = crowded_relay(family, keys=8)
        expected = relay.fill_ratio() ** relay.num_hashes
        assert AdaptiveDecayController.estimate_fpr(relay) == pytest.approx(expected)

    def test_collection_joint(self, family):
        coll = TCBFCollection(
            fill_ratio_threshold=0.3, family=family, initial_value=50.0
        )
        coll.a_merge(
            TemporalCountingBloomFilter.of(
                [f"k{i}" for i in range(10)], family=family, initial_value=50.0
            )
        )
        single = coll.filters[0].fill_ratio() ** 4
        assert AdaptiveDecayController.estimate_fpr(coll) == pytest.approx(
            single, rel=1e-9
        )


class TestAdjustment:
    def test_raises_df_when_fpr_high(self, family):
        ctrl = controller(initial=0.01)
        relay = crowded_relay(family)  # 40 keys in 64 bits: FPR ~ 1
        before = ctrl.df_per_s
        assert ctrl.observe(relay, now=0.0)
        assert ctrl.df_per_s > before
        assert relay.decay_factor == ctrl.df_per_s

    def test_lowers_df_when_fpr_low(self, family):
        ctrl = controller(initial=0.01)
        relay = TemporalCountingBloomFilter(
            family=family, initial_value=50.0, decay_factor=0.01
        )
        assert ctrl.observe(relay, now=0.0)  # empty relay -> FPR 0 < target
        assert ctrl.df_per_s < 0.01

    def test_within_band_no_change(self, family):
        # pick a relay whose estimated FPR lands inside the band
        relay = crowded_relay(family, keys=3)
        fpr = AdaptiveDecayController.estimate_fpr(relay)
        ctrl = controller(initial=0.01, target_fpr=fpr, band=0.5)
        assert not ctrl.observe(relay, now=0.0)

    def test_interval_throttles(self, family):
        ctrl = controller(initial=0.01, interval_s=1000.0)
        relay = crowded_relay(family)
        assert ctrl.observe(relay, now=0.0)
        assert not ctrl.observe(relay, now=500.0)  # too soon
        assert ctrl.observe(relay, now=1500.0)

    def test_clamped_at_max(self, family):
        ctrl = controller(initial=9.9, max_df_per_s=10.0)
        relay = crowded_relay(family)
        ctrl.observe(relay, now=0.0)
        assert ctrl.df_per_s == 10.0
        # at the clamp, further observations change nothing
        assert not ctrl.observe(relay, now=10_000.0)

    def test_adjustment_counter(self, family):
        ctrl = controller(initial=0.01)
        relay = crowded_relay(family)
        ctrl.observe(relay, now=0.0)
        ctrl.observe(relay, now=1_000.0)
        assert ctrl.adjustments == 2

    def test_applies_to_collection(self, family):
        ctrl = controller(initial=0.01)
        coll = TCBFCollection(
            fill_ratio_threshold=0.2, family=family, initial_value=50.0,
            decay_factor=0.01,
        )
        coll.a_merge(
            TemporalCountingBloomFilter.of(
                [f"k{i}" for i in range(40)], family=family, initial_value=50.0
            )
        )
        assert ctrl.observe(coll, now=0.0)
        assert all(f.decay_factor == ctrl.df_per_s for f in coll.filters)


class TestProtocolIntegration:
    def test_adaptive_run_completes_and_adjusts(self):
        from repro.api import ExperimentSpec, run
        from repro.traces.synthetic import haggle_like

        trace = haggle_like(scale=0.02, seed=12)
        spec = ExperimentSpec(
            ttl_min=300.0,
            min_rate_per_s=1 / 7200.0,
            df_per_min=0.1,
            adaptive_df=AdaptiveDecayConfig(target_fpr=0.01, interval_s=600.0),
        )
        result = run(trace, spec)
        assert result.summary.num_messages > 0

    def test_controllers_attached_per_node(self, family):
        from repro.dtn.simulator import Simulation
        from repro.pubsub.metrics import MetricsCollector
        from repro.pubsub.protocol import BsubConfig, BsubProtocol
        from tests.conftest import make_trace

        trace = make_trace([(10.0, 5.0, 0, 1)])
        interests = {0: frozenset({"a"}), 1: frozenset()}
        protocol = BsubProtocol(
            interests,
            MetricsCollector(interests, "B-SUB"),
            BsubConfig(adaptive_df=AdaptiveDecayConfig()),
        )
        Simulation(trace, protocol, [], rate_bps=None).run()
        assert set(protocol.df_controllers) == {0, 1}
