"""Failure-injection and adversarial-condition tests.

Each test puts the full stack (workload → simulator → protocol →
metrics) into a degenerate or hostile regime and checks it degrades
gracefully: no crashes, conserved invariants, sane metrics.
"""

import math

import pytest

from repro.api import ExperimentSpec, run
from repro.dtn.events import MessageEvent
from repro.dtn.simulator import Simulation
from repro.pubsub.baselines import PushProtocol
from repro.pubsub.messages import Message
from repro.pubsub.metrics import MetricsCollector
from repro.pubsub.protocol import BsubConfig, BsubProtocol
from repro.traces.model import ContactTrace
from repro.traces.synthetic import haggle_like

from .conftest import make_trace


def tiny_trace():
    return haggle_like(scale=0.01, seed=30)


def fast(**overrides):
    defaults = dict(ttl_min=120.0, min_rate_per_s=1 / 7200.0)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestStarvedChannels:
    def test_zero_effective_bandwidth(self):
        """A rate too small for even one filter: nothing moves, nothing breaks."""
        result = run(tiny_trace(), fast(protocol="B-SUB", rate_bps=0.01))
        assert result.summary.num_deliveries == 0
        assert result.engine.bytes_transferred == 0.0
        assert result.engine.refused_transfers > 0

    def test_push_on_trickle_channel(self):
        """A few bytes per contact: a handful of tiny messages may trickle
        through but flooding is crippled versus full bandwidth."""
        starved = run(tiny_trace(), fast(protocol="PUSH", rate_bps=8))
        full = run(tiny_trace(), fast(protocol="PUSH", rate_bps=None))
        assert starved.engine.refused_transfers > 0
        assert (
            starved.summary.num_intended_deliveries
            < 0.2 * max(full.summary.num_intended_deliveries, 1)
        )

    def test_protocols_still_account_contacts(self):
        trace = tiny_trace()
        result = run(trace, fast(protocol="PULL", rate_bps=1))
        assert result.engine.num_contacts == trace.num_contacts


class TestDegenerateInterests:
    def test_nobody_interested_in_anything(self):
        """Interests map empty: zero intended pairs, NaN ratios, no crash."""
        trace = make_trace([(10.0 * i, 5.0, 0, 1) for i in range(5)])
        interests = {0: frozenset(), 1: frozenset()}
        metrics = MetricsCollector(interests, "B-SUB")
        protocol = BsubProtocol(interests, metrics, BsubConfig())
        events = [
            MessageEvent(1.0, 0, Message.create("k", 0, 1.0, 1000.0))
        ]
        Simulation(trace, protocol, events, rate_bps=None).run()
        summary = metrics.summary()
        assert summary.num_intended_pairs == 0
        assert math.isnan(summary.delivery_ratio)
        assert summary.num_deliveries == 0

    def test_everyone_wants_the_same_key(self):
        trace = tiny_trace()
        spec = fast(protocol="PUSH", interests_per_node=1, interest_seed=1)
        from repro.workload.keys import KeyDistribution

        monoculture = KeyDistribution.uniform(["TheOnlyTopic"])
        result = run(trace, spec, distribution=monoculture)
        # every message is wanted by every other node
        assert result.summary.num_intended_pairs == (
            result.summary.num_messages * (trace.num_nodes - 1)
        )

    def test_saturated_filter_still_classifies_correctly(self):
        """An 8-bit filter matches everything; deliveries explode but
        the metrics still separate intended from false."""
        trace = tiny_trace()
        result = run(trace, fast(protocol="B-SUB", num_bits=8, num_hashes=2))
        summary = result.summary
        assert summary.num_deliveries >= summary.num_intended_deliveries
        assert (
            summary.num_intended_deliveries + summary.num_false_deliveries
            == summary.num_deliveries
        )
        # saturated filters mean lots of false traffic
        assert summary.false_positive_ratio > 0.0


class TestHostileTiming:
    def test_ttl_shorter_than_first_contact_gap(self):
        trace = make_trace([(10_000.0, 10.0, 0, 1)])
        interests = {0: frozenset(), 1: frozenset({"k"})}
        metrics = MetricsCollector(interests, "B-SUB")
        protocol = BsubProtocol(interests, metrics, BsubConfig())
        events = [MessageEvent(0.0, 0, Message.create("k", 0, 0.0, 60.0))]
        Simulation(trace, protocol, events, rate_bps=None).run()
        assert metrics.summary().num_deliveries == 0

    def test_simultaneous_contacts(self):
        """Multiple contacts at the same instant are all processed."""
        trace = make_trace(
            [(100.0, 10.0, 0, 1), (100.0, 10.0, 2, 3), (100.0, 10.0, 1, 2)]
        )
        interests = {n: frozenset({"k"}) for n in range(4)}
        metrics = MetricsCollector(interests, "PUSH")
        protocol = PushProtocol(interests, metrics)
        events = [MessageEvent(0.0, 0, Message.create("k", 0, 0.0, 1e6))]
        report = Simulation(trace, protocol, events, rate_bps=None).run()
        assert report.num_contacts == 3

    def test_extreme_decay_factor(self):
        """DF so large interests die instantly: B-SUB degenerates to
        direct delivery only, without errors."""
        result = run(tiny_trace(), fast(protocol="B-SUB", df_per_min=1e6))
        summary = result.summary
        assert 0.0 <= summary.delivery_ratio <= 1.0
        # relay path dead -> at most direct-contact deliveries
        assert summary.num_injections == 0 or summary.num_injections < 100

    def test_message_storm_with_short_ttl(self):
        """High message rate + tiny TTL: buffers must not grow without
        bound thanks to expiry purging."""
        trace = haggle_like(scale=0.01, seed=31)
        result = run(
            trace, fast(protocol="PUSH", ttl_min=5.0, min_rate_per_s=1 / 300.0)
        )
        assert result.summary.num_messages > 1000
        assert 0.0 <= result.summary.delivery_ratio <= 1.0


class TestEmptyWorlds:
    def test_empty_trace_all_protocols(self):
        trace = ContactTrace([], nodes=range(5), name="void")
        for name in ("PUSH", "B-SUB", "PULL"):
            result = run(trace, fast(protocol=name))
            assert result.summary.num_deliveries == 0
            assert result.engine.num_contacts == 0

    def test_two_hermits(self):
        """Two nodes that never meet: messages are created and expire."""
        trace = ContactTrace([], nodes=range(2), name="hermits")
        result = run(trace, fast(protocol="B-SUB"))
        assert result.summary.num_messages == 0  # zero centrality -> no rate

    def test_single_pair_dense_meetings(self):
        trace = make_trace([(i * 100.0, 50.0, 0, 1) for i in range(200)])
        interests = {0: frozenset({"k"}), 1: frozenset({"k"})}
        metrics = MetricsCollector(interests, "B-SUB")
        protocol = BsubProtocol(interests, metrics, BsubConfig())
        events = [
            MessageEvent(t, 0, Message.create("k", 0, t, 5_000.0))
            for t in (0.0, 500.0, 900.0)
        ]
        Simulation(trace, protocol, events, rate_bps=None).run()
        # node 1 gets all three via direct delivery
        assert metrics.summary().num_intended_deliveries == 3


class TestConservation:
    def test_deliveries_never_exceed_messages_times_nodes(self):
        trace = tiny_trace()
        for name in ("PUSH", "B-SUB", "PULL"):
            result = run(trace, fast(protocol=name))
            summary = result.summary
            assert summary.num_deliveries <= (
                summary.num_messages * trace.num_nodes
            )

    def test_forwardings_nonnegative_and_bounded(self):
        result = run(tiny_trace(), fast(protocol="PUSH"))
        assert 0 <= result.summary.num_forwardings
        # epidemic: at most messages x (nodes - 1) replications
        assert result.summary.num_forwardings <= (
            result.summary.num_messages * 79
        )

    def test_tx_equals_rx(self):
        result = run(tiny_trace(), fast(protocol="B-SUB"))
        tx = sum(result.engine.tx_bytes_by_node.values())
        rx = sum(result.engine.rx_bytes_by_node.values())
        assert tx == pytest.approx(rx)
