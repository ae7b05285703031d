"""Tests for the Spray-and-Wait extension baseline."""

from dataclasses import replace

import pytest

from repro import api
from repro.api import ExperimentSpec
from repro.dtn.events import MessageEvent
from repro.dtn.simulator import Simulation
from repro.pubsub.extra_baselines import SprayAndWaitProtocol
from repro.pubsub.messages import Message
from repro.pubsub.metrics import MetricsCollector
from repro.traces.synthetic import haggle_like

from ..conftest import make_trace


def run(trace, interests, messages, copies=8):
    metrics = MetricsCollector(interests, "SPRAY")
    protocol = SprayAndWaitProtocol(interests, metrics, initial_copies=copies)
    events = [
        MessageEvent(t, node, Message.create(key, node, t, ttl))
        for (t, node, key, ttl) in messages
    ]
    Simulation(trace, protocol, events, rate_bps=None).run()
    return protocol, metrics.summary()


def empty_interests(n, overrides=None):
    interests = {node: frozenset() for node in range(n)}
    for node, keys in (overrides or {}).items():
        interests[node] = frozenset(keys)
    return interests


class TestSprayMechanics:
    def test_direct_delivery_to_interested(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = empty_interests(2, {1: {"k"}})
        _, summary = run(trace, interests, [(0.0, 0, "k", 1e5)])
        assert summary.num_intended_deliveries == 1

    def test_binary_spray_halves_quota(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = empty_interests(2)
        protocol, _ = run(trace, interests, [(0.0, 0, "k", 1e5)], copies=8)
        message_id = next(iter(protocol.carried[0]))
        assert protocol.carried[0][message_id][1] == 4
        assert protocol.carried[1][message_id][1] == 4

    def test_wait_phase_stops_spraying(self):
        """A single-copy carrier must not infect uninterested nodes."""
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = empty_interests(2)
        protocol, _ = run(trace, interests, [(0.0, 0, "k", 1e5)], copies=1)
        assert len(protocol.carried[1]) == 0

    def test_wait_phase_still_delivers(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = empty_interests(2, {1: {"k"}})
        _, summary = run(trace, interests, [(0.0, 0, "k", 1e5)], copies=1)
        assert summary.num_intended_deliveries == 1

    def test_copy_budget_conserved(self):
        """The total quota never exceeds L per message (binary split)."""
        trace = make_trace(
            [(100.0 + i * 50, 10.0, i % 3, (i + 1) % 3) for i in range(6)]
        )
        interests = empty_interests(3)
        protocol, _ = run(trace, interests, [(0.0, 0, "k", 1e5)], copies=8)
        assert protocol.total_copies_in_flight() == 8

    def test_multi_hop_via_spray(self):
        """0 sprays to 1; 1 delivers to consumer 2 whom 0 never meets."""
        trace = make_trace([(100.0, 10.0, 0, 1), (200.0, 10.0, 1, 2)])
        interests = empty_interests(3, {2: {"k"}})
        _, summary = run(trace, interests, [(0.0, 0, "k", 1e5)], copies=4)
        assert summary.num_intended_deliveries == 1

    def test_ttl_respected(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = empty_interests(2, {1: {"k"}})
        _, summary = run(trace, interests, [(0.0, 0, "k", 50.0)])
        assert summary.num_deliveries == 0

    def test_never_false_delivery(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = empty_interests(2, {1: {"zzz"}})
        _, summary = run(trace, interests, [(0.0, 0, "k", 1e5)])
        assert summary.num_false_deliveries == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="initial_copies"):
            SprayAndWaitProtocol({}, MetricsCollector({}, "SPRAY"),
                                 initial_copies=0)


class TestComparative:
    @pytest.fixture(scope="class")
    def results(self):
        trace = haggle_like(scale=0.03, seed=46)
        spec = ExperimentSpec(ttl_min=600.0, min_rate_per_s=1 / 3600.0)
        return {
            name: api.run(trace, spec.with_protocol(name))
            for name in ("PUSH", "B-SUB", "SPRAY", "PULL")
        }

    def test_spray_sits_between_push_and_pull(self, results):
        push = results["PUSH"].summary.delivery_ratio
        spray = results["SPRAY"].summary.delivery_ratio
        pull = results["PULL"].summary.delivery_ratio
        assert pull < spray < push

    def test_spray_overhead_bounded_by_quota(self, results):
        """≤ L sprays + deliveries per message."""
        summary = results["SPRAY"].summary
        assert summary.num_forwardings <= summary.num_messages * (
            8 + results["SPRAY"].summary.num_intended_pairs
        )
        assert (
            summary.forwardings_per_delivered
            < results["PUSH"].summary.forwardings_per_delivered
        )

    def test_spray_copies_config(self):
        trace = haggle_like(scale=0.02, seed=47)
        spec = ExperimentSpec(
            protocol="SPRAY", ttl_min=600.0, min_rate_per_s=1 / 7200.0
        )
        few = api.run(trace, replace(spec, spray_copies=2))
        many = api.run(trace, replace(spec, spray_copies=16))
        assert many.summary.delivery_ratio >= few.summary.delivery_ratio
