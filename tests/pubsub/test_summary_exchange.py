"""Tests for PUSH's summary-vector exchange modes."""

from dataclasses import replace

import pytest

from repro.api import ExperimentSpec, run
from repro.dtn.events import MessageEvent
from repro.dtn.simulator import Simulation
from repro.pubsub.baselines import PushProtocol
from repro.pubsub.messages import Message
from repro.pubsub.metrics import MetricsCollector
from repro.traces.synthetic import haggle_like

from ..conftest import make_trace


def run_push(trace, interests, messages, mode, rate_bps=None):
    metrics = MetricsCollector(interests, "PUSH")
    protocol = PushProtocol(interests, metrics, summary_exchange=mode)
    events = [
        MessageEvent(t, node, Message.create(key, node, t, ttl))
        for (t, node, key, ttl) in messages
    ]
    report = Simulation(trace, protocol, events, rate_bps=rate_bps).run()
    return metrics.summary(), report


class TestModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="summary_exchange"):
            PushProtocol({}, MetricsCollector({}, "PUSH"), summary_exchange="smoke")

    def test_free_mode_moves_no_control_bytes(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = {0: frozenset(), 1: frozenset({"k"})}
        summary, report = run_push(
            trace, interests, [(0.0, 0, "k", 1e5)], "free"
        )
        # only the 140-byte message crossed
        assert report.bytes_transferred == 140.0
        assert summary.num_intended_deliveries == 1

    @pytest.mark.parametrize("mode", ["ids", "bloom"])
    def test_summaries_charged(self, mode):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = {0: frozenset(), 1: frozenset({"k"})}
        summary, report = run_push(
            trace, interests, [(0.0, 0, "k", 1e5)], mode
        )
        assert report.bytes_transferred > 140.0  # message + 2 summaries
        assert summary.num_intended_deliveries == 1

    def test_bloom_summary_cheaper_than_ids(self):
        protocol_ids = PushProtocol({}, MetricsCollector({}, "PUSH"),
                                    summary_exchange="ids")
        protocol_bloom = PushProtocol({}, MetricsCollector({}, "PUSH"),
                                      summary_exchange="bloom")
        trace = make_trace([(0.0, 1.0, 0, 1)])
        for protocol in (protocol_ids, protocol_bloom):
            protocol.setup(trace)
            for i in range(100):
                m = Message.create("k", 0, 0.0, 1e5)
                protocol.on_message_created(0, m, 0.0)
        assert protocol_bloom._summary_bytes(0) < protocol_ids._summary_bytes(0)

    def test_tight_channel_blocks_replication_entirely(self):
        """If the summaries don't fit, nothing replicates — the
        anti-entropy handshake is a prerequisite."""
        trace = make_trace([(100.0, 2.0, 0, 1)])
        interests = {0: frozenset(), 1: frozenset({"k"})}
        # 2 s * 40 bps = 10 B: the 13 B id-summary doesn't fit
        summary, report = run_push(
            trace, interests, [(0.0, 0, "k", 1e5)], "ids", rate_bps=40
        )
        assert summary.num_deliveries == 0


class TestEndToEnd:
    def test_delivery_identical_across_modes_without_bandwidth_limit(self):
        trace = haggle_like(scale=0.015, seed=44)
        spec = ExperimentSpec(
            protocol="PUSH", ttl_min=300.0, min_rate_per_s=1 / 7200.0
        )
        results = {
            mode: run(trace, replace(spec, push_summary_exchange=mode))
            for mode in ("free", "ids", "bloom")
        }
        ratios = {m: r.summary.delivery_ratio for m, r in results.items()}
        assert ratios["free"] == pytest.approx(ratios["ids"], abs=0.02)
        assert ratios["free"] == pytest.approx(ratios["bloom"], abs=0.02)

    def test_realistic_push_pays_for_its_knowledge(self):
        trace = haggle_like(scale=0.015, seed=44)
        spec = ExperimentSpec(
            protocol="PUSH", ttl_min=300.0, min_rate_per_s=1 / 7200.0
        )
        free = run(trace, replace(spec, push_summary_exchange="free"))
        ids = run(trace, replace(spec, push_summary_exchange="ids"))
        bloom = run(trace, replace(spec, push_summary_exchange="bloom"))
        assert ids.engine.bytes_transferred > bloom.engine.bytes_transferred
        assert bloom.engine.bytes_transferred > free.engine.bytes_transferred
