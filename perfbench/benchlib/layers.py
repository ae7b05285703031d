"""Which public callables each layer span wraps.

Module-level functions are patched where their caller looks them up
(``repro.experiments.runner`` imports ``assign_interests`` by name, so
the span goes on the runner's binding).  Methods are patched on their
class, which every instance and every bound-method lookup made after
installation sees — so install before building cores or simulations.
"""

from __future__ import annotations

from .spans import Tracer


def _sim_targets():
    from repro.core.bloom import BloomFilter
    from repro.core.hashing import HashFamily
    from repro.core.tcbf import TemporalCountingBloomFilter as TCBF
    from repro.dtn.bandwidth import ContactChannel
    from repro.dtn.simulator import Simulation
    from repro.experiments import runner
    from repro.pubsub.broker_allocation import BrokerElection
    from repro.pubsub.metrics import MetricsCollector
    from repro.pubsub.node import BsubNodeState
    from repro.pubsub.protocol import BsubProtocol

    return [
        (runner, "assign_interests", "workload.interests"),
        (runner, "generate_message_events", "workload.events"),
        (runner, "derive_decay_factor", "experiments.derive_df"),
        (Simulation, "run", "dtn.engine"),
        (BsubProtocol, "on_contact", "pubsub.protocol.on_contact"),
        (BsubProtocol, "on_message_created", "pubsub.protocol.on_message"),
        (BrokerElection, "on_contact", "pubsub.election"),
        (TCBF, "decay", "core.tcbf.decay"),
        (TCBF, "a_merge", "core.tcbf.a_merge"),
        (TCBF, "m_merge", "core.tcbf.m_merge"),
        (TCBF, "preference", "core.tcbf.preference"),
        (TCBF, "preference_batch", "core.tcbf.preference"),
        (TCBF, "query", "core.bloom.query"),
        (TCBF, "query_batch", "core.bloom.query"),
        (BloomFilter, "query", "core.bloom.query"),
        (BloomFilter, "query_batch", "core.bloom.query"),
        (HashFamily, "positions", "core.hashing.positions"),
        (HashFamily, "positions_batch", "core.hashing.positions"),
        (HashFamily, "distinct_positions", "core.hashing.positions"),
        (BsubNodeState, "purge_expired", "pubsub.node.purge"),
        (BsubNodeState, "carry", "pubsub.node.carry"),
        (MetricsCollector, "register_message", "pubsub.metrics.register"),
        (MetricsCollector, "record_forwarding", "pubsub.metrics.record"),
        (MetricsCollector, "record_injection", "pubsub.metrics.record"),
        (MetricsCollector, "record_delivery", "pubsub.metrics.record"),
    ], [
        (ContactChannel, "send", "dtn.channel.send"),
    ]


def install_sim(tracer: Tracer) -> None:
    """Spans for a simulator run (plus a bare channel-send counter)."""
    spans, counters = _sim_targets()
    for owner, attr, name in spans:
        tracer.install(owner, attr, name)
    for owner, attr, name in counters:
        tracer.install(owner, attr, name, count_only=True)


def install_fanout(tracer: Tracer) -> None:
    """Spans for the in-process broker core and its codec."""
    from repro.core.hashing import HashFamily
    from repro.core.tcbf import TemporalCountingBloomFilter as TCBF
    from repro.obs.registry import MetricsRegistry
    from repro.pubsub import wire
    from repro.serve.dispatcher import BrokerCore

    for owner, attr, name in [
        (BrokerCore, "on_subscribe", "serve.dispatcher.subscribe"),
        (BrokerCore, "on_publish", "serve.dispatcher.publish"),
        (wire, "encode_frame", "pubsub.wire.encode"),
        (wire.StreamDecoder, "feed", "pubsub.wire.decode"),
        (MetricsRegistry, "counter", "obs.registry.counter"),
        (TCBF, "a_merge", "core.tcbf.a_merge"),
        (HashFamily, "positions", "core.hashing.positions"),
        (HashFamily, "positions_batch", "core.hashing.positions"),
        (HashFamily, "distinct_positions", "core.hashing.positions"),
    ]:
        tracer.install(owner, attr, name)


def install_broker(tracer: Tracer) -> None:
    """Spans inside the socket broker process (``serve-wire``)."""
    import asyncio

    from repro.pubsub.wire import StreamDecoder
    from repro.serve import broker
    from repro.serve.dispatcher import BrokerCore

    for owner, attr, name in [
        (StreamDecoder, "feed", "serve.broker.decode"),
        (BrokerCore, "handle_frame", "serve.dispatcher.handle"),
        (broker, "encode_frame", "pubsub.wire.encode"),
        (asyncio.StreamWriter, "drain", "serve.broker.drain_wait"),
    ]:
        tracer.install(owner, attr, name)
