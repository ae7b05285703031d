"""Tests for the B-SUB protocol on hand-crafted contact scenarios."""

import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import TCBFCollection
from repro.core.backends import BACKEND_ENV_VAR, BACKENDS
from repro.core.tcbf import TemporalCountingBloomFilter
from repro.dtn.bandwidth import ContactChannel
from repro.dtn.events import MessageEvent
from repro.dtn.simulator import Simulation
from repro.pubsub.messages import Message
from repro.pubsub.metrics import MetricsCollector
from repro.pubsub.protocol import BsubConfig, BsubProtocol

from ..conftest import make_trace


def build(interests, brokers, trace, messages=(), df_per_min=0.0, **config_overrides):
    """Run B-SUB with pinned brokers; returns (protocol, metrics)."""
    config = BsubConfig(
        static_brokers=tuple(brokers),
        decay_factor_per_min=df_per_min,
        **config_overrides,
    )
    metrics = MetricsCollector(interests, "B-SUB")
    protocol = BsubProtocol(interests, metrics, config)
    events = [
        MessageEvent(t, node, Message.create(key, node, t, ttl))
        for (t, node, key, ttl) in messages
    ]
    Simulation(trace, protocol, events, rate_bps=None).run()
    return protocol, metrics


def interests_for(num_nodes, overrides=None):
    interests = {n: frozenset() for n in range(num_nodes)}
    for node, keys in (overrides or {}).items():
        interests[node] = frozenset(keys)
    return interests


class TestInterestPropagation:
    def test_consumer_uploads_genuine_filter_to_broker(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = interests_for(2, {0: {"NewMoon"}})
        protocol, _ = build(interests, brokers=[1], trace=trace)
        relay = protocol.states[1].relay
        assert "NewMoon" in relay
        assert relay.min_counter("NewMoon") == 50.0

    def test_repeat_meetings_reinforce_counters(self):
        """Sec. V-C: more frequent meetings -> higher counters (A-merge)."""
        trace = make_trace(
            [(100.0, 10.0, 0, 1), (200.0, 10.0, 0, 1), (300.0, 10.0, 0, 1)]
        )
        interests = interests_for(2, {0: {"k"}})
        protocol, _ = build(interests, brokers=[1], trace=trace)
        assert protocol.states[1].relay.min_counter("k") == 150.0

    @pytest.mark.parametrize(
        "df_per_min, gap_s, meetings, expected",
        [
            (2.0, 600.0, 6, 200.0),
            (0.5, 420.0, 9, 422.0),
            (2.0, 1500.0, 5, 50.0),
            (2.0, 3600.0, 5, 50.0),
            (10.0, 180.0, 7, 170.0),
        ],
    )
    def test_reinforcement_against_decay_closed_form(
        self, df_per_min, gap_s, meetings, expected
    ):
        """The test above with decay (DF > 0): a consumer meets its
        broker n times, Δ apart.  Each A-merge adds C = 50 and each gap
        decays DF·Δ, so the relay counter is n·C − (n−1)·DF·Δ while
        DF·Δ < C, and C once a gap decays the whole insertion away."""
        insertion = 50.0
        loss = df_per_min * gap_s / 60.0
        closed_form = (
            meetings * insertion - (meetings - 1) * loss
            if loss < insertion else insertion
        )
        assert closed_form == expected
        trace = make_trace(
            [(100.0 + i * gap_s, 10.0, 0, 1) for i in range(meetings)]
        )
        interests = interests_for(2, {0: {"k"}})
        protocol, _ = build(
            interests, brokers=[1], trace=trace, df_per_min=df_per_min
        )
        assert protocol.states[1].relay.min_counter("k") == expected

    def test_plain_user_never_builds_relay_state(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = interests_for(2, {0: {"k"}, 1: {"j"}})
        protocol, _ = build(interests, brokers=[], trace=trace)
        assert protocol.states[0].relay.is_empty()
        assert protocol.states[1].relay.is_empty()

    def test_brokers_m_merge_relay_filters(self):
        """Broker-broker merges take the max, not the sum."""
        trace = make_trace(
            [
                (100.0, 10.0, 0, 1),  # consumer 0 -> broker 1 (counter 50)
                (200.0, 10.0, 1, 2),  # brokers 1 and 2 merge relays
            ]
        )
        interests = interests_for(3, {0: {"k"}})
        protocol, _ = build(interests, brokers=[1, 2], trace=trace)
        assert protocol.states[2].relay.min_counter("k") == 50.0  # max, not 100

    def test_fig6_a_merge_ablation_inflates_counters(self):
        """With the Fig. 6 pathological A-merge between brokers, two
        brokers meeting repeatedly inflate each other's counters."""
        contacts = [(100.0, 10.0, 0, 1)]  # consumer seeds broker 1
        contacts += [(200.0 + 50 * i, 10.0, 1, 2) for i in range(4)]
        trace = make_trace(contacts)
        interests = interests_for(3, {0: {"k"}})
        m_protocol, _ = build(interests, brokers=[1, 2], trace=trace)
        a_protocol, _ = build(
            interests,
            brokers=[1, 2],
            trace=trace,
            broker_broker_additive_merge=True,
        )
        m_counter = m_protocol.states[1].relay.min_counter("k")
        a_counter = a_protocol.states[1].relay.min_counter("k")
        assert a_counter > m_counter  # bogus counters accumulate

    def test_interest_decays_out_of_relay(self):
        """DF removes interests that are not reinforced (Sec. V-D)."""
        trace = make_trace(
            [
                (100.0, 10.0, 0, 1),  # consumer 0 seeds broker 1 with C=50
                (100.0 + 60 * 60.0, 10.0, 1, 2),  # an hour later
            ]
        )
        interests = interests_for(3, {0: {"k"}})
        # DF = 1/min: the counter (50) is gone within 50 minutes.
        protocol, _ = build(interests, brokers=[1, 2], trace=trace, df_per_min=1.0)
        assert "k" not in protocol.states[1].relay
        assert "k" not in protocol.states[2].relay


TOPICS = [f"topic-{i}" for i in range(12)]
key_sets = st.frozensets(st.sampled_from(TOPICS), min_size=1, max_size=4)
times = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


def _relay_state(relay):
    """Clock and exact counters of every filter in *relay*."""
    filters = relay.filters if isinstance(relay, TCBFCollection) else [relay]
    return [(f.time, f.counters()) for f in filters]


@given(
    backend=st.sampled_from(BACKENDS),
    filter_spec=st.sampled_from(
        [None, "multi:threshold=0.05", "retouched:clear=3+17+42"]
    ),
    interests=key_sets,
    earlier=st.lists(key_sets, max_size=4),
    genuine_time=times,
    relay_time=times,
    gap=st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False),
    df_per_min=st.sampled_from([0.0, 0.25, 3.0]),
)
@settings(max_examples=100, deadline=None)
def test_property_genuine_merge_equals_fresh_announcement(
    backend, filter_spec, interests, earlier, genuine_time, relay_time, gap,
    df_per_min,
):
    """A broker A-merges the consumer's genuine filter as sent.  At any
    contact time at or after the genuine filter's clock, that gives
    exactly the counters an announcement of the same interests, built
    fresh at the contact time, would give."""
    interests_map = {0: interests, 1: frozenset()}
    config = BsubConfig(decay_factor_per_min=df_per_min, filter_spec=filter_spec)
    now = max(genuine_time, relay_time) + gap
    with mock.patch.dict(os.environ, {BACKEND_ENV_VAR: backend}):
        protocol = BsubProtocol(
            interests_map, MetricsCollector(interests_map, "B-SUB"), config
        )
        consumer = protocol._fresh_state(0, genuine_time)
        brokers = []
        for _ in range(2):
            broker = protocol._fresh_state(1, relay_time)
            for keys in earlier:
                broker.relay.a_merge(
                    TemporalCountingBloomFilter.of(
                        keys, family=protocol.family, time=relay_time
                    )
                )
            broker.relay.advance(now)  # as on_contact does first
            brokers.append(broker)
        as_sent, fresh = brokers
        protocol._absorb_interests(as_sent, consumer, now)
        fresh.relay.a_merge(
            TemporalCountingBloomFilter.of(
                interests,
                family=protocol.family,
                initial_value=config.initial_value,
                time=now,
            )
        )
    assert as_sent.relay.backend == consumer.genuine.backend == backend
    assert _relay_state(as_sent.relay) == _relay_state(fresh.relay)
    assert consumer.genuine.time == genuine_time
    assert not consumer.genuine.merged


class TestDirectDelivery:
    def test_producer_delivers_to_interested_consumer(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = interests_for(2, {1: {"k"}})
        _, metrics = build(
            interests, brokers=[], trace=trace, messages=[(0.0, 0, "k", 10_000.0)]
        )
        summary = metrics.summary()
        assert summary.num_intended_deliveries == 1
        assert summary.mean_delay_s == 100.0

    def test_no_delivery_to_uninterested_consumer(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = interests_for(2, {1: {"other-key-entirely"}})
        _, metrics = build(
            interests, brokers=[], trace=trace, messages=[(0.0, 0, "k", 10_000.0)]
        )
        # (modulo Bloom false positives, excluded here by construction:
        # check the summary classifies any delivery correctly)
        assert metrics.summary().num_intended_deliveries == 0

    def test_expired_message_not_delivered(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = interests_for(2, {1: {"k"}})
        _, metrics = build(
            interests, brokers=[], trace=trace, messages=[(0.0, 0, "k", 50.0)]
        )
        assert metrics.summary().num_deliveries == 0

    def test_duplicate_contact_no_duplicate_delivery(self):
        trace = make_trace([(100.0, 10.0, 0, 1), (200.0, 10.0, 0, 1)])
        interests = interests_for(2, {1: {"k"}})
        _, metrics = build(
            interests, brokers=[], trace=trace, messages=[(0.0, 0, "k", 10_000.0)]
        )
        assert metrics.summary().num_deliveries == 1


def _reference_deliver_matching(protocol, holder, consumer, channel, now):
    """Direct delivery as a snapshot walk (the oracle): both buffers'
    key lists, one batched genuine-filter query, then each matching
    key's sorted id snapshot with a ``has`` check per id."""
    interests = consumer.interests
    own_keys = list(holder.own.keys())
    keys = own_keys + list(holder.carried.keys())
    if not interests or not keys:
        return
    if protocol.config.interest_encoding == "raw":
        hits = [key in interests for key in keys]
    else:
        hits = consumer.genuine_bloom.query_batch(keys)
    split = len(own_keys)
    for buffer, part in (
        (holder.own, slice(None, split)),
        (holder.carried, slice(split, None)),
    ):
        for key in [k for k, hit in zip(keys[part], hits[part]) if hit]:
            for message_id in buffer.ids_for(key):
                if consumer.has(message_id):
                    continue
                message = buffer.messages[message_id]
                if not channel.send(
                    message.size_bytes,
                    sender=holder.node_id,
                    receiver=consumer.node_id,
                ):
                    return
                protocol.metrics.record_forwarding(message)
                protocol.op_counts["forward_direct"] += 1
                consumer.mark_received(message.id)
                if protocol.metrics.record_delivery(
                    message, consumer.node_id, now
                ):
                    protocol.op_counts["deliveries"] += 1


class _RecordingChannel(ContactChannel):
    """A channel of *budget* bytes (None: unbounded) that logs every
    accepted send as ``(sender, receiver, size)``."""

    def __init__(self, budget):
        if budget is None:
            super().__init__(1.0, rate_bps=None)
        else:
            super().__init__(float(budget), rate_bps=8.0)
        self.sent = []

    def send(self, num_bytes, sender=None, receiver=None):
        accepted = super().send(num_bytes, sender=sender, receiver=receiver)
        if accepted:
            self.sent.append((sender, receiver, num_bytes))
        return accepted


# Where one message sits on the holder, and what the consumer already
# knows of it: nothing (most often, so that several messages are still
# to send when a budget runs out), received, carried, or in its own
# buffer without a receipt (``has`` must still skip it).
_placements = st.tuples(
    st.sampled_from(["own", "carried"]),
    st.sampled_from([None, None, None, "received", "carried", "own"]),
)


@given(
    backend=st.sampled_from(BACKENDS),
    encoding=st.sampled_from(["tcbf", "raw"]),
    geometry=st.sampled_from([(16, 2), (256, 4)]),
    holder_interests=st.frozensets(st.sampled_from(TOPICS), max_size=4),
    consumer_interests=st.frozensets(
        st.sampled_from(TOPICS), min_size=1, max_size=6
    ),
    messages=st.lists(
        st.tuples(
            st.frozensets(st.sampled_from(TOPICS), min_size=1, max_size=3),
            st.integers(1, 140),
            _placements,
        ),
        min_size=2,
        max_size=14,
    ),
    ids=st.lists(st.integers(0, 10**6), min_size=14, max_size=14, unique=True),
    # About half a dozen 1-140 byte messages fit in 400 bytes, so most
    # bounded budgets run out part-way through the walk.
    budgets=st.lists(
        st.one_of(st.none(), st.integers(0, 400)), min_size=3, max_size=3
    ),
)
@settings(max_examples=200, deadline=None)
def test_property_direct_delivery_matches_snapshot_walk(
    backend, encoding, geometry, holder_interests, consumer_interests,
    messages, ids, budgets,
):
    """Direct delivery walks the live key index through memoised
    genuine-filter matches.  Over both directions of a contact and a
    repeat contact, with budgets that may run out part-way through
    either buffer, it sends the same messages in the same order, and
    leaves the same receipts and tallies, as the snapshot walk."""
    num_bits, num_hashes = geometry
    interests = {0: holder_interests, 1: consumer_interests}
    config = BsubConfig(
        num_bits=num_bits, num_hashes=num_hashes, interest_encoding=encoding
    )
    runs = []
    with mock.patch.dict(os.environ, {BACKEND_ENV_VAR: backend}):
        for deliver in (BsubProtocol._deliver_matching, _reference_deliver_matching):
            metrics = MetricsCollector(interests, "B-SUB")
            protocol = BsubProtocol(interests, metrics, config)
            holder = protocol._fresh_state(0, 0.0)
            consumer = protocol._fresh_state(1, 0.0)
            for message_id, (keys, size, (where, known)) in zip(ids, messages):
                message = Message(message_id, keys, 0, 0.0, 1e6, size)
                metrics.register_message(message)
                if where == "own":
                    holder.produce(message)
                else:
                    holder.carry(message)
                if known == "received":
                    consumer.mark_received(message_id)
                elif known == "carried":
                    consumer.carry(message)
                elif known == "own":
                    consumer.own.add(message)
            sends = []
            for budget, (src, dst) in zip(
                budgets, [(holder, consumer), (consumer, holder), (holder, consumer)]
            ):
                channel = _RecordingChannel(budget)
                deliver(protocol, src, dst, channel, 10.0)
                sends.append((channel.sent, channel.refused_transfers))
            runs.append((
                sends,
                sorted(holder.received),
                sorted(consumer.received),
                metrics.num_forwardings,
                [(r.message_id, r.node, r.intended) for r in metrics.deliveries],
                dict(protocol.op_counts),
            ))
            for state in (holder, consumer):
                if encoding == "raw":
                    assert state.genuine_matches == {}
                for key, hit in state.genuine_matches.items():
                    assert hit == state.genuine_bloom.query(key)
    assert runs[0] == runs[1]


class TestRelayPath:
    def chain(self):
        """0 (producer) -> 1 (broker) -> 2 (consumer); 2 seeds 1 first."""
        return make_trace(
            [
                (50.0, 10.0, 1, 2),   # consumer 2 announces interests to broker 1
                (100.0, 10.0, 0, 1),  # producer 0 replicates to broker 1
                (200.0, 10.0, 1, 2),  # broker 1 delivers to consumer 2
            ]
        )

    def test_three_hop_relay_delivery(self):
        interests = interests_for(3, {2: {"k"}})
        protocol, metrics = build(
            interests, brokers=[1], trace=self.chain(),
            messages=[(0.0, 0, "k", 10_000.0)],
        )
        summary = metrics.summary()
        assert summary.num_intended_deliveries == 1
        assert summary.mean_delay_s == 200.0  # created at 0, delivered at t=200

    def test_producer_does_not_replicate_unwanted_keys(self):
        interests = interests_for(3, {2: {"wanted"}})
        protocol, _ = build(
            interests, brokers=[1], trace=self.chain(),
            messages=[(0.0, 0, "unwanted-key-x", 10_000.0)],
        )
        assert len(protocol.states[1].carried) == 0

    def test_copy_limit_respected(self):
        """A producer hands out at most ℂ copies, then drops the message."""
        contacts = [(50.0, 10.0, 0, broker) for broker in (1, 2, 3, 4)]
        # stagger the contacts
        contacts = [
            (50.0 + 10 * i, 5.0, 0, broker)
            for i, broker in enumerate((1, 2, 3, 4))
        ]
        # every broker already knows a consumer wants "k"
        contacts = [(10.0 + i, 1.0, 5, broker) for i, broker in enumerate((1, 2, 3, 4))] + contacts
        trace = make_trace(contacts, nodes=range(6))
        interests = interests_for(6, {5: {"k"}})
        protocol, metrics = build(
            interests, brokers=[1, 2, 3, 4], trace=trace,
            messages=[(0.0, 0, "k", 10_000.0)], copy_limit=2,
        )
        carried_total = sum(
            len(protocol.states[b].carried) for b in (1, 2, 3, 4)
        )
        assert carried_total == 2  # ℂ = 2 replicas, then removed from producer
        assert len(protocol.states[0].own) == 0

    def test_broker_delivers_from_carried_buffer(self):
        interests = interests_for(3, {2: {"k"}})
        _, metrics = build(
            interests, brokers=[1], trace=self.chain(),
            messages=[(0.0, 0, "k", 10_000.0)],
        )
        assert metrics.summary().delivery_ratio == 1.0

    def test_broker_who_is_consumer_gets_self_delivery(self):
        """A broker interested in a key it relays counts as a delivery."""
        trace = make_trace([(50.0, 10.0, 1, 2), (100.0, 10.0, 0, 1)])
        interests = interests_for(3, {1: {"k"}, 2: {"k"}})
        _, metrics = build(
            interests, brokers=[1], trace=trace,
            messages=[(0.0, 0, "k", 10_000.0)],
        )
        delivered_to = {r.node for r in metrics.deliveries}
        assert 1 in delivered_to


class TestBrokerToBrokerForwarding:
    def two_broker_chain(self):
        """producer 0 -> broker 1 -> broker 2 -> consumer 3.

        Consumer 3 announces twice, so broker 2's counters (100 after
        reinforcement) exceed broker 1's merged copy (50) and the
        preferential query P_{2,1}(k) = 50 > 0 triggers forwarding —
        exactly the decaying-and-reinforcement mechanism that
        "identif[ies] closely related broker-consumer pairs" (Sec. V-C).
        """
        return make_trace(
            [
                (10.0, 5.0, 2, 3),    # consumer 3 announces to broker 2 (50)
                (20.0, 5.0, 1, 2),    # brokers meet: both relays at 50
                (25.0, 5.0, 2, 3),    # reinforcement: broker 2 at 100
                (30.0, 5.0, 0, 1),    # producer replicates to broker 1
                (40.0, 5.0, 1, 2),    # P_{2,1}(k) = 100 - 50 > 0 -> forward
                (50.0, 5.0, 2, 3),    # broker 2 delivers to consumer 3
            ]
        )

    def test_preferential_forwarding_moves_message(self):
        interests = interests_for(4, {3: {"k"}})
        protocol, metrics = build(
            interests, brokers=[1, 2], trace=self.two_broker_chain(),
            messages=[(0.0, 0, "k", 10_000.0)],
        )
        assert metrics.summary().num_intended_deliveries == 1

    def test_forwarded_message_leaves_sender(self):
        interests = interests_for(4, {3: {"k"}})
        protocol, _ = build(
            interests, brokers=[1, 2], trace=self.two_broker_chain(),
            messages=[(0.0, 0, "k", 10_000.0)],
        )
        # after forwarding 1 -> 2 and delivery at 3, broker 1 no longer
        # carries the message ("removed from brokers' memory after
        # being forwarded")
        assert len(protocol.states[1].carried) == 0

    def test_no_forwarding_without_positive_preference(self):
        """If the receiving broker knows nothing about the key, the
        sender's own knowledge makes its preference non-positive."""
        trace = make_trace(
            [
                (10.0, 5.0, 0, 1),   # producer seeds broker 1? no interest known
                (20.0, 5.0, 1, 2),   # brokers meet; 2 knows nothing
            ]
        )
        interests = interests_for(3, {0: {"k"}})
        # broker 1 has interest "k" registered (consumer 0 announced) but
        # broker 2 never met an interested consumer -> P_{2,1}(k) < 0.
        protocol, _ = build(
            interests, brokers=[1, 2], trace=trace,
            messages=[(5.0, 0, "k", 10_000.0)],
        )
        assert len(protocol.states[2].carried) == 0


class TestFalsePositives:
    def test_false_positive_delivery_recorded(self):
        """With a tiny filter, an uninterested consumer's bloom filter
        matches foreign keys, causing false deliveries (Fig. 9(d))."""
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = interests_for(2, {1: {"a", "b", "c", "d", "e", "f"}})
        # 16-bit filter with 6 interests -> near-certain false positives
        _, metrics = build(
            interests, brokers=[], trace=trace,
            messages=[(0.0, 0, "zzz-not-wanted", 10_000.0)],
            num_bits=16, num_hashes=2,
        )
        summary = metrics.summary()
        assert summary.num_false_deliveries >= 1
        assert summary.false_positive_ratio > 0.0


class TestBandwidthAccounting:
    def test_filters_charged_to_channel(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = interests_for(2, {0: {"k"}, 1: {"j"}})
        config = BsubConfig(static_brokers=(1,))
        metrics = MetricsCollector(interests, "B-SUB")
        protocol = BsubProtocol(interests, metrics, config)
        simulation = Simulation(trace, protocol, [], rate_bps=250_000)
        report = simulation.run()
        assert report.bytes_transferred > 0  # filters moved even with no messages

    def test_tight_channel_blocks_messages_not_state(self):
        """A channel too small for the message still lets B-SUB run."""
        trace = make_trace([(100.0, 2.0, 0, 1)])
        interests = interests_for(2, {1: {"k"}})
        metrics = MetricsCollector(interests, "B-SUB")
        protocol = BsubProtocol(interests, metrics, BsubConfig(static_brokers=()))
        m = Message.create("k", 0, 0.0, 10_000.0, size_bytes=140)
        # 2 s * 80 bps = 20 bytes: genuine BFs (~9-13 B) fit, message doesn't
        Simulation(trace, protocol, [MessageEvent(0.0, 0, m)], rate_bps=80).run()
        assert metrics.summary().num_deliveries == 0


class TestElectionIntegration:
    def test_dynamic_election_produces_brokers(self, line_trace):
        interests = interests_for(4, {3: {"k"}})
        metrics = MetricsCollector(interests, "B-SUB")
        protocol = BsubProtocol(interests, metrics, BsubConfig())
        Simulation(line_trace, protocol, [], rate_bps=None).run()
        assert protocol.broker_fraction() > 0.0

    def test_buffered_message_count(self):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = interests_for(2)
        protocol, _ = build(
            interests, brokers=[], trace=trace,
            messages=[(0.0, 0, "k", 10_000.0)],
        )
        assert protocol.buffered_message_count() == 1
