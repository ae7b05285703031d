"""BrokerCore: the protocol engine, exercised without any sockets.

Everything here drives connect / handle_frame / disconnect directly
with an injected clock and an in-memory recorder, asserting on
outbound frames, durable state, trace events, and registry counters.
"""

import base64
import hashlib
import json

import pytest

from repro.faults.spec import FaultSpec
from repro.obs.recorder import TraceRecorder
from repro.pubsub import wire
from repro.pubsub.messages import Message
from repro.pubsub.wire import (
    FilterRequest,
    Hello,
    InterestAnnouncement,
    MessageBundle,
    RelayFilter,
    Subscribe,
    encode_frame,
)
from repro.core.tcbf import TemporalCountingBloomFilter
from repro.serve.dispatcher import BrokerCore, ProtocolError
from repro.serve.session import BROKER_NODE_ID
from repro.serve.spec import ServeSpec


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_core(spec=None, recorder=None, clock=None):
    return BrokerCore(
        spec or ServeSpec(),
        recorder=recorder if recorder is not None else TraceRecorder(),
        clock=clock or Clock(),
    )


def connect_node(core, session_id, node_id):
    core.connect(session_id, f"127.0.0.1:{40000 + session_id}")
    return core.handle_frame(
        session_id, Hello(node_id=node_id, is_broker=False, degree=0, time=0.0)
    )


def publish(core, session_id, keys, payload=b"x", **kwargs):
    message = Message.create(
        keys=frozenset(keys), source=kwargs.pop("source", 0) or 99,
        created_at=kwargs.pop("created_at", 0.0),
        ttl_s=kwargs.pop("ttl_s", 600.0), size_bytes=len(payload),
    )
    return core.handle_frame(session_id, MessageBundle((message,), (payload,)))


class TestSessionLifecycle:
    def test_hello_identifies_and_gets_broker_hello(self):
        core = make_core()
        result = connect_node(core, 1, 5)
        (target, reply), = result.outbound
        assert target == 1
        assert reply == Hello(node_id=BROKER_NODE_ID, is_broker=True,
                              degree=1, time=0.0)
        assert core.sessions[1].ctx.node_id == 5

    def test_frames_before_hello_are_protocol_errors(self):
        core = make_core()
        core.connect(1, "p")
        with pytest.raises(ProtocolError, match="Hello"):
            core.handle_frame(1, Subscribe(("a",)))

    def test_node_id_zero_is_reserved_for_the_broker(self):
        core = make_core()
        core.connect(1, "p")
        with pytest.raises(ProtocolError, match="broker"):
            core.handle_frame(1, Hello(0, False, 0, 0.0))

    def test_rebinding_node_id_rejected(self):
        core = make_core()
        connect_node(core, 1, 5)
        with pytest.raises(ProtocolError, match="rebind"):
            core.handle_frame(1, Hello(6, False, 0, 0.0))

    def test_repeated_hello_is_keepalive(self):
        clock = Clock()
        core = make_core(clock=clock)
        connect_node(core, 1, 5)
        clock.now = 42.0
        core.handle_frame(1, Hello(5, False, 0, 0.0))
        assert core.sessions[1].ctx.hello_at == 42.0

    def test_reconnect_supersedes_stale_session(self):
        core = make_core()
        connect_node(core, 1, 5)
        result = connect_node(core, 2, 5)
        assert result.close == [(1, "superseded")]
        assert core.node_sessions[5] == 2

    def test_max_sessions_refuses_connections(self):
        core = make_core(spec=ServeSpec(max_sessions=1))
        core.connect(1, "a")
        with pytest.raises(ProtocolError, match="limit"):
            core.connect(2, "b")
        assert core.registry.counter("serve_sessions_refused_total").value == 1

    def test_disconnect_emits_contact_and_keeps_durable_state(self):
        clock = Clock()
        recorder = TraceRecorder()
        core = make_core(recorder=recorder, clock=clock)
        connect_node(core, 1, 5)
        core.handle_frame(1, Subscribe(("sports",)))
        clock.now = 7.5
        core.disconnect(1, reason="eof")
        (contact,) = recorder.events_of("contact")
        assert contact.fields["a"] == 5
        assert contact.fields["b"] == BROKER_NODE_ID
        assert contact.fields["duration"] == 7.5
        assert core.subscriptions[5] == frozenset({"sports"})
        assert 5 not in core.node_sessions


class TestSubscriptions:
    def test_subscribe_replaces_whole_key_set(self):
        core = make_core()
        connect_node(core, 1, 5)
        core.handle_frame(1, Subscribe(("a", "b")))
        core.handle_frame(1, Subscribe(("b", "c")))
        assert core.subscriptions[5] == frozenset({"b", "c"})
        assert 5 in core._key_index["c"]
        assert "a" not in core._key_index

    def test_subscribe_a_merges_into_broker_relay(self):
        recorder = TraceRecorder()
        core = make_core(recorder=recorder)
        connect_node(core, 1, 5)
        core.handle_frame(1, Subscribe(("sports",)))
        assert "sports" in core.broker_state.relay
        (merge,) = recorder.events_of("a_merge")
        assert merge.fields["src"] == 5
        assert merge.fields["num_keys"] == 1
        assert merge.fields["min_key_counter_after"] > 0

    def test_durable_resubscription_after_reconnect(self):
        core = make_core()
        connect_node(core, 1, 5)
        core.handle_frame(1, Subscribe(("sports",)))
        core.disconnect(1)
        # No deliveries while offline...
        connect_node(core, 2, 9)
        result = publish(core, 2, ["sports"], source=9)
        assert result.outbound == []
        # ...but the sub survives: reconnect and deliveries resume
        # without resubscribing.
        connect_node(core, 3, 5)
        result = publish(core, 2, ["sports"], source=9)
        assert [t for t, _ in result.outbound] == [3]


class TestPublishMatching:
    def test_exact_matching_routes_by_key_index(self):
        core = make_core()
        connect_node(core, 1, 1)
        connect_node(core, 2, 2)
        connect_node(core, 3, 3)
        core.handle_frame(1, Subscribe(("sports",)))
        core.handle_frame(2, Subscribe(("news",)))
        result = publish(core, 3, ["sports"], source=3)
        assert [t for t, _ in result.outbound] == [1]
        (_, bundle), = result.outbound
        assert isinstance(bundle, MessageBundle)
        assert bundle.payloads == (b"x",)

    def test_publisher_never_delivered_to_itself(self):
        core = make_core()
        connect_node(core, 1, 1)
        core.handle_frame(1, Subscribe(("sports",)))
        result = publish(core, 1, ["sports"], source=1)
        assert result.outbound == []

    def test_bloom_matching_uses_genuine_bloom(self):
        core = make_core(spec=ServeSpec(matching="bloom"))
        connect_node(core, 1, 1)
        connect_node(core, 2, 2)
        core.handle_frame(1, Subscribe(("sports",)))
        result = publish(core, 2, ["sports"], source=2)
        assert [t for t, _ in result.outbound] == [1]

    def test_trace_events_have_analyzer_field_names(self):
        recorder = TraceRecorder()
        core = make_core(recorder=recorder)
        connect_node(core, 1, 1)
        connect_node(core, 2, 2)
        core.handle_frame(1, Subscribe(("sports",)))
        publish(core, 2, ["sports"], source=2)
        (create,) = recorder.events_of("create")
        assert create.fields["num_intended"] == 1
        assert create.fields["node"] == 2
        (forward,) = recorder.events_of("forward")
        assert forward.fields["kind"] == "direct"
        assert (forward.fields["src"], forward.fields["dst"]) == (2, 1)
        (delivery,) = recorder.events_of("delivery")
        assert delivery.fields["intended"] is True
        assert delivery.fields["cause"] == "direct"

    def test_intended_counts_offline_durable_subscribers(self):
        core = make_core()
        connect_node(core, 1, 1)
        core.handle_frame(1, Subscribe(("sports",)))
        core.disconnect(1)
        connect_node(core, 2, 2)
        publish(core, 2, ["sports"], source=2)
        parity = core.parity_counters()
        assert parity["intended_pairs"] == 1
        assert parity["deliveries_total"] == 0


class TestContactLayerFrames:
    def test_interest_announcement_merges(self):
        core = make_core()
        connect_node(core, 1, 1)
        tcbf = TemporalCountingBloomFilter(
            family=core.family, initial_value=50.0, decay_factor=0.0
        )
        tcbf.insert("H1N1")
        core.handle_frame(1, InterestAnnouncement(tcbf))
        assert "H1N1" in core.broker_state.relay
        assert core.registry.counter("serve_a_merges_total").value == 1

    def test_relay_filter_m_merges(self):
        core = make_core()
        connect_node(core, 1, 1)
        tcbf = TemporalCountingBloomFilter(
            family=core.family, initial_value=50.0, decay_factor=0.0
        )
        tcbf.insert("NewMoon")
        core.handle_frame(1, RelayFilter(tcbf))
        assert "NewMoon" in core.broker_state.relay
        assert core.registry.counter("serve_m_merges_total").value == 1

    def test_filter_request_is_acknowledged(self):
        from repro.core.bloom import BloomFilter

        core = make_core()
        connect_node(core, 1, 1)
        probe = BloomFilter(family=core.family)
        probe.insert("sports")
        result = core.handle_frame(1, FilterRequest(probe))
        (target, reply), = result.outbound
        assert target == 1 and reply.is_broker


class TestFaultsAndShutdown:
    def test_inbound_faults_drop_deterministically(self):
        spec = ServeSpec(faults=FaultSpec(frame_loss=1.0, seed=3))
        recorder = TraceRecorder()
        core = make_core(spec=spec, recorder=recorder)
        connect_node(core, 1, 1)  # Hello passes: faults drop post-identify
        result = core.handle_frame(1, Subscribe(("sports",)))
        # frame_loss=1.0 drops every frame after accounting.
        assert result.outbound == [] and 1 not in core.subscriptions
        assert core.registry.counter("serve_faults_dropped_total").value >= 1
        assert recorder.events_of("frame_dropped")

    def test_shutdown_closes_sessions_and_emits_sim_end(self):
        clock = Clock()
        recorder = TraceRecorder()
        core = make_core(recorder=recorder, clock=clock)
        connect_node(core, 1, 1)
        connect_node(core, 2, 2)
        core.handle_frame(1, Subscribe(("sports",)))
        publish(core, 2, ["sports"], source=2)
        clock.now = 3.0
        summary = core.shutdown()
        assert core.sessions == {}
        (end,) = recorder.events_of("sim_end")
        assert end.fields["messages"] == 1
        assert end.fields["contacts"] == 2
        assert summary["delivery_ratio"] == 1.0
        with pytest.raises(ProtocolError, match="shutting down"):
            core.connect(9, "late")

    def test_decode_error_accounting(self):
        from repro.pubsub.wire import FrameError

        core = make_core()
        core.connect(1, "p")
        core.handle_decode_error(
            1, FrameError(0, 0xEE, "unknown_frame_type", "x")
        )
        assert core.registry.counter("serve_decode_errors_total").value == 1
        assert core.registry.counter(
            "serve_decode_error_unknown_frame_type_total"
        ).value == 1


def scripted_run(matching):
    """A fixed session script on a 2-worker core; returns registry
    snapshots before and after shutdown (minus the wall-clock latency
    histogram), the recorded events and every transport action, all
    JSON-able."""
    clock = Clock()
    recorder = TraceRecorder()
    spec = ServeSpec(matching=matching, num_bits=5, num_hashes=1,
                     df_per_min=1.0)
    core = BrokerCore(spec, recorder=recorder, clock=clock,
                      worker_index=0, num_workers=2)
    log = []

    def step(result):
        log.append([
            [[target, encode_frame(frame).hex()]
             for target, frame in result.outbound],
            result.close, result.peer_casts,
        ])

    def send(session_id, frame):
        clock.now += 0.25
        step(core.handle_frame(session_id, frame))

    def bundle(*items):
        messages = tuple(
            Message(msg_id, frozenset(keys), source, clock.now, 600.0, 3)
            for msg_id, keys, source in items
        )
        return MessageBundle(messages, tuple(b"p%02d" % m.id for m in messages))

    interests = {
        1: ("sports", "news"), 2: ("sports",), 3: ("weather",),
        4: ("news",), 5: ("music", "sports"), 6: (),
    }
    for node in interests:
        core.connect(node, f"peer:{node}")
        send(node, Hello(node, False, 0, 0.0))
    for node, keys in interests.items():
        if keys:
            send(node, Subscribe(keys))
    send(6, bundle((1, ["sports"], 6)))
    send(3, bundle((2, ["nobody"], 3)))  # no subscriber has this key
    core.disconnect(4)  # node 4 stays an intended subscriber, offline
    send(2, bundle((3, ["news"], 2), (4, ["sports", "weather"], 2)))
    send(2, Subscribe(("weather",)))  # re-subscribe
    send(3, bundle((5, ["weather"], 3)))
    core.connect(7, "peer:4-again")
    send(7, Hello(4, False, 0, 0.0))
    step(core.apply_peer_op({"op": "sub", "node": 9, "keys": ["news"]}))
    step(core.apply_peer_op({
        "op": "pub", "msg": 101, "publisher": 9, "keys": ["news"],
        "created_at": clock.now, "ttl_s": 600.0, "size_bytes": 3,
        "intended": [1, 4, 8],
        "payload": base64.b64encode(b"xyz").decode("ascii"),
    }))
    step(core.apply_peer_op({"op": "claim", "node": 5}))
    snapshots = [core.registry.to_dict()]
    clock.now += 1.0
    core.shutdown()  # reads, and so creates, every parity counter
    snapshots.append(core.registry.to_dict())
    for registry in snapshots:
        del registry["histograms"]["serve_publish_seconds"]
    return snapshots, recorder.to_jsonl(), log


def old_frame_name(frame_type):
    """The per-frame snake-case helper the counter name was once
    rebuilt with on every inbound frame."""
    return "".join(
        ("_" + ch.lower()) if ch.isupper() and i else ch.lower()
        for i, ch in enumerate(frame_type.__name__)
    )


#: sha256 of :func:`scripted_run`'s output, pinned with a bundle and
#: three counter bumps per recipient; one shared bundle and counters
#: moved by count per publish must reproduce it exactly.
SCRIPTED_DIGESTS = {
    "exact": "bcc91d90e223dd8de79c2bc2013db618a3b05290bea17ac29dead9de3baf2c07",
    "bloom": "40ff91989e7cbec21693feb859c9a28f6ec613ccddedb013379e4d555b7a1153",
}


class TestFanoutOutputs:
    @pytest.mark.parametrize("matching", sorted(SCRIPTED_DIGESTS))
    def test_scripted_registry_and_trace_digest(self, matching):
        snapshots, events, log = scripted_run(matching)
        counters = snapshots[0]["counters"]
        assert counters["serve_deliveries_intended_total"] > 0
        if matching == "bloom":
            assert counters["serve_deliveries_false_total"] > 0
        else:
            assert "serve_deliveries_false_total" not in counters
        blob = json.dumps([snapshots, events, log], sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == SCRIPTED_DIGESTS[matching]

    def test_fanout_shares_one_bundle_encoded_once(self, monkeypatch):
        core = make_core()
        subscribers = range(1, 9)
        for node in subscribers:
            connect_node(core, node, node)
            core.handle_frame(node, Subscribe(("sports",)))
        connect_node(core, 100, 100)
        result = publish(core, 100, ["sports"], source=100)
        assert [t for t, _ in result.outbound] == list(subscribers)
        bundles = {id(frame) for _, frame in result.outbound}
        assert len(bundles) == 1
        calls = []
        real = wire.encode_message

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(wire, "encode_message", counting)
        encoded = {encode_frame(frame) for _, frame in result.outbound}
        assert len(calls) == 1 and len(encoded) == 1

    def test_frame_counter_names_match_the_snake_case_helper(self):
        from repro.serve.dispatcher import _frame_counter

        core = make_core()
        assert core.dispatcher.frame_types
        for frame_type in core.dispatcher.frame_types:
            assert _frame_counter(frame_type) == (
                f"serve_frames_{old_frame_name(frame_type)}_total"
            )
