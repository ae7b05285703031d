"""BrokerServer over real sockets: framing, robustness, parity.

No pytest-asyncio in the toolchain, so each test is a plain sync
function driving its own event loop via ``asyncio.run`` — the broker
binds port 0 (ephemeral) and every client connects over loopback.
"""

import asyncio
import json
import struct

import pytest

from repro.obs.analyze import analyze_trace
from repro.pubsub.messages import Message
from repro.pubsub.wire import (
    Hello,
    MessageBundle,
    StreamDecoder,
    Subscribe,
    encode_frame,
)
from repro.serve import BrokerServer, LoadDriver, LoadSpec, ServeSpec


def make_server(**spec_kwargs):
    spec_kwargs.setdefault("port", 0)
    spec_kwargs.setdefault("idle_timeout_s", 30.0)
    return BrokerServer(ServeSpec(**spec_kwargs))


class Client:
    """Minimal test client: one socket + one stream decoder."""

    def __init__(self, server):
        self.server = server
        self.decoder = StreamDecoder(server.core.family, 50.0)
        self.reader = None
        self.writer = None
        self._queued = []

    async def connect(self, node_id=None):
        self.reader, self.writer = await asyncio.open_connection(
            self.server.spec.host, self.server.port
        )
        if node_id is not None:
            await self.send(Hello(node_id, False, 0, 0.0))
            reply = await self.recv()
            assert reply.is_broker
        return self

    async def send(self, frame):
        self.writer.write(encode_frame(frame))
        await self.writer.drain()

    async def send_raw(self, data):
        self.writer.write(data)
        await self.writer.drain()

    async def recv(self, timeout=5.0):
        """The next decoded frame (reads until one completes; frames a
        read completes beyond the first wait for the next call)."""
        while not self._queued:
            if self.decoder.fatal is not None:
                raise AssertionError(self.decoder.fatal)
            chunk = await asyncio.wait_for(
                self.reader.read(4096), timeout=timeout
            )
            assert chunk, "broker closed the connection"
            self._queued.extend(self.decoder.feed(chunk).frames)
        return self._queued.pop(0)

    async def expect_eof(self, timeout=5.0):
        while True:
            chunk = await asyncio.wait_for(
                self.reader.read(4096), timeout=timeout
            )
            if not chunk:
                return
            self.decoder.feed(chunk)

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(interval)


def bundle(keys, source, payload=b"hi"):
    message = Message.create(
        keys=frozenset(keys), source=source, created_at=0.0,
        ttl_s=600.0, size_bytes=len(payload),
    )
    return MessageBundle((message,), (payload,))


class TestWireOverSockets:
    def test_frame_split_across_tcp_segments(self):
        async def main():
            server = await make_server().start()
            try:
                client = await Client(server).connect()
                blob = encode_frame(Hello(7, False, 0, 0.0))
                # One byte per segment, with real socket round-trips.
                for i in range(len(blob)):
                    await client.send_raw(blob[i:i + 1])
                    await asyncio.sleep(0)
                reply = await client.recv()
                assert reply.is_broker
                await client.close()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_coalesced_frames_in_one_segment(self):
        async def main():
            server = await make_server().start()
            try:
                client = await Client(server).connect()
                blob = (
                    encode_frame(Hello(7, False, 0, 0.0))
                    + encode_frame(Subscribe(("sports",)))
                    + encode_frame(bundle(["sports"], source=7))
                )
                await client.send_raw(blob)
                reply = await client.recv()
                assert reply.is_broker
                await wait_until(
                    lambda: server.core.subscriptions.get(7) is not None
                )
                parity = server.core.parity_counters()
                assert parity["messages_created"] == 1
                await client.close()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_mid_frame_disconnect_is_counted_not_fatal(self):
        async def main():
            server = await make_server().start()
            try:
                client = await Client(server).connect(node_id=3)
                blob = encode_frame(Subscribe(("sports", "news")))
                await client.send_raw(blob[: len(blob) - 2])
                await client.close()
                await wait_until(
                    lambda: server.registry.counter(
                        "serve_midframe_disconnects_total"
                    ).value == 1
                )
                # The broker keeps serving new sessions afterwards.
                other = await Client(server).connect(node_id=4)
                await other.close()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_oversized_declared_length_never_crashes_session(self):
        async def main():
            server = await make_server(max_frame_bytes=1024).start()
            try:
                victim = await Client(server).connect(node_id=3)
                # A header lying about a 1 GiB body: the broker must
                # reject it up front and close only this session.
                await victim.send_raw(struct.pack("<BI", 0x14, 1 << 30))
                await victim.expect_eof()
                await victim.close()
                registry = server.registry
                assert registry.counter("serve_decode_errors_total").value == 1
                assert registry.counter(
                    "serve_decode_error_oversized_body_total"
                ).value == 1
                bystander = await Client(server).connect(node_id=4)
                await bystander.send(Hello(4, False, 0, 1.0))
                assert (await bystander.recv()).is_broker
                await bystander.close()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_garbage_type_byte_closes_only_that_session(self):
        async def main():
            server = await make_server().start()
            try:
                victim = await Client(server).connect(node_id=3)
                await victim.send_raw(b"\xee\x00\x00\x00\x00")
                await victim.expect_eof()
                await victim.close()
                assert server.registry.counter(
                    "serve_decode_error_unknown_frame_type_total"
                ).value == 1
            finally:
                await server.stop()

        asyncio.run(main())


class TestCoalescedSends:
    """Sends go out once per recipient per inbound read, not per frame,
    with each recipient's bytes and order unchanged."""

    def test_a_read_of_publishes_reaches_the_subscriber_in_fewer_writes(
        self, monkeypatch
    ):
        count = 200

        async def main():
            server = await make_server().start()
            try:
                sub = await Client(server).connect(node_id=1)
                await sub.send(Subscribe(("sports",)))
                await wait_until(lambda: 1 in server.core.subscriptions)
                writer = server._writers[server.core.node_sessions[1]]
                writes = []
                write = writer.write

                def counted(data):
                    writes.append(len(data))
                    write(data)

                monkeypatch.setattr(writer, "write", counted)
                pub = await Client(server).connect(node_id=2)
                await pub.send_raw(b"".join(
                    encode_frame(bundle(
                        ["sports"], source=2, payload=i.to_bytes(2, "big")
                    ))
                    for i in range(count)
                ))
                delivered = [await sub.recv() for _ in range(count)]
                assert [
                    int.from_bytes(frame.payloads[0], "big")
                    for frame in delivered
                ] == list(range(count))
                assert 1 <= len(writes) < count
                await sub.close()
                await pub.close()
            finally:
                await server.stop()

        asyncio.run(main())

    @pytest.mark.parametrize(
        "ending, counter",
        [
            # A second Hello with another node id: a protocol error.
            (encode_frame(Hello(8, False, 0, 0.0)),
             "serve_protocol_errors_total"),
            # An unknown type byte: a fatal decode error.
            (b"\xee\x00\x00\x00\x00", "serve_decode_errors_total"),
        ],
        ids=["protocol_error", "decode_error"],
    )
    def test_sends_of_a_read_that_ends_the_session_still_go_out(
        self, ending, counter
    ):
        async def main():
            server = await make_server().start()
            try:
                sub = await Client(server).connect(node_id=1)
                await sub.send(Subscribe(("sports",)))
                await wait_until(lambda: 1 in server.core.subscriptions)
                frames_out = server.registry.counter("serve_frames_out_total")
                before = frames_out.value
                pub = await Client(server).connect()
                await pub.send_raw(
                    encode_frame(Hello(7, False, 0, 0.0))
                    + encode_frame(bundle(["sports"], source=7, payload=b"x"))
                    + ending
                )
                delivered = await sub.recv()
                assert delivered.payloads == (b"x",)
                assert (await pub.recv()).is_broker
                await pub.expect_eof()
                assert server.registry.counter(counter).value == 1
                # The publisher's Hello reply and the subscriber's copy.
                assert frames_out.value == before + 2
                await pub.close()
                await sub.close()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_recipient_superseded_while_another_drains_still_gets_its_frames(
        self, monkeypatch
    ):
        """One recipient's drain waits (as above its high-water mark)
        and the other is superseded meanwhile: both were written to
        before any drain, so both clients decode the publish.  The
        superseded one's drain then finds its connection lost, so its
        frame counts as a send drop, not as a frame out."""

        async def main():
            server = await make_server().start()
            entered, release = asyncio.Event(), asyncio.Event()
            try:
                subs = {}
                for node in (1, 2):
                    subs[node] = await Client(server).connect(node_id=node)
                    await subs[node].send(Subscribe(("sports",)))
                await wait_until(lambda: len(server.core.subscriptions) == 2)
                first = []
                for node in (1, 2):
                    writer = server._writers[server.core.node_sessions[node]]

                    async def gated(node=node, drain=writer.drain):
                        if not first:
                            first.append(node)
                            entered.set()
                            await release.wait()
                        await drain()

                    monkeypatch.setattr(writer, "drain", gated)
                pub = await Client(server).connect(node_id=3)
                counter = server.registry.counter
                out = counter("serve_frames_out_total").value
                drops = counter("serve_send_drops_total").value
                await pub.send(bundle(["sports"], source=3, payload=b"goal"))
                await asyncio.wait_for(entered.wait(), timeout=5.0)
                slow, other = first[0], 3 - first[0]
                replacement = await Client(server).connect(node_id=other)
                assert (await subs[other].recv()).payloads == (b"goal",)
                await subs[other].expect_eof()
                release.set()
                assert (await subs[slow].recv()).payloads == (b"goal",)
                await wait_until(
                    lambda: counter("serve_send_drops_total").value > drops
                )
                assert counter("serve_send_drops_total").value == drops + 1
                # The slow recipient's copy and the replacement's Hello.
                assert counter("serve_frames_out_total").value == out + 2
                for client in (replacement, pub, *subs.values()):
                    await client.close()
            finally:
                release.set()
                await server.stop()

        asyncio.run(main())


class TestBrokerBehaviour:
    def test_publish_delivers_to_live_subscriber(self):
        async def main():
            server = await make_server().start()
            try:
                sub = await Client(server).connect(node_id=1)
                await sub.send(Subscribe(("sports",)))
                await wait_until(lambda: 1 in server.core.subscriptions)
                pub = await Client(server).connect(node_id=2)
                await pub.send(bundle(["sports"], source=2, payload=b"goal"))
                delivered = await sub.recv()
                assert isinstance(delivered, MessageBundle)
                assert delivered.payloads == (b"goal",)
                assert "sports" in delivered.messages[0].keys
                await sub.close()
                await pub.close()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_durable_subscription_survives_reconnect(self):
        async def main():
            server = await make_server().start()
            try:
                sub = await Client(server).connect(node_id=1)
                await sub.send(Subscribe(("sports",)))
                await wait_until(lambda: 1 in server.core.subscriptions)
                await sub.close()
                await wait_until(lambda: 1 not in server.core.node_sessions)
                # Reconnect with only a Hello — no resubscribe.
                sub2 = await Client(server).connect(node_id=1)
                pub = await Client(server).connect(node_id=2)
                await pub.send(bundle(["sports"], source=2))
                delivered = await sub2.recv()
                assert isinstance(delivered, MessageBundle)
                await sub2.close()
                await pub.close()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_durable_subscription_survives_restart(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def main():
            first = await make_server(state_dir=state_dir).start()
            try:
                sub = await Client(first).connect(node_id=1)
                await sub.send(Subscribe(("sports",)))
                await wait_until(lambda: 1 in first.core.subscriptions)
                await sub.close()
            finally:
                await first.stop()
            # A new broker on the same state_dir restores the record
            # before it accepts: a bare Hello, no resubscribe.
            second = await make_server(state_dir=state_dir).start()
            try:
                assert second.core.subscriptions == {1: frozenset({"sports"})}
                sub2 = await Client(second).connect(node_id=1)
                pub = await Client(second).connect(node_id=2)
                await pub.send(bundle(["sports"], source=2, payload=b"again"))
                delivered = await sub2.recv()
                assert isinstance(delivered, MessageBundle)
                assert delivered.payloads == (b"again",)
                await sub2.close()
                await pub.close()
            finally:
                await second.stop()

        asyncio.run(main())

    def test_idle_timeout_closes_silent_session(self):
        async def main():
            server = await make_server(idle_timeout_s=0.2).start()
            try:
                client = await Client(server).connect(node_id=1)
                await client.expect_eof(timeout=5.0)
                await client.close()
                assert server.registry.counter(
                    "serve_idle_timeouts_total"
                ).value == 1
            finally:
                await server.stop()

        asyncio.run(main())

    def test_graceful_shutdown_closes_clients(self):
        async def main():
            server = await make_server().start()
            client = await Client(server).connect(node_id=1)
            summary = await server.stop()
            assert summary["sessions_served"] == 1
            await client.expect_eof()
            await client.close()

        asyncio.run(main())

    def test_prometheus_scrape_is_nonempty(self):
        async def main():
            server = await make_server(metrics_port=0).start()
            try:
                client = await Client(server).connect(node_id=1)
                reader, writer = await asyncio.open_connection(
                    server.spec.host, server.metrics_port
                )
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                response = (await reader.read()).decode()
                writer.close()
                assert response.startswith("HTTP/1.1 200 OK")
                assert "text/plain" in response
                assert "serve_sessions_total 1" in response
                await client.close()
            finally:
                await server.stop()

        asyncio.run(main())


class TestObservabilityParity:
    def test_trace_analysis_matches_live_registry_exactly(self, tmp_path):
        """The acceptance criterion: offline == online, number for number."""
        trace_path = tmp_path / "broker_trace.jsonl"

        async def main():
            server = await BrokerServer(
                ServeSpec(port=0, trace_path=str(trace_path))
            ).start()
            driver = LoadDriver(
                LoadSpec(
                    port=server.port, sessions=30, publisher_fraction=0.3,
                    duration_s=2.0, publish_rate_per_s=3.0,
                    interests_per_node=2, seed=13,
                )
            )
            report = await driver.run()
            summary = await server.stop()
            return server, report, summary

        server, report, summary = asyncio.run(main())
        assert report.decode_errors == 0
        assert report.messages_published > 0
        analysis = analyze_trace(str(trace_path))
        parity = server.core.parity_counters()
        assert analysis.messages["created"] == parity["messages_created"]
        assert analysis.messages["intended_pairs"] == parity["intended_pairs"]
        assert analysis.forwards["direct"] == parity["forwards_direct"]
        assert analysis.deliveries["total"] == parity["deliveries_total"]
        assert analysis.deliveries["intended"] == parity["deliveries_intended"]
        assert analysis.deliveries["false"] == parity["deliveries_false"]
        assert analysis.deliveries["delivery_ratio"] == pytest.approx(
            summary["delivery_ratio"]
        )
        assert analysis.engine["messages"] == summary["messages"]
        # The client saw exactly what the broker sent.
        assert report.deliveries_received == parity["deliveries_total"]

    def test_trace_meta_is_schema_v2(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"

        async def main():
            server = await BrokerServer(
                ServeSpec(port=0, trace_path=str(trace_path))
            ).start()
            client = await Client(server).connect(node_id=1)
            await client.close()
            await server.stop()

        asyncio.run(main())
        meta = json.loads(trace_path.read_text().splitlines()[0])
        assert meta["type"] == "trace_meta"
        assert meta["schema"] == 2


class TestChaosLoad:
    def test_corrupted_frames_counted_never_crash(self):
        """Client-side corruption chaos: broker counts, keeps serving."""

        async def main():
            server = await make_server().start()
            from repro.faults.spec import FaultSpec

            driver = LoadDriver(
                LoadSpec(
                    port=server.port, sessions=12, publisher_fraction=0.5,
                    duration_s=1.5, publish_rate_per_s=4.0, seed=3,
                    faults=FaultSpec(corruption=0.5, truncation=0.2, seed=5),
                )
            )
            report = await driver.run()
            summary = await server.stop()
            return server, report, summary

        server, report, summary = asyncio.run(main())
        assert report.faults_injected > 0
        registry = server.registry
        chaos_seen = (
            registry.counter("serve_decode_errors_total").value
            + registry.counter("serve_midframe_disconnects_total").value
        )
        assert chaos_seen > 0
        # Clean frames still flowed end to end.
        assert summary["messages"] > 0


class TestBindHost:
    def test_sessions_bind_alternate_loopback_source(self):
        """bind_host=127.0.0.x gives a shard its own ephemeral-port space."""

        async def main():
            server = await make_server().start()
            driver = LoadDriver(
                LoadSpec(
                    port=server.port, sessions=5, publisher_fraction=0.5,
                    duration_s=1.0, publish_rate_per_s=4.0, seed=11,
                    bind_host="127.0.0.9",
                )
            )
            report = await driver.run()
            summary = await server.stop()
            return report, summary

        report, summary = asyncio.run(main())
        assert report.sessions_connected == 5
        assert report.connect_failures == 0
        assert report.decode_errors == 0
        assert summary["messages"] > 0
