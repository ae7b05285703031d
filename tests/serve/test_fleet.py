"""Multi-worker fleet: core fleet hooks, parity, supervision, drain.

The process-level tests spawn real worker processes (multiprocessing
``spawn`` + SO_REUSEPORT), so they keep session counts and durations
small; the core-level tests exercise the same fleet semantics —
message-id striping, peer-op replication, cross-worker latest-wins —
entirely in-process on :class:`BrokerCore`.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.hashing import HashFamily
from repro.obs.analyze import PARITY_KEYS, analyze_trace
from repro.obs.recorder import TraceRecorder, read_trace_iter
from repro.pubsub.wire import (
    Hello,
    MessageBundle,
    StreamDecoder,
    Subscribe,
    encode_frame,
)
from repro.serve import (
    BrokerCore,
    BrokerFleet,
    LoadDriver,
    LoadSpec,
    ServeSpec,
    StateShardStore,
    sum_parity,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_core(worker_index=0, num_workers=1, state_store=None, spec=None):
    return BrokerCore(
        spec or ServeSpec(),
        recorder=TraceRecorder(),
        clock=Clock(),
        worker_index=worker_index,
        num_workers=num_workers,
        state_store=state_store,
    )


def connect_node(core, session_id, node_id):
    core.connect(session_id, f"127.0.0.1:{40000 + session_id}")
    return core.handle_frame(
        session_id, Hello(node_id=node_id, is_broker=False, degree=0, time=0.0)
    )


class TestMessageIdStriping:
    def test_worker_ids_stripe_without_collision(self):
        a = make_core(worker_index=0, num_workers=3)
        b = make_core(worker_index=1, num_workers=3)
        assert [a._next_msg_id() for _ in range(3)] == [0, 3, 6]
        assert [b._next_msg_id() for _ in range(3)] == [1, 4, 7]

    def test_single_worker_keeps_historical_sequence(self):
        core = make_core()
        assert [core._next_msg_id() for _ in range(4)] == [0, 1, 2, 3]

    def test_worker_index_must_be_in_range(self):
        with pytest.raises(ValueError):
            make_core(worker_index=2, num_workers=2)


class TestPeerReplication:
    def test_subscribe_casts_to_peers_and_persists(self, tmp_path):
        store = StateShardStore(str(tmp_path), num_shards=4)
        core = make_core(num_workers=2, state_store=store)
        connect_node(core, 1, 5)
        result = core.handle_frame(1, Subscribe(frozenset({"beta", "alpha"})))
        casts = [op for op in result.peer_casts if op["op"] == "sub"]
        assert casts == [{"op": "sub", "node": 5, "keys": ["alpha", "beta"]}]
        assert store.load(5).keys == ("alpha", "beta")

    def test_hello_casts_claim(self):
        core = make_core(num_workers=2)
        result = connect_node(core, 1, 5)
        assert {"op": "claim", "node": 5} in result.peer_casts

    def test_single_worker_never_casts(self):
        core = make_core()
        connect_node(core, 1, 5)
        result = core.handle_frame(1, Subscribe(frozenset({"k"})))
        assert result.peer_casts == []

    def test_peer_sub_counts_node_as_intended_not_delivered(self):
        # Worker B learns node 5's interests from a peer cast; node 5's
        # session lives elsewhere, so a local publish counts it as an
        # intended recipient but emits no local delivery.
        b = make_core(worker_index=1, num_workers=2)
        b.apply_peer_op({"op": "sub", "node": 5, "keys": ["k"]})
        connect_node(b, 1, 7)  # publisher, not subscribed
        from repro.pubsub.messages import Message

        message = Message.create(
            keys=frozenset({"k"}), source=7, created_at=0.0,
            ttl_s=600.0, size_bytes=1,
        )
        result = b.handle_frame(1, MessageBundle((message,), (b"x",)))
        assert result.outbound == []
        parity = b.parity_counters()
        assert parity["intended_pairs"] == 1
        assert parity["deliveries_total"] == 0

    def test_peer_claim_supersedes_local_session(self):
        core = make_core(num_workers=2)
        connect_node(core, 1, 5)
        result = core.apply_peer_op({"op": "claim", "node": 5})
        assert (1, "superseded") in result.close

    def test_peer_pub_delivers_to_local_intended_session(self):
        b = make_core(worker_index=1, num_workers=2)
        connect_node(b, 1, 3)
        b.handle_frame(1, Subscribe(frozenset({"k"})))
        import base64

        result = b.apply_peer_op({
            "op": "pub", "msg": 8, "publisher": 7, "keys": ["k"],
            "created_at": 0.0, "ttl_s": 600.0, "size_bytes": 2,
            "intended": [3],
            "payload": base64.b64encode(b"hi").decode("ascii"),
        })
        deliveries = [
            frame for _sid, frame in result.outbound
            if isinstance(frame, MessageBundle)
        ]
        assert len(deliveries) == 1
        assert deliveries[0].payloads == (b"hi",)
        parity = b.parity_counters()
        # The origin worker counted creation + intended; the delivering
        # worker counts only its own forwards/deliveries.
        assert parity["messages_created"] == 0
        assert parity["intended_pairs"] == 0
        assert parity["deliveries_total"] == 1
        assert parity["deliveries_intended"] == 1

    def test_unknown_peer_op_is_protocol_error(self):
        from repro.serve import ProtocolError

        core = make_core(num_workers=2)
        with pytest.raises(ProtocolError):
            core.apply_peer_op({"op": "warp", "node": 1})


class TestPeerMeshTransport:
    def test_oversized_op_survives_the_link(self):
        """A city-scale pub op (hundreds of KB of JSON on one line)
        must not kill the mesh link: asyncio's default 64 KiB readline
        limit would raise LimitOverrunError and drop the peer."""
        from repro.serve.supervisor import _PeerMesh

        async def main():
            received = asyncio.Queue()

            async def on_op(op):
                await received.put(op)

            async def ignore(_op):
                pass

            a = _PeerMesh(0, "127.0.0.1", ignore)
            b = _PeerMesh(1, "127.0.0.1", on_op)
            port_a = await a.listen()
            port_b = await b.listen()
            a.set_peers([None, port_b])
            b.set_peers([port_a, None])
            a.broadcast({"op": "pub", "intended": list(range(40_000))})
            op = await asyncio.wait_for(received.get(), timeout=10)
            await a.close()
            await b.close()
            return op

        op = asyncio.run(main())
        assert op["op"] == "pub"
        assert len(op["intended"]) == 40_000


class TestParitySummation:
    def test_sum_parity_adds_counterwise(self):
        a = {key: 1 for key in PARITY_KEYS}
        b = {key: 2 for key in PARITY_KEYS}
        total = sum_parity([a, b])
        assert total == {key: 3 for key in PARITY_KEYS}
        assert sum_parity([]) == {key: 0 for key in PARITY_KEYS}


class FleetClient:
    """Minimal socket client against a running fleet."""

    def __init__(self, port, spec=None):
        spec = spec or ServeSpec()
        self.port = port
        self.decoder = StreamDecoder(
            HashFamily(num_hashes=spec.num_hashes, num_bits=spec.num_bits),
            spec.initial_value,
        )
        self.reader = None
        self.writer = None
        self._queued = []

    async def connect(self, node_id):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        await self.send(Hello(node_id, False, 0, 0.0))
        reply = await self.recv()
        assert reply.is_broker
        return self

    async def send(self, frame):
        self.writer.write(encode_frame(frame))
        await self.writer.drain()

    async def recv(self, timeout=5.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            if self._queued:
                return self._queued.pop(0)
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise TimeoutError("no frame within timeout")
            chunk = await asyncio.wait_for(
                self.reader.read(4096), timeout=remaining
            )
            if not chunk:
                raise ConnectionError("broker closed the stream")
            self._queued.extend(self.decoder.feed(chunk).frames)

    async def drain_deliveries(self, window_s=1.0):
        """All MessageBundle frames arriving within *window_s*."""
        bundles = []
        loop = asyncio.get_running_loop()
        deadline = loop.time() + window_s
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return bundles
            try:
                frame = await self.recv(timeout=remaining)
            except (TimeoutError, asyncio.TimeoutError):
                return bundles
            if isinstance(frame, MessageBundle):
                bundles.append(frame)

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def publish_frame(msg_id_source, keys, payload=b"x"):
    from repro.pubsub.messages import Message

    message = Message.create(
        keys=frozenset(keys), source=msg_id_source, created_at=0.0,
        ttl_s=600.0, size_bytes=len(payload),
    )
    return MessageBundle((message,), (payload,))


class TestFleetEndToEnd:
    def test_merged_trace_matches_summed_parity(self, tmp_path):
        trace = tmp_path / "trace.jsonl"

        async def main():
            spec = ServeSpec(
                port=0, workers=2, trace_path=str(trace), idle_timeout_s=60.0
            )
            fleet = BrokerFleet(spec)
            await fleet.start()
            assert len(set(fleet.worker_pids)) == 2
            load = LoadSpec(
                port=fleet.port, sessions=30, publisher_fraction=0.25,
                duration_s=2.0, publish_rate_per_s=2.0,
                interests_per_node=2, seed=13,
            )
            report = await LoadDriver(load).run()
            assert report.sessions_connected == 30
            assert report.decode_errors == 0
            summary = await fleet.stop()
            return report, summary

        report, summary = asyncio.run(main())
        assert summary["workers"] == 2
        assert summary["restarts"] == 0
        per_worker_msgs = [
            w["summary"]["messages"] for w in summary["per_worker"]
        ]
        assert sum(per_worker_msgs) == report.messages_published

        analysis = analyze_trace(str(trace))
        got = {
            "messages_created": analysis.messages["created"],
            "intended_pairs": analysis.messages["intended_pairs"],
            "forwards_direct": analysis.forwards["direct"],
            "deliveries_total": analysis.deliveries["total"],
            "deliveries_intended": analysis.deliveries["intended"],
            "deliveries_false": analysis.deliveries["false"],
        }
        assert got == summary["parity"]
        assert report.deliveries_received == got["deliveries_total"]


class TestFleetSupervision:
    def test_killed_worker_restarts_and_sessions_reconnect(self, tmp_path):
        async def main():
            spec = ServeSpec(
                port=0, workers=2, idle_timeout_s=60.0,
                state_dir=str(tmp_path / "state"),
            )
            fleet = BrokerFleet(spec)
            await fleet.start()
            try:
                sub = await FleetClient(fleet.port, spec).connect(1)
                await sub.send(Subscribe(frozenset({"alpha"})))
                await asyncio.sleep(0.3)  # let the sub cast replicate
                pub = await FleetClient(fleet.port, spec).connect(2)
                await pub.send(publish_frame(2, {"alpha"}, b"one"))
                first = await sub.drain_deliveries(window_s=1.5)
                assert len(first) == 1

                victim = fleet.worker_pids[1]
                os.kill(victim, signal.SIGKILL)
                deadline = asyncio.get_running_loop().time() + 20.0
                while True:
                    pids = fleet.worker_pids
                    if len(pids) == 2 and pids[1] != victim:
                        break
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("worker was not restarted")
                    await asyncio.sleep(0.2)
                await asyncio.sleep(0.5)  # replacement finishes wiring

                # Both clients reconnect (their worker may have died);
                # the subscriber does NOT resubscribe — its interest
                # set must come back from the durable shard store.
                await sub.close()
                await pub.close()
                sub2 = await FleetClient(fleet.port, spec).connect(1)
                await asyncio.sleep(0.5)  # claim casts settle
                pub2 = await FleetClient(fleet.port, spec).connect(2)
                await pub2.send(publish_frame(2, {"alpha"}, b"two"))
                second = await sub2.drain_deliveries(window_s=2.0)
                assert len(second) == 1, (
                    f"expected exactly one delivery, got {len(second)}"
                )
                assert second[0].payloads == (b"two",)
                await sub2.close()
                await pub2.close()
            finally:
                summary = await fleet.stop()
            return summary

        summary = asyncio.run(main())
        assert summary["restarts"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigterm_drains_fleet_and_merges_trace(self, tmp_path, workers):
        trace = tmp_path / "trace.jsonl"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--spec", "port=0,idle_timeout_s=60",
                "--workers", str(workers),
                "--trace-out", str(trace),
                "--json",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=str(REPO_ROOT),
        )
        try:
            # Fleet workers write trace shards; one broker writes the
            # trace itself.  Either file appears once the broker exists.
            started = (
                [Path(f"{trace}.w{i}") for i in range(workers)]
                if workers > 1
                else [trace]
            )
            deadline = time.monotonic() + 30.0
            while not all(p.exists() for p in started):
                assert proc.poll() is None, "broker exited before startup"
                assert time.monotonic() < deadline, "broker never started"
                time.sleep(0.2)
            time.sleep(0.5)
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=45)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        summary = json.loads(stdout.decode().strip().splitlines()[-1])
        assert summary["workers"] == workers
        assert summary["parity"].keys() == set(PARITY_KEYS)
        events = list(read_trace_iter(str(trace)))
        assert events and events[-1].type == "sim_end"
        analysis = analyze_trace(str(trace))
        assert {
            "messages_created": analysis.messages["created"],
            "intended_pairs": analysis.messages["intended_pairs"],
            "forwards_direct": analysis.forwards["direct"],
            "deliveries_total": analysis.deliveries["total"],
            "deliveries_intended": analysis.deliveries["intended"],
            "deliveries_false": analysis.deliveries["false"],
        } == summary["parity"]
