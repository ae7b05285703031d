"""The multi-process broker fleet: SO_REUSEPORT workers + supervisor.

``ServeSpec(workers=N)`` turns the single asyncio broker into a fleet:

* The supervisor (this module) spawns N worker processes.  Each binds
  the *same* TCP port with ``SO_REUSEPORT`` — the kernel shards
  accepted connections across the workers' listen sockets — and runs
  its own event loop + :class:`~repro.serve.dispatcher.BrokerCore`.
* Durable subscription state is shared through an on-disk
  :class:`~repro.serve.state_shard.StateShardStore` (hash-sharded,
  atomic per-node records) under ``spec.state_dir`` — a temporary
  directory the supervisor owns when none is configured.  Each
  worker's :class:`~repro.serve.broker.BrokerServer` opens the store
  and rebuilds its index before accepting traffic, exactly as a
  single broker does, so a reconnecting session keeps its
  subscriptions whichever worker it lands on.
* The workers gossip over a loopback mesh (newline-delimited JSON
  ops, one dialed link per ordered peer pair): durable subscriptions
  replicate to every worker, a ``Hello`` claims the node fleet-wide
  (cross-process latest-wins), and every publish is relayed so its
  fan-out spans sessions on all workers.  The intended-recipient set
  is stamped once, at the origin worker — per-worker parity counters
  sum to exactly what the analyzer reads off the merged trace.
* Each worker streams its own schema-v2 trace shard
  (``<trace_path>.wN``); on shutdown the supervisor merges them with
  :func:`repro.obs.recorder.merge_traces` into a single deterministic
  trace at ``spec.trace_path``.
* Supervision: a worker that dies is restarted (sessions reconnect
  and land on a survivor or the replacement, latest-wins).  The
  lifecycle around it is the single broker's:
  :func:`~repro.serve.broker.start_broker` starts a fleet for
  ``spec.workers > 1`` and :func:`~repro.serve.broker.run_broker`
  drains it on SIGTERM or SIGINT.
* Metrics: with ``spec.metrics_port`` set, each worker serves its own
  Prometheus endpoint on an ephemeral port (reported in the summary)
  and the supervisor serves the fleet-wide *aggregated* registry on
  ``spec.metrics_port`` through the broker's own HTTP responder
  (``GET /metrics`` sums worker snapshots on every scrape,
  ``GET /healthz`` reports per-worker liveness).

The control plane is one duplex pipe per worker carrying small
``(kind, payload)`` tuples: ``ready`` / ``peers`` / ``metrics`` /
``stop`` / ``summary``.  Everything data-plane stays on sockets.
"""

from __future__ import annotations

import asyncio
import functools
import json
import multiprocessing as mp
import os
import shutil
import signal
import tempfile
import time as _time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..obs.analyze import PARITY_KEYS
from ..obs.recorder import merge_traces
from ..obs.registry import MetricsRegistry
from .broker import BrokerServer, answer_http
from .eventloop import event_loop_name, install_event_loop_policy
from .spec import ServeSpec

__all__ = ["BrokerFleet", "sum_parity"]

#: Seconds a worker gets to report its drain summary before the
#: supervisor gives up and terminates it.
_DRAIN_TIMEOUT_S = 30.0
#: Seconds to wait for a worker's ready report at (re)start.
_READY_TIMEOUT_S = 30.0
#: Backoff between peer-mesh redial attempts, seconds.
_REDIAL_BACKOFF_S = 0.2
#: Stream buffer limit for inbound peer-mesh links.  A ``pub`` op
#: carries the origin-stamped intended node set, which at city scale
#: is hundreds of kilobytes of JSON on one line — far past asyncio's
#: default 64 KiB readline() limit, which would kill the link with a
#: LimitOverrunError mid-run.
_MESH_STREAM_LIMIT = 64 * 1024 * 1024


def sum_parity(parities: List[Dict[str, int]]) -> Dict[str, int]:
    """Sum per-worker parity counters into the fleet totals the merged
    trace's analyzer output must match exactly."""
    return {
        key: sum(p.get(key, 0) for p in parities) for key in PARITY_KEYS
    }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _PeerMesh:
    """Worker-to-worker op transport: one loopback listener, one
    dialed send-only link per peer, newline-delimited JSON.

    ``broadcast`` is synchronous (called from the broker's dispatch
    path) and only enqueues; per-peer sender tasks own the sockets and
    reconnect with backoff when a peer restarts on a new port.
    """

    def __init__(self, worker_index: int, host: str, on_op):
        self.worker_index = worker_index
        self.host = host
        self._on_op = on_op  # async callable(dict)
        self._server: Optional[asyncio.AbstractServer] = None
        self._queues: Dict[int, asyncio.Queue] = {}
        self._senders: Dict[int, asyncio.Task] = {}
        self._peer_ports: Dict[int, int] = {}
        self._closing = False

    async def listen(self) -> int:
        self._server = await asyncio.start_server(
            self._on_peer_connect, host=self.host, port=0,
            limit=_MESH_STREAM_LIMIT,
        )
        return self._server.sockets[0].getsockname()[1]

    def set_peers(self, mesh_ports: List[Optional[int]]) -> None:
        """(Re)wire the outbound links from an index-aligned port list
        (``None`` marks self and not-yet-started workers)."""
        for peer, port in enumerate(mesh_ports):
            if peer == self.worker_index or port is None:
                continue
            if self._peer_ports.get(peer) == port:
                continue
            self._peer_ports[peer] = port
            if peer not in self._queues:
                self._queues[peer] = asyncio.Queue()
            sender = self._senders.get(peer)
            if sender is not None:
                sender.cancel()
            self._senders[peer] = asyncio.ensure_future(
                self._sender_loop(peer)
            )

    def broadcast(self, op: dict) -> None:
        line = json.dumps(op, separators=(",", ":")) + "\n"
        for queue in self._queues.values():
            queue.put_nowait(line)

    async def _sender_loop(self, peer: int) -> None:
        queue = self._queues[peer]
        writer: Optional[asyncio.StreamWriter] = None
        pending: Optional[str] = None
        try:
            while not self._closing:
                if writer is None:
                    try:
                        _, writer = await asyncio.open_connection(
                            self.host, self._peer_ports[peer]
                        )
                    except OSError:
                        await asyncio.sleep(_REDIAL_BACKOFF_S)
                        continue
                if pending is None:
                    pending = await queue.get()
                try:
                    writer.write(pending.encode("utf-8"))
                    await writer.drain()
                    pending = None
                except (ConnectionError, OSError):
                    writer.close()
                    writer = None
        except asyncio.CancelledError:
            # Replaced after a peer restart: hand the in-flight op to
            # the successor sender rather than dropping it.
            if pending is not None:
                queue.put_nowait(pending)
            raise

    async def _on_peer_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                await self._on_op(json.loads(line))
        except (ConnectionError, ValueError):
            # ValueError covers both malformed JSON and a line
            # overrunning even the raised stream limit: drop the link
            # (the sender redials) instead of leaving an
            # unhandled-exception stack in the logs.
            pass
        except asyncio.CancelledError:
            # Loop shutdown cancels live inbound links; exit quietly so
            # the streams completion callback doesn't log the stack.
            pass
        finally:
            writer.close()

    async def close(self) -> None:
        self._closing = True
        for sender in self._senders.values():
            sender.cancel()
        if self._senders:
            await asyncio.gather(
                *self._senders.values(), return_exceptions=True
            )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


def _worker_main(worker_index: int, spec: ServeSpec, conn, origin: float):
    """Entry point of one fleet worker process (spawn target)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # supervisor drives drain
    install_event_loop_policy()
    try:
        asyncio.run(_worker_async(worker_index, spec, conn, origin))
    except (KeyboardInterrupt, EOFError, BrokenPipeError):
        pass


async def _worker_async(
    worker_index: int, spec: ServeSpec, conn, origin: float
) -> None:
    loop = asyncio.get_running_loop()
    # The mesh is built first; ops only arrive once the supervisor has
    # wired the peers, after this worker reported ready.
    mesh = _PeerMesh(
        worker_index, spec.host, lambda op: server.apply_peer_op(op)
    )
    server = BrokerServer(
        spec,
        registry=MetricsRegistry(),
        clock_origin=origin,
        worker_index=worker_index,
        num_workers=spec.workers,
        peer_send=mesh.broadcast,
    )
    mesh_port = await mesh.listen()
    # start() rebuilds the fleet-wide subscription index from the
    # shard store (spec.state_dir) before it accepts a connection.
    await server.start()

    inbox: asyncio.Queue = asyncio.Queue()

    def _pump_control() -> None:
        try:
            while conn.poll():
                inbox.put_nowait(conn.recv())
        except (EOFError, OSError):
            # Supervisor died: drain and exit rather than orphan.
            inbox.put_nowait(("stop", {}))
            loop.remove_reader(conn.fileno())

    loop.add_reader(conn.fileno(), _pump_control)
    conn.send((
        "ready",
        {
            "worker": worker_index,
            "pid": os.getpid(),
            "port": server.port,
            "mesh_port": mesh_port,
            "metrics_port": server.metrics_port,
            "restored": len(server.core.subscriptions),
            "event_loop": event_loop_name(),
        },
    ))

    while True:
        kind, payload = await inbox.get()
        if kind == "peers":
            mesh.set_peers(payload["mesh_ports"])
        elif kind == "metrics":
            conn.send(("metrics", server.metrics_snapshot().to_dict()))
        elif kind == "stop":
            break
    loop.remove_reader(conn.fileno())
    summary = await server.stop()
    await mesh.close()
    try:
        conn.send((
            "summary",
            {
                "worker": worker_index,
                "summary": summary,
                "metrics": server.metrics_snapshot().to_dict(),
            },
        ))
    except (BrokenPipeError, OSError):
        pass


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    """Supervisor-side handle on one worker process."""

    index: int
    proc: mp.process.BaseProcess
    conn: object
    ready: Optional[dict] = None
    result: Optional[dict] = None
    restarts: int = 0


class BrokerFleet:
    """Supervisor for an N-worker SO_REUSEPORT broker fleet.

    Drive it inside an event loop (tests, embedders)::

        fleet = await BrokerFleet(spec).start()
        ...  # clients connect to fleet.port
        summary = await fleet.stop()

    :func:`~repro.serve.broker.start_broker` and the blocking
    :func:`~repro.serve.broker.run_broker` (what ``bsub serve`` calls)
    build one for ``workers > 1``.  ``stop()`` drains every worker,
    merges the trace shards, and returns the aggregated summary.
    """

    def __init__(
        self, spec: ServeSpec, registry: Optional[MetricsRegistry] = None
    ):
        if spec.workers < 2:
            raise ValueError(
                "BrokerFleet needs workers >= 2; use BrokerServer for one"
            )
        self.spec = spec
        self.registry = registry
        self._ctx = mp.get_context("spawn")
        self._origin = _time.monotonic()
        self._workers: List[_Worker] = []
        self._owns_state_dir = spec.state_dir is None
        self._state_dir = (
            spec.state_dir
            if spec.state_dir is not None
            else tempfile.mkdtemp(prefix="bsub-fleet-state-")
        )
        self._port: Optional[int] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._inboxes: Dict[int, Dict[str, asyncio.Queue]] = {}
        self._stopping = False
        self._summary: Optional[dict] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "BrokerFleet":
        """Spawn the workers, wire the mesh, start aggregated metrics."""
        # Worker 0 resolves an ephemeral spec.port for everyone else.
        first = self._spawn(0, port=self.spec.port)
        self._workers.append(first)
        await self._await_ready(first)
        self._port = first.ready["port"]
        for index in range(1, self.spec.workers):
            self._workers.append(self._spawn(index, port=self._port))
        for worker in self._workers[1:]:
            await self._await_ready(worker)
        self._broadcast_peers()
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            self._watch_sentinel(loop, worker)
        if self.spec.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                functools.partial(
                    answer_http,
                    metrics_text=self._metrics_text,
                    healthz=self.healthz,
                ),
                host=self.spec.host,
                port=self.spec.metrics_port,
            )
        return self

    @property
    def port(self) -> int:
        """The shared SO_REUSEPORT broker port."""
        assert self._port is not None, "fleet not started"
        return self._port

    @property
    def metrics_port(self) -> Optional[int]:
        """The aggregated metrics port, if exposition is enabled."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]

    @property
    def worker_pids(self) -> List[int]:
        return [w.proc.pid for w in self._workers]

    @property
    def summary(self) -> Optional[dict]:
        return self._summary

    async def stop(self) -> dict:
        """Drain every worker, merge trace shards, aggregate. Idempotent."""
        if self._summary is not None:
            return self._summary
        self._stopping = True
        loop = asyncio.get_running_loop()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        for worker in self._workers:
            self._unwatch_sentinel(loop, worker)
            try:
                worker.conn.send(("stop", {}))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            summaries = self._inboxes[worker.index]["summary"]
            if not worker.proc.is_alive() and summaries.empty():
                # Died without draining (e.g. group-wide SIGKILL);
                # don't hold the whole drain for its timeout.
                worker.result = None
                self._detach(loop, worker)
                continue
            try:
                worker.result = await asyncio.wait_for(
                    summaries.get(), timeout=_DRAIN_TIMEOUT_S
                )
            except (asyncio.TimeoutError, EOFError):
                worker.result = None
            self._detach(loop, worker)
            await loop.run_in_executor(None, worker.proc.join, 5.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
        self._summary = self._aggregate()
        if self._owns_state_dir:
            shutil.rmtree(self._state_dir, ignore_errors=True)
        return self._summary

    # -- crash supervision --------------------------------------------------

    def _watch_sentinel(self, loop, worker: _Worker) -> None:
        loop.add_reader(
            worker.proc.sentinel, self._on_worker_exit, worker
        )

    def _unwatch_sentinel(self, loop, worker: _Worker) -> None:
        try:
            loop.remove_reader(worker.proc.sentinel)
        except (OSError, ValueError):
            pass

    def _on_worker_exit(self, worker: _Worker) -> None:
        """A worker died outside a drain: restart it in place."""
        loop = asyncio.get_running_loop()
        self._unwatch_sentinel(loop, worker)
        if self._stopping:
            return
        self._detach(loop, worker)
        replacement = self._spawn(worker.index, port=self._port)
        replacement.restarts = worker.restarts + 1
        self._workers[worker.index] = replacement

        async def _rewire() -> None:
            await self._await_ready(replacement)
            self._watch_sentinel(loop, replacement)
            self._broadcast_peers()

        asyncio.ensure_future(_rewire())

    def _detach(self, loop, worker: _Worker) -> None:
        try:
            loop.remove_reader(worker.conn.fileno())
        except (OSError, ValueError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass

    # -- worker plumbing ----------------------------------------------------

    def _worker_spec(self, index: int, port: int) -> ServeSpec:
        return replace(
            self.spec,
            port=port,
            state_dir=self._state_dir,
            # Workers expose their own metrics ephemerally; the
            # supervisor owns the aggregated spec.metrics_port.
            metrics_port=0 if self.spec.metrics_port is not None else None,
            trace_path=(
                f"{self.spec.trace_path}.w{index}"
                if self.spec.trace_path is not None
                else None
            ),
        )

    def _spawn(self, index: int, port: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                index,
                self._worker_spec(index, port),
                child_conn,
                self._origin,
            ),
            name=f"bsub-worker-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(index=index, proc=proc, conn=parent_conn)
        self._inboxes[index] = {
            kind: asyncio.Queue() for kind in ("ready", "metrics", "summary")
        }
        asyncio.get_running_loop().add_reader(
            parent_conn.fileno(), self._pump_worker, worker
        )
        return worker

    def _pump_worker(self, worker: _Worker) -> None:
        try:
            while worker.conn.poll():
                kind, payload = worker.conn.recv()
                queues = self._inboxes[worker.index]
                if kind in queues:
                    queues[kind].put_nowait(payload)
        except (EOFError, OSError):
            self._detach(asyncio.get_running_loop(), worker)

    async def _await_ready(self, worker: _Worker) -> None:
        worker.ready = await asyncio.wait_for(
            self._inboxes[worker.index]["ready"].get(),
            timeout=_READY_TIMEOUT_S,
        )

    def _broadcast_peers(self) -> None:
        mesh_ports: List[Optional[int]] = [
            w.ready["mesh_port"] if w.ready is not None else None
            for w in self._workers
        ]
        for worker in self._workers:
            try:
                worker.conn.send(("peers", {"mesh_ports": mesh_ports}))
            except (BrokenPipeError, OSError):
                pass

    # -- aggregated metrics -------------------------------------------------

    async def scrape_metrics(self) -> MetricsRegistry:
        """One aggregated snapshot: the sum of every live worker's
        registry (dead/unresponsive workers are skipped)."""
        merged = MetricsRegistry()
        for worker in self._workers:
            try:
                worker.conn.send(("metrics", {}))
                snapshot = await asyncio.wait_for(
                    self._inboxes[worker.index]["metrics"].get(), timeout=5.0
                )
            except (asyncio.TimeoutError, BrokenPipeError, OSError):
                continue
            merged.merge_snapshot(snapshot)
        return merged

    async def _metrics_text(self) -> str:
        return (await self.scrape_metrics()).to_prom()

    def healthz(self) -> dict:
        """Fleet liveness: per-worker alive/pid/restarts, overall status."""
        workers = [
            {
                "worker": w.index,
                "alive": w.proc.is_alive(),
                "pid": w.proc.pid,
                "restarts": w.restarts,
            }
            for w in self._workers
        ]
        all_alive = all(w["alive"] for w in workers)
        return {
            "status": (
                "stopping"
                if self._stopping
                else ("ok" if all_alive else "degraded")
            ),
            "workers": workers,
        }

    # -- aggregation --------------------------------------------------------

    def _aggregate(self) -> dict:
        results = [w.result for w in self._workers if w.result is not None]
        parity = sum_parity([r["summary"]["parity"] for r in results])
        if self.registry is not None:
            for result in results:
                self.registry.merge_snapshot(result["metrics"])
        merged_events = None
        if self.spec.trace_path is not None:
            shards = [
                f"{self.spec.trace_path}.w{w.index}"
                for w in self._workers
                if os.path.exists(f"{self.spec.trace_path}.w{w.index}")
            ]
            merged_events = merge_traces(shards, self.spec.trace_path)
        intended = parity["intended_pairs"]
        live_parity_ok = None
        if self.spec.live:
            live_parity_ok = bool(results) and all(
                r["summary"].get("live_parity_ok", False) for r in results
            )
        return {
            "workers": self.spec.workers,
            "live_parity_ok": live_parity_ok,
            "port": self._port,
            "event_loop": event_loop_name(),
            "end_time_s": max(
                (r["summary"]["end_time_s"] for r in results), default=0.0
            ),
            "sessions_served": sum(
                r["summary"]["sessions_served"] for r in results
            ),
            "messages": sum(r["summary"]["messages"] for r in results),
            "deliveries": parity["deliveries_total"],
            "delivery_ratio": (
                parity["deliveries_intended"] / intended if intended else 0.0
            ),
            "parity": parity,
            "restarts": sum(w.restarts for w in self._workers),
            "merged_trace_events": merged_events,
            "per_worker": [
                {
                    "worker": w.index,
                    "restarts": w.restarts,
                    "metrics_port": (
                        w.ready.get("metrics_port") if w.ready else None
                    ),
                    "summary": w.result["summary"] if w.result else None,
                }
                for w in self._workers
            ],
        }

