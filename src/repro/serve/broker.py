"""The asyncio TCP broker daemon.

:class:`BrokerServer` owns everything transport: accepting sockets,
feeding each connection's bytes through a per-session
:class:`~repro.pubsub.wire.StreamDecoder`, enforcing the idle timeout,
writing outbound frames, and shutting down gracefully.  Every decoded
frame is handed to the transport-free :class:`~repro.serve.dispatcher.
BrokerCore`, which owns the pub-sub semantics — so this module contains
no protocol logic at all, only plumbing:

* **Partial reads are the normal case.**  A read may end mid-frame or
  carry several coalesced frames; the stream decoder buffers across
  reads and only ever yields whole frames.  EOF while the decoder is
  mid-frame is counted as a mid-frame disconnect (the peer died during
  a transfer).
* **Sends go out once per read.**  The frames of one read are handled
  in order, and what they send is written after the read (or before a
  forced close): one ``write()`` and one ``drain()`` per recipient, so
  a burst of publishes costs no more syscalls than a single one.
* **A hostile peer cannot crash a session loop.**  Oversized declared
  lengths, unknown type bytes, and malformed bodies all surface as a
  fatal decode error: the session is counted and closed, the broker
  keeps serving.
* **Keepalive / idle timeout.**  Any inbound byte counts as activity;
  a session silent for ``spec.idle_timeout_s`` is closed.  Clients with
  nothing to say send a repeated ``Hello``.
* **Durable state.**  With ``spec.state_dir`` set, every ``Subscribe``
  is persisted to a :class:`~repro.serve.state_shard.StateShardStore`
  and ``start()`` rebuilds the subscription index from it before the
  first connection is accepted, whatever the worker count.
* **Graceful shutdown.**  ``stop()`` stops accepting, closes every
  session (emitting its ``contact`` event), drains the session tasks,
  emits ``sim_end``, and flushes the trace sink — so the emitted trace
  is always complete and ``bsub analyze`` over it reproduces the live
  registry exactly.  The summary it returns carries the six parity
  counters (``parity``) and the worker count (``workers``), the same
  shape a fleet's summary has.
* **Live metrics.**  When ``spec.metrics_port`` is set,
  :func:`answer_http` routes ``GET /metrics`` to the registry's
  Prometheus text exposition and ``GET /healthz`` to a JSON liveness
  document; any other path is a 404 and anything but a well-formed GET
  a 400.  The fleet supervisor serves its aggregated scrape through
  the same responder.
* **Live observability.**  ``spec.live`` subscribes a
  :class:`~repro.obs.live.LiveTailer` to the trace recorder's
  in-process event bus: the ``/metrics`` exposition grows ``live_*``
  rolling series, and ``stop()`` cross-checks the tailer's running
  totals against the dispatcher's parity counters
  (``live_parity_ok`` in the summary).

Run one with :func:`run_broker` (blocking, CLI-facing; SIGTERM and
SIGINT drain it) or manage the lifecycle yourself with
``await start_broker(spec)`` and ``await broker.stop()`` — both pick a
:class:`BrokerServer` or, for ``spec.workers > 1``, a
:class:`~repro.serve.supervisor.BrokerFleet`.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import time as _time
from typing import Awaitable, Callable, Dict, List, Optional, Set

from ..obs.analyze import PARITY_KEYS
from ..obs.live import LiveTailer
from ..obs.recorder import NULL_RECORDER, TraceRecorder
from ..obs.registry import MetricsRegistry
from ..pubsub.wire import StreamDecoder, encode_frame
from .dispatcher import BrokerCore, ProtocolError
from .eventloop import install_event_loop_policy
from .spec import ServeSpec
from .state_shard import StateShardStore

__all__ = [
    "BrokerServer",
    "answer_http",
    "http_response",
    "parse_request_path",
    "run_broker",
    "start_broker",
]


def parse_request_path(head: bytes) -> Optional[str]:
    """The URL path of a well-formed HTTP GET request head, else None.

    Only the request line is inspected (``GET <path> HTTP/1.x``); a
    query string is stripped.  Anything else — another method, a
    mangled request line — returns ``None`` and the caller answers 400.
    """
    line, _, _ = head.partition(b"\r\n")
    parts = line.split()
    if len(parts) != 3 or parts[0] != b"GET":
        return None
    try:
        target = parts[1].decode("ascii")
    except UnicodeDecodeError:
        return None
    if not target.startswith("/"):
        return None
    return target.split("?", 1)[0]


def http_response(
    status: int,
    body: bytes,
    content_type: str = "text/plain; charset=utf-8",
) -> bytes:
    """A complete ``Connection: close`` HTTP/1.1 response."""
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
        status, "OK"
    )
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("ascii") + body

#: Socket read size, and so the send batch: whatever one read carries
#: goes out as one write per recipient.  Large enough that a
#: maximum-rate session rarely needs two syscalls per frame batch,
#: small enough to share fairly.
_READ_CHUNK = 1 << 16

#: Listen backlog.  The default (100) stalls mass connection ramps —
#: a fleet soak opens tens of thousands of sockets through one accept
#: queue — and a deeper backlog costs nothing when idle.
_LISTEN_BACKLOG = 4096


class BrokerServer:
    """One live broker: sockets in front, a :class:`BrokerCore` behind.

    Parameters
    ----------
    spec:
        The frozen :class:`~repro.serve.spec.ServeSpec`.  ``port`` (and
        ``metrics_port``) may be 0 to bind ephemerally; the bound ports
        are exposed as :attr:`port` / :attr:`metrics_port` after
        ``start()``.
    registry:
        Live metrics registry (created if omitted).
    recorder:
        Explicit trace recorder.  When omitted and ``spec.trace_path``
        is set, the broker opens that file and streams schema-v2 JSONL
        to it, closing it on ``stop()``.
    clock_origin:
        Monotonic instant that maps to broker time 0.  The fleet
        supervisor captures one origin and passes it to every worker
        (Linux ``CLOCK_MONOTONIC`` is system-wide), so all trace
        shards share a single timeline and the merged trace sorts
        correctly by ``t``.  Default: now.
    worker_index / num_workers:
        Fleet identity, forwarded to
        :class:`~repro.serve.dispatcher.BrokerCore`; ``num_workers > 1``
        also turns on ``SO_REUSEPORT`` on the listening socket.
    peer_send:
        Callback receiving each peer-cast op the core produces (the
        worker runtime broadcasts them over the fleet mesh); ``None``
        discards them (single-process).
    """

    def __init__(
        self,
        spec: ServeSpec,
        registry: Optional[MetricsRegistry] = None,
        recorder=None,
        clock_origin: Optional[float] = None,
        worker_index: int = 0,
        num_workers: int = 1,
        peer_send: Optional[Callable[[dict], None]] = None,
    ):
        self.spec = spec
        self.registry = registry if registry is not None else MetricsRegistry()
        self._trace_file = None
        if recorder is None:
            if spec.trace_path is not None:
                self._trace_file = open(spec.trace_path, "w")
                recorder = TraceRecorder(sink=self._trace_file)
            else:
                recorder = NULL_RECORDER
        self.recorder = recorder
        self.tailer: Optional[LiveTailer] = None
        if spec.live and isinstance(recorder, TraceRecorder):
            self.tailer = LiveTailer(registry=self.registry)
            recorder.subscribe(self.tailer.feed)
        origin = (
            clock_origin if clock_origin is not None else _time.monotonic()
        )
        # Store and broker share one registry, so shard-store health
        # counters (corrupt records seen during recovery) surface on the
        # same /metrics the broker serves.
        state_store = (
            StateShardStore(spec.state_dir, registry=self.registry)
            if spec.state_dir is not None
            else None
        )
        self.core = BrokerCore(
            spec,
            registry=self.registry,
            recorder=recorder,
            clock=lambda: _time.monotonic() - origin,
            worker_index=worker_index,
            num_workers=num_workers,
            state_store=state_store,
        )
        self._worker_index = worker_index
        self._num_workers = num_workers
        self._peer_send = peer_send
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._next_session = 1
        self._stopping = False
        self._summary: Optional[dict] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "BrokerServer":
        """Restore durable subscriptions, then bind the listening
        socket(s); returns self for chaining."""
        self.core.restore_all_subscriptions()
        self._server = await asyncio.start_server(
            self._on_client,
            host=self.spec.host,
            port=self.spec.port,
            backlog=_LISTEN_BACKLOG,
            # Fleet workers share one port; the kernel shards accepts.
            reuse_port=True if self._num_workers > 1 else None,
        )
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
        """The bound broker port (resolves ephemeral binds)."""
        assert self._server is not None, "broker not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> Optional[int]:
        """The bound metrics port, if a metrics endpoint is up."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]

    @property
    def summary(self) -> Optional[dict]:
        """The shutdown summary once ``stop()`` has run."""
        return self._summary

    async def stop(self) -> dict:
        """Graceful shutdown; idempotent.  Returns the run summary."""
        if self._summary is not None:
            return self._summary
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        # Nudge every live session loop to finish, then drain them so
        # each runs its disconnect accounting before sim_end.
        for writer in list(self._writers.values()):
            writer.close()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._summary = self.core.shutdown()
        self._summary["workers"] = self.spec.workers
        if self.tailer is not None:
            # The tailer saw every emitted event (sim_end included by
            # now); the analyzer's totals must equal the dispatcher's
            # own counters, which are a separate computation.
            live = self.tailer.parity_counters()
            dispatched = self.core.parity_counters()
            mismatches = [
                f"{key}: live {live[key]} != dispatcher {dispatched[key]}"
                for key in PARITY_KEYS
                if live[key] != dispatched[key]
            ]
            self._summary["live_parity_ok"] = not mismatches
            if mismatches:
                self._summary["live_parity_mismatches"] = mismatches
            self._summary["live"] = self.tailer.snapshot()
        if self._trace_file is not None:
            self._trace_file.close()
            self._trace_file = None
        return self._summary

    # -- client sessions ----------------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session_id = self._next_session
        self._next_session += 1
        peername = writer.get_extra_info("peername")
        peer = (
            f"{peername[0]}:{peername[1]}"
            if isinstance(peername, tuple) and len(peername) >= 2
            else str(peername)
        )
        try:
            self.core.connect(session_id, peer)
        except ProtocolError:
            writer.close()
            return
        self._writers[session_id] = writer
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        decoder = StreamDecoder(
            self.core.family,
            self.spec.initial_value,
            decay_factor=self.core._df_per_s,
            max_frame_bytes=self.spec.max_frame_bytes,
        )
        reason = "eof"
        try:
            reason = await self._session_loop(session_id, reader, decoder)
        except (ConnectionError, asyncio.IncompleteReadError):
            reason = "reset"
        except asyncio.CancelledError:
            reason = "shutdown" if self._stopping else "cancelled"
        finally:
            self._close_session(session_id, reason, decoder)

    async def _session_loop(
        self,
        session_id: int,
        reader: asyncio.StreamReader,
        decoder: StreamDecoder,
    ) -> str:
        """Read/decode/dispatch until the session ends; returns why.

        Each decoded frame goes to the core on its own, in order, but
        the sends it asks for wait in one pending map for the whole
        read, which is then flushed once: one ``write()`` and one
        ``drain()`` per recipient per read, not per frame.  A read that
        ends the session (a protocol error, or a fatal decode error
        after good frames) still flushes what its earlier frames sent.
        """
        pending: Dict[int, List[bytes]] = {}
        while True:
            try:
                chunk = await asyncio.wait_for(
                    reader.read(_READ_CHUNK), timeout=self.spec.idle_timeout_s
                )
            except asyncio.TimeoutError:
                self.registry.counter("serve_idle_timeouts_total").inc()
                return "idle_timeout"
            if not chunk:
                if not decoder.at_boundary:
                    self.registry.counter(
                        "serve_midframe_disconnects_total"
                    ).inc()
                    return "midframe_eof"
                return "eof"
            result = decoder.feed(chunk, time=self.core.clock())
            ended = None
            for frame in result.frames:
                try:
                    handled = self.core.handle_frame(session_id, frame)
                except ProtocolError:
                    self.registry.counter("serve_protocol_errors_total").inc()
                    ended = "protocol_error"
                    break
                await self._apply(handled, pending)
            await self._flush(pending)
            if ended is not None:
                return ended
            if result.error is not None:
                self.core.handle_decode_error(session_id, result.error)
                return "decode_error"

    async def _apply(
        self, handled, pending: Dict[int, List[bytes]]
    ) -> None:
        """Carry out a HandleResult: sends first, then forced closes.

        Sends are encoded into *pending* (target session -> encodings,
        in order) for the caller's next :meth:`_flush`; a forced close
        flushes first, so every send handled before it still reaches
        its target before the target is closed.  Peer casts go to the
        fleet mesh at once.
        """
        for target, frame in handled.outbound:
            pending.setdefault(target, []).append(encode_frame(frame))
        if handled.close:
            await self._flush(pending)
            for target, reason in handled.close:
                writer = self._writers.get(target)
                if writer is not None:
                    # The target's own session loop sees EOF and
                    # accounts the disconnect; superseded sessions must
                    # not keep the node's delivery route.
                    self.core.disconnect(target, reason=reason)
                    self._writers.pop(target, None)
                    writer.close()
        if handled.peer_casts and self._peer_send is not None:
            for op in handled.peer_casts:
                self._peer_send(op)

    async def _flush(self, pending: Dict[int, List[bytes]]) -> None:
        """Send and empty *pending*: per target session, one ``write()``
        of the joined encodings, then one ``drain()``.

        This is the broker's one send path.  A wide fan-out (one
        publish, hundreds of recipients) and a burst of publishes in
        one read both cost one write+drain per recipient, instead of a
        syscall pair per frame.  Every target is written to before any
        drain is awaited, so a target superseded while another one's
        drain waits already holds its frames (its close flushes them).
        ``serve_frames_out_total`` and ``serve_send_drops_total``
        (target gone or closing, or its drain finds the connection
        lost) still count frames, not writes.
        """
        written = []
        for target, encoded in pending.items():
            writer = self._writers.get(target)
            if writer is None or writer.is_closing():
                self.registry.counter("serve_send_drops_total").inc(len(encoded))
                continue
            writer.write(b"".join(encoded))
            written.append((writer, len(encoded)))
        pending.clear()
        for writer, frames in written:
            try:
                await writer.drain()
                self.registry.counter("serve_frames_out_total").inc(frames)
            except ConnectionError:
                self.registry.counter("serve_send_drops_total").inc(frames)

    async def apply_peer_op(self, op: dict) -> None:
        """Apply one fleet peer-cast and carry out its effects (the
        worker runtime calls this for every op received on the mesh)."""
        pending: Dict[int, List[bytes]] = {}
        await self._apply(self.core.apply_peer_op(op), pending)
        await self._flush(pending)

    def _close_session(
        self, session_id: int, reason: str, decoder: StreamDecoder
    ) -> None:
        writer = self._writers.pop(session_id, None)
        if writer is not None:
            writer.close()
        self.registry.counter("serve_bytes_in_total").inc(decoder.bytes_fed)
        self.core.disconnect(session_id, reason=reason)

    # -- metrics endpoint ---------------------------------------------------

    def metrics_snapshot(self) -> MetricsRegistry:
        """The registry, with the live tailer's window gauges refreshed
        (what ``/metrics`` serves and a fleet worker reports)."""
        if self.tailer is not None:
            self.tailer.refresh_registry()
        return self.registry

    async def _metrics_text(self) -> str:
        return self.metrics_snapshot().to_prom()

    def healthz(self) -> dict:
        """The liveness document served on ``GET /healthz``."""
        return {
            "status": "ok" if not self._stopping else "stopping",
            "sessions_open": self.registry.gauge("serve_sessions_open").value,
            "live": self.tailer is not None,
            "workers": [{"worker": self._worker_index, "alive": True}],
        }


async def answer_http(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    metrics_text: Callable[[], Awaitable[str]],
    healthz: Callable[[], dict],
) -> None:
    """Answer one HTTP GET on a metrics endpoint.

    ``GET /metrics`` serves ``await metrics_text()`` as the Prometheus
    text exposition, ``GET /healthz`` serves ``healthz()`` as JSON; any
    other path is a 404 and anything but a well-formed GET a 400.  Bind
    the two callables with :func:`functools.partial` to get an
    ``asyncio.start_server`` client callback.
    """
    try:
        # Read the request head; the body of a GET is empty.
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=5.0
        )
    except (
        asyncio.TimeoutError,
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
        ConnectionError,
    ):
        writer.close()
        return
    path = parse_request_path(head)
    if path is None:
        response = http_response(400, b"bad request\n")
    elif path == "/metrics":
        response = http_response(
            200,
            (await metrics_text()).encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )
    elif path == "/healthz":
        response = http_response(
            200,
            json.dumps(healthz(), sort_keys=True).encode("utf-8") + b"\n",
            content_type="application/json",
        )
    else:
        response = http_response(404, b"not found\n")
    try:
        writer.write(response)
        await writer.drain()
    except ConnectionError:
        pass
    writer.close()


async def start_broker(
    spec: ServeSpec, registry: Optional[MetricsRegistry] = None
):
    """Start the broker *spec* describes and return it.

    A started :class:`BrokerServer`, or for ``spec.workers > 1`` a
    started :class:`~repro.serve.supervisor.BrokerFleet`.  Both expose
    ``port``, ``metrics_port`` and ``stop()``, and ``stop()`` returns
    the same summary shape (``parity``, ``workers``, ...).  A fleet
    merges its workers' final registries into *registry* at stop; a
    single broker counts into it live.
    """
    if spec.workers > 1:
        from .supervisor import BrokerFleet

        broker = BrokerFleet(spec, registry=registry)
    else:
        broker = BrokerServer(spec, registry=registry)
    return await broker.start()


def run_broker(
    spec: ServeSpec,
    duration_s: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
) -> dict:
    """Blocking entry point: serve until *duration_s* or a signal.

    Starts the broker through :func:`start_broker` (one process, or a
    fleet for ``spec.workers > 1``) and returns its shutdown summary.
    SIGTERM and SIGINT (Ctrl-C) drain it gracefully, also during
    start-up; where signal handlers cannot be installed (a thread other
    than the main one) only *duration_s* ends the run.  This is what
    ``bsub serve`` calls; library code embedding a broker should use
    :func:`start_broker` inside its own event loop instead.
    """
    install_event_loop_policy()

    async def _main() -> dict:
        # Installed before start-up so an early signal still drains;
        # closing the loop removes them again.
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except (NotImplementedError, RuntimeError):
                pass  # not the main thread: only the duration ends the run
        broker = await start_broker(spec, registry)
        try:
            await asyncio.wait_for(stop_requested.wait(), duration_s)
        except asyncio.TimeoutError:
            pass
        return await broker.stop()

    return asyncio.run(_main())
