"""The broker's protocol engine: frame dispatch over session state.

Everything here is transport-free and synchronous — the asyncio layer
(:mod:`repro.serve.broker`) owns sockets, buffering, and timeouts, and
funnels every decoded frame through :meth:`BrokerCore.handle_frame`.
That split keeps the entire pub-sub semantics unit-testable without a
single socket: tests drive ``connect`` / ``handle_frame`` /
``disconnect`` directly and assert on outbound frames, trace events,
and registry counters.

The :class:`Dispatcher` maps frame *types* to handler methods — the
session-dispatch table the wire format implies — and
:class:`BrokerCore` implements the handlers:

* ``Hello`` — identify the session (and, repeated, keep it alive);
  the broker answers with its own ``Hello``.
* ``Subscribe`` — replace the node's **durable** exact subscription
  set.  Durable means it survives disconnects: a reconnecting node is
  matched again the moment it says ``Hello``, without resubscribing.
  Under ``bloom`` matching each node also keeps the plain
  :class:`~repro.core.bloom.BloomFilter` of its keys (the genuine
  filter's wire projection), and the keys are A-merged into the
  broker's relay filter exactly like a Sec. V-C interest announcement.
* ``InterestAnnouncement`` / ``RelayFilter`` — the contact-layer
  filter frames, absorbed into the broker relay by A-/M-merge for
  paper-faithfulness (they do not create durable subscriptions —
  only exact ``Subscribe`` keys do).
* ``MessageBundle`` — a publish.  The broker computes the
  ground-truth intended-recipient set from the durable subscriptions,
  matches per the spec's ``matching`` mode, and fans the bundle out
  to every matched *connected* consumer.
* ``FilterRequest`` — counted and acknowledged with the broker's
  ``Hello`` (the session layer has no message store to pull from;
  the frame exists for contact-layer symmetry).

Every decision is emitted as a schema-v2 trace event with the exact
field names the offline analyzer consumes, and mirrored into
:class:`~repro.obs.registry.MetricsRegistry` counters — the source of
the online/offline parity guarantee checked by
``scripts/check_serve_parity.py``.
"""

from __future__ import annotations

import base64
import functools
import random
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.bloom import BloomFilter
from ..core.hashing import HashFamily
from ..core.tcbf import TemporalCountingBloomFilter
from ..obs.analyze import PARITY_KEYS
from ..obs.introspect import relay_max_counter
from ..obs.recorder import NULL_RECORDER
from ..obs.registry import MetricsRegistry
from ..pubsub.messages import Message
from ..pubsub.node import BsubNodeState
from ..pubsub.wire import (
    FilterRequest,
    Frame,
    FrameError,
    Hello,
    InterestAnnouncement,
    MessageBundle,
    RelayFilter,
    Subscribe,
)
from .session import BROKER_NODE_ID, SessionContext
from .spec import ServeSpec
from .state_shard import StateShardStore

__all__ = ["BrokerCore", "Dispatcher", "HandleResult", "ProtocolError"]

#: Fixed fan-out histogram edges (recipients per publish).
_FANOUT_EDGES = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 1000.0)
#: Fixed publish-processing latency edges, seconds.
_LATENCY_EDGES = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
)
#: The registry counter behind each :data:`~repro.obs.analyze.PARITY_KEYS`
#: total, in the same order.
_PARITY_COUNTERS = (
    "serve_messages_total",
    "serve_intended_pairs_total",
    "serve_forwards_direct_total",
    "serve_deliveries_total",
    "serve_deliveries_intended_total",
    "serve_deliveries_false_total",
)


class ProtocolError(Exception):
    """A session-fatal protocol violation (the session must be closed)."""


@dataclass
class HandleResult:
    """What one handled frame asks the transport layer to do."""

    #: (session_id, frame) pairs to encode and send.  Frames are
    #: immutable, so one frame object may be shared by several
    #: recipients; a ``MessageBundle`` caches its encoding, so a
    #: publish fanned out to N sessions is encoded once.
    outbound: List[Tuple[int, Frame]] = field(default_factory=list)
    #: (session_id, reason) sessions the core wants closed (e.g. a
    #: stale connection superseded by a reconnect).
    close: List[Tuple[int, str]] = field(default_factory=list)
    #: JSON-able ops to broadcast to the other fleet workers (empty in
    #: the single-process broker) — see :meth:`BrokerCore.apply_peer_op`
    #: for the vocabulary.
    peer_casts: List[Dict] = field(default_factory=list)


class Dispatcher:
    """Frame-type -> handler-method dispatch table.

    The table is explicit (not ``getattr`` string magic) so adding a
    frame type without wiring a handler is an import-time error, and
    tests can introspect exactly which frames a core accepts.
    """

    def __init__(self, core: "BrokerCore"):
        self._handlers: Dict[type, Callable] = {
            Hello: core.on_hello,
            Subscribe: core.on_subscribe,
            InterestAnnouncement: core.on_interest_announcement,
            RelayFilter: core.on_relay_filter,
            FilterRequest: core.on_filter_request,
            MessageBundle: core.on_publish,
        }

    @property
    def frame_types(self) -> Tuple[type, ...]:
        return tuple(self._handlers)

    def dispatch(
        self, session_id: int, frame: Frame, result: HandleResult
    ) -> None:
        handler = self._handlers.get(type(frame))
        if handler is None:
            raise ProtocolError(
                f"no handler for frame type {type(frame).__name__}"
            )
        handler(session_id, frame, result)


@dataclass
class _SessionState:
    """Mutable per-connection bookkeeping (transport side)."""

    ctx: SessionContext
    frames_in: int = 0
    publishes: int = 0
    deliveries_out: int = 0


class BrokerCore:
    """Session, subscription, and matching state for one broker.

    Parameters
    ----------
    spec:
        The frozen :class:`~repro.serve.spec.ServeSpec`.
    registry:
        Live metrics registry (created if omitted).
    recorder:
        Trace recorder; the default :data:`~repro.obs.recorder.NULL_RECORDER`
        disables event emission at the usual near-zero cost.
    clock:
        Returns broker-relative seconds (monotonic, starting near 0).
        Injectable so unit tests control time exactly.
    worker_index / num_workers:
        Fleet identity.  Message ids are striped
        (``worker_index + num_workers * local_count``) so every worker
        mints globally unique ids without coordination; the defaults
        (``0`` / ``1``) reproduce the single-process id sequence
        ``0, 1, 2, ...`` exactly.  ``num_workers > 1`` also turns on
        the peer-cast protocol (subscription replication, cross-worker
        claim, publish relay).
    state_store:
        Optional :class:`~repro.serve.state_shard.StateShardStore`;
        when set, ``Subscribe`` persists the key set and ``Hello``
        lazily restores a node's durable subscriptions that this
        process has never seen (a restarted worker's reconnects).
    """

    def __init__(
        self,
        spec: ServeSpec,
        registry: Optional[MetricsRegistry] = None,
        recorder=NULL_RECORDER,
        clock: Optional[Callable[[], float]] = None,
        worker_index: int = 0,
        num_workers: int = 1,
        state_store: Optional[StateShardStore] = None,
    ):
        self.spec = spec
        if not 0 <= worker_index < num_workers:
            raise ValueError(
                f"worker_index {worker_index} out of range for "
                f"{num_workers} workers"
            )
        self.worker_index = worker_index
        self.num_workers = num_workers
        self.state_store = state_store
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = recorder
        if clock is None:
            origin = _time.monotonic()
            clock = lambda: _time.monotonic() - origin  # noqa: E731
        self.clock = clock
        self.family = HashFamily(
            num_hashes=spec.num_hashes, num_bits=spec.num_bits
        )
        self._df_per_s = spec.df_per_min / 60.0
        # The broker's own protocol node: its relay filter absorbs
        # every announcement/subscription, honouring spec.filter_spec.
        self.broker_state = BsubNodeState(
            node_id=BROKER_NODE_ID,
            interests=frozenset(),
            family=self.family,
            initial_value=spec.initial_value,
            decay_factor=self._df_per_s,
            copy_limit=0,
            start_time=self.clock(),
            filter_spec=spec.filter_spec,
        )
        self.dispatcher = Dispatcher(self)
        # -- durable state (survives disconnects) --
        self.subscriptions: Dict[int, FrozenSet[str]] = {}
        self.node_blooms: Dict[int, BloomFilter] = {}
        self._key_index: Dict[str, Set[int]] = {}
        # -- connection state --
        self.sessions: Dict[int, _SessionState] = {}
        self.node_sessions: Dict[int, int] = {}
        self._published = 0
        self._sessions_closed = 0
        self._shut_down = False
        self._fault_rng = (
            random.Random(spec.faults.seed)
            if spec.faults is not None and spec.faults.channel_faults
            else None
        )
        self.registry.histogram("serve_fanout_recipients", _FANOUT_EDGES)
        self.registry.histogram("serve_publish_seconds", _LATENCY_EDGES)

    # -- small helpers ------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).inc(amount)

    def _advance_relay(self, now: float) -> None:
        if self._df_per_s > 0:
            self.broker_state.relay.advance(now)

    def _session(self, session_id: int) -> _SessionState:
        session = self.sessions.get(session_id)
        if session is None:
            raise ProtocolError(f"unknown session {session_id}")
        return session

    def _identified(self, session_id: int) -> _SessionState:
        session = self._session(session_id)
        if not session.ctx.identified:
            raise ProtocolError(
                "session must identify with Hello before other frames"
            )
        return session

    def _next_msg_id(self) -> int:
        """Globally unique message id, striped across the fleet.

        ``workers=1`` yields the historical ``0, 1, 2, ...`` sequence;
        an N-worker fleet interleaves (worker w mints ``w, w+N,
        w+2N, ...``) so ids never collide without any coordination.
        """
        index = self.worker_index + self.num_workers * self._published
        self._published += 1
        return index

    # -- connection lifecycle ----------------------------------------------

    def connect(self, session_id: int, peer: str) -> SessionContext:
        """Register an accepted connection; returns its fresh context.

        Raises :class:`ProtocolError` when ``max_sessions`` is reached
        (the transport layer closes the socket immediately).
        """
        if self._shut_down:
            raise ProtocolError("broker is shutting down")
        if (
            self.spec.max_sessions is not None
            and len(self.sessions) >= self.spec.max_sessions
        ):
            self._count("serve_sessions_refused_total")
            raise ProtocolError(
                f"session limit {self.spec.max_sessions} reached"
            )
        if session_id in self.sessions:
            raise ProtocolError(f"session id {session_id} already connected")
        ctx = SessionContext(
            session_id=session_id, peer=peer, connected_at=self.clock()
        )
        self.sessions[session_id] = _SessionState(ctx=ctx)
        self._count("serve_sessions_total")
        self.registry.gauge("serve_sessions_open").set(len(self.sessions))
        return ctx

    def disconnect(self, session_id: int, reason: str = "eof") -> None:
        """Drop a connection; durable subscription state survives.

        Emits the session's ``contact`` trace event (node <-> broker,
        duration = session lifetime) for identified sessions.
        """
        session = self.sessions.pop(session_id, None)
        if session is None:
            return
        now = self.clock()
        ctx = session.ctx
        if ctx.node_id is not None:
            if self.node_sessions.get(ctx.node_id) == session_id:
                del self.node_sessions[ctx.node_id]
            if self.recorder.enabled:
                self.recorder.emit(
                    "contact", t=now, a=ctx.node_id, b=BROKER_NODE_ID,
                    duration=now - ctx.connected_at,
                )
        self._sessions_closed += 1
        self._count("serve_sessions_closed_total")
        self._count(f"serve_close_{reason}_total")
        self.registry.gauge("serve_sessions_open").set(len(self.sessions))

    def handle_decode_error(
        self, session_id: int, error: FrameError
    ) -> None:
        """Account a session-fatal decode error (transport closes it)."""
        self._count("serve_decode_errors_total")
        self._count(f"serve_decode_error_{error.reason}_total")

    # -- frame entry point --------------------------------------------------

    def handle_frame(self, session_id: int, frame: Frame) -> HandleResult:
        """Dispatch one decoded inbound frame.

        Returns the transport actions (outbound frames, sessions to
        close).  Raises :class:`ProtocolError` for violations that must
        end *this* session; the transport layer counts and closes.
        """
        session = self._session(session_id)
        session.frames_in += 1
        self._count("serve_frames_total")
        self._count(_frame_counter(type(frame)))
        result = HandleResult()
        if self._fault_rng is not None and self._drop_by_fault(session):
            return result
        self.dispatcher.dispatch(session_id, frame, result)
        return result

    def _drop_by_fault(self, session: _SessionState) -> bool:
        """Apply the spec's inbound channel faults (loss / corruption)."""
        faults = self.spec.faults
        draw = self._fault_rng.random()
        if draw < faults.frame_loss:
            cause = "loss"
        elif draw < faults.frame_loss + faults.corruption:
            cause = "corruption"
        else:
            return False
        self._count("serve_faults_dropped_total")
        if self.recorder.enabled:
            self.recorder.emit(
                "frame_dropped", t=self.clock(),
                src=session.ctx.node_id or 0, dst=BROKER_NODE_ID,
                size=0.0, cause=cause,
            )
        return True

    # -- handlers -----------------------------------------------------------

    def on_hello(
        self, session_id: int, frame: Hello, result: HandleResult
    ) -> None:
        session = self._session(session_id)
        now = self.clock()
        try:
            session.ctx = session.ctx.with_hello(frame.node_id, now)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        stale = self.node_sessions.get(frame.node_id)
        if stale is not None and stale != session_id:
            # Latest wins: a reconnect supersedes a half-open session
            # (the old socket may be dead without a FIN ever arriving).
            result.close.append((stale, "superseded"))
        self.node_sessions[frame.node_id] = session_id
        if frame.node_id not in self.subscriptions:
            self._restore_subscription(frame.node_id)
        if self.num_workers > 1:
            # Cross-worker latest-wins: any peer holding an older
            # session for this node closes it on receipt.
            result.peer_casts.append({"op": "claim", "node": frame.node_id})
        self.registry.gauge("serve_nodes_known").set(len(self.subscriptions))
        result.outbound.append((
            session_id,
            Hello(
                node_id=BROKER_NODE_ID, is_broker=True,
                degree=len(self.sessions), time=now,
            ),
        ))

    def on_subscribe(
        self, session_id: int, frame: Subscribe, result: HandleResult
    ) -> None:
        session = self._identified(session_id)
        node_id = session.ctx.node_id
        now = self.clock()
        keys = frozenset(frame.keys)
        self._install_subscription(node_id, keys)
        self._absorb_keys(node_id, keys, now)
        self._count("serve_subscribes_total")
        if self.state_store is not None:
            self.state_store.save(node_id, keys, now)
        if self.num_workers > 1:
            # Replicate the durable subscription so every worker's
            # intended-recipient index covers the whole fleet.
            result.peer_casts.append(
                {"op": "sub", "node": node_id, "keys": sorted(keys)}
            )
        self.registry.gauge("serve_nodes_known").set(len(self.subscriptions))
        self.registry.gauge("serve_subscribed_keys").set(
            len(self._key_index)
        )

    def _install_subscription(
        self, node_id: int, keys: FrozenSet[str]
    ) -> None:
        """Replace a node's durable subscription set in the local
        index (shared by local ``Subscribe``, peer replication, and
        state-store restore — only the local path adds relay merges,
        counters, and persistence on top)."""
        old = self.subscriptions.get(node_id, frozenset())
        for key in old - keys:
            bucket = self._key_index.get(key)
            if bucket is not None:
                bucket.discard(node_id)
                if not bucket:
                    del self._key_index[key]
        for key in keys - old:
            self._key_index.setdefault(key, set()).add(node_id)
        self.subscriptions[node_id] = keys
        # The "bloom" matching mode queries each node's genuine filter
        # as a plain Bloom filter (see :meth:`_match`), the same bits a
        # simulated consumer's ``genuine_bloom`` sets.  Only that mode
        # reads it, so ``exact`` matching (the default) skips the build:
        # the mesh replays every subscription onto every worker.
        if self.spec.matching == "bloom":
            self.node_blooms[node_id] = BloomFilter.of(
                keys, family=self.family
            )

    def _restore_subscription(self, node_id: int) -> None:
        """Lazily restore a node's durable subscriptions from the
        shard store on ``Hello`` (a restarted worker meeting an old
        client).  No counters or relay merges: the original
        ``Subscribe`` already accounted for those."""
        if self.state_store is None:
            return
        record = self.state_store.load(node_id)
        if record is None:
            return
        self._install_subscription(node_id, frozenset(record.keys))
        self._count("serve_state_restores_total")

    def restore_all_subscriptions(self) -> int:
        """Rebuild the full subscription index from the shard store
        (worker startup after a crash).  Returns records restored."""
        if self.state_store is None:
            return 0
        restored = 0
        for record in self.state_store.load_all():
            self._install_subscription(
                record.node_id, frozenset(record.keys)
            )
            restored += 1
        if restored:
            self._count("serve_state_restores_total", restored)
            self.registry.gauge("serve_nodes_known").set(
                len(self.subscriptions)
            )
            self.registry.gauge("serve_subscribed_keys").set(
                len(self._key_index)
            )
        return restored

    def _absorb_keys(
        self, src: int, keys: FrozenSet[str], now: float
    ) -> None:
        """A-merge exact keys into the broker relay (Sec. V-C)."""
        if not keys:
            return
        self._advance_relay(now)
        relay = self.broker_state.relay
        max_before = relay_max_counter(relay) if self.recorder.enabled else 0.0
        announce = getattr(relay, "announce", None)
        if announce is not None:
            announce(keys)
        else:
            announcement = TemporalCountingBloomFilter(
                family=self.family,
                initial_value=self.spec.initial_value,
                decay_factor=0.0,
                time=now,
            )
            announcement.insert_batch(sorted(keys))
            relay.a_merge(announcement)
        self._count("serve_a_merges_total")
        if self.recorder.enabled:
            ordered = sorted(keys)
            minima = [float(relay.min_counter(k)) for k in ordered]
            self.recorder.emit(
                "a_merge", t=now, kind="consumer",
                node=BROKER_NODE_ID, src=src,
                num_keys=len(ordered),
                min_key_counter_after=min(minima) if minima else 0.0,
                max_before=max_before,
                max_after=relay_max_counter(relay),
            )

    def on_interest_announcement(
        self, session_id: int, frame: InterestAnnouncement,
        result: HandleResult,
    ) -> None:
        session = self._identified(session_id)
        now = self.clock()
        self._advance_relay(now)
        relay = self.broker_state.relay
        merge = getattr(relay, "a_merge", None)
        self._count("serve_a_merges_total")
        if merge is None:
            # Zoo relays without a TCBF merge operand (exact/countBF)
            # absorb only exact Subscribe keys; the announcement is
            # counted but cannot be merged.
            self._count("serve_unmergeable_announcements_total")
            return
        max_before = relay_max_counter(relay) if self.recorder.enabled else 0.0
        merge(frame.filter)
        if self.recorder.enabled:
            self.recorder.emit(
                "a_merge", t=now, kind="consumer",
                node=BROKER_NODE_ID, src=session.ctx.node_id,
                num_keys=0,
                min_key_counter_after=0.0,
                max_before=max_before,
                max_after=relay_max_counter(relay),
            )

    def on_relay_filter(
        self, session_id: int, frame: RelayFilter, result: HandleResult
    ) -> None:
        session = self._identified(session_id)
        now = self.clock()
        self._advance_relay(now)
        relay = self.broker_state.relay
        merge = getattr(relay, "m_merge", None)
        self._count("serve_m_merges_total")
        if merge is None:
            self._count("serve_unmergeable_announcements_total")
            return
        max_before = relay_max_counter(relay) if self.recorder.enabled else 0.0
        merge(frame.filter)
        if self.recorder.enabled:
            self.recorder.emit(
                "m_merge", t=now,
                node=BROKER_NODE_ID, peer=session.ctx.node_id,
                max_before=max_before,
                max_peer=relay_max_counter(frame.filter),
                max_after=relay_max_counter(relay),
            )

    def on_filter_request(
        self, session_id: int, frame: FilterRequest, result: HandleResult
    ) -> None:
        session = self._identified(session_id)
        now = self.clock()
        self._count("serve_filter_requests_total")
        result.outbound.append((
            session.ctx.session_id,
            Hello(
                node_id=BROKER_NODE_ID, is_broker=True,
                degree=len(self.sessions), time=now,
            ),
        ))

    def on_publish(
        self, session_id: int, frame: MessageBundle, result: HandleResult
    ) -> None:
        session = self._identified(session_id)
        publisher = session.ctx.node_id
        now = self.clock()
        self._advance_relay(now)
        started = _time.perf_counter()
        session.publishes += len(frame.messages)
        for message, payload in zip(frame.messages, frame.payloads):
            index = self._next_msg_id()
            intended = self._intended(message.keys, publisher)
            self._count("serve_messages_total")
            self._count("serve_intended_pairs_total", len(intended))
            if self.recorder.enabled:
                self.recorder.emit(
                    "create", t=now, msg=index, node=publisher,
                    size=float(message.size_bytes),
                    ttl=float(message.ttl_s),
                    num_intended=len(intended),
                )
            recipients = self._match(message.keys, publisher, intended)
            self._deliver(
                result, index, message, payload, publisher, intended,
                recipients, now,
            )
            if self.num_workers > 1:
                # Relay to the peers: the intended set is stamped at
                # the origin (it already spans the replicated index),
                # so each peer just delivers to its own live sessions
                # and the per-worker parity counters stay summable.
                result.peer_casts.append({
                    "op": "pub",
                    "msg": index,
                    "publisher": publisher,
                    "keys": sorted(message.keys),
                    "created_at": message.created_at,
                    "ttl_s": message.ttl_s,
                    "size_bytes": message.size_bytes,
                    "intended": sorted(intended),
                    "payload": base64.b64encode(payload).decode("ascii"),
                })
        self.registry.histogram("serve_publish_seconds").observe(
            _time.perf_counter() - started
        )

    def _deliver(
        self,
        result: HandleResult,
        index: int,
        message: Message,
        payload: bytes,
        publisher: int,
        intended: FrozenSet[int],
        recipients: List[int],
        now: float,
    ) -> None:
        """Fan one publish out to locally connected recipients —
        shared by the local publish path and the peer relay, so the
        counters and trace events are identical on both.  Every
        recipient gets the same bundle object; the delivery counters
        move once per publish, and only by non-zero amounts (a counter
        exists once something was counted on it)."""
        self.registry.histogram("serve_fanout_recipients").observe(
            float(len(recipients))
        )
        if not recipients:
            return
        bundle = MessageBundle((message,), (payload,))
        n_intended = 0
        for dst in recipients:
            dst_session = self.node_sessions[dst]
            self.sessions[dst_session].deliveries_out += 1
            is_intended = dst in intended
            n_intended += is_intended
            if self.recorder.enabled:
                self.recorder.emit(
                    "forward", t=now, kind="direct", msg=index,
                    src=publisher, dst=dst,
                    size=float(message.size_bytes),
                    match=self.spec.matching,
                )
                self.recorder.emit(
                    "delivery", t=now, msg=index, node=dst,
                    intended=is_intended, cause="direct",
                )
            result.outbound.append((dst_session, bundle))
        delivered = len(recipients)
        self._count("serve_forwards_direct_total", delivered)
        self._count("serve_deliveries_total", delivered)
        if n_intended:
            self._count("serve_deliveries_intended_total", n_intended)
        if delivered > n_intended:
            self._count("serve_deliveries_false_total", delivered - n_intended)

    # -- fleet peer protocol ------------------------------------------------

    def apply_peer_op(self, op: Dict) -> HandleResult:
        """Apply one op broadcast by another fleet worker.

        The vocabulary (all JSON-able dicts, produced in
        ``HandleResult.peer_casts``):

        * ``{"op": "sub", "node": n, "keys": [...]}`` — replicate a
          durable subscription into the local index (no counters or
          relay merges: the origin worker accounted for those).
        * ``{"op": "claim", "node": n}`` — the sender now owns node
          ``n``'s session; close any stale local one (latest wins,
          across processes).
        * ``{"op": "pub", "msg": id, "publisher": p, "keys": [...],
          "created_at": t, "ttl_s": ttl, "size_bytes": b,
          "intended": [...], "payload": b64}`` — deliver a publish
          originated on another worker to locally connected
          recipients; the intended set is the origin's ground truth,
          so forwards/deliveries counted here sum cleanly with the
          origin's parity counters.
        """
        result = HandleResult()
        kind = op.get("op")
        if kind == "sub":
            self._install_subscription(
                int(op["node"]), frozenset(str(k) for k in op["keys"])
            )
            self._count("serve_peer_subs_total")
            self.registry.gauge("serve_nodes_known").set(
                len(self.subscriptions)
            )
            self.registry.gauge("serve_subscribed_keys").set(
                len(self._key_index)
            )
        elif kind == "claim":
            stale = self.node_sessions.get(int(op["node"]))
            if stale is not None:
                result.close.append((stale, "superseded"))
            self._count("serve_peer_claims_total")
        elif kind == "pub":
            self._apply_peer_publish(op, result)
        else:
            raise ProtocolError(f"unknown peer op {kind!r}")
        return result

    def _apply_peer_publish(self, op: Dict, result: HandleResult) -> None:
        """Deliver a relayed publish to this worker's sessions."""
        now = self.clock()
        message = Message(
            id=int(op["msg"]),
            keys=frozenset(str(k) for k in op["keys"]),
            source=int(op["publisher"]),
            created_at=float(op["created_at"]),
            ttl_s=float(op["ttl_s"]),
            size_bytes=int(op["size_bytes"]),
        )
        payload = base64.b64decode(op["payload"])
        intended = frozenset(int(n) for n in op["intended"])
        recipients = self._match(message.keys, message.source, intended)
        self._count("serve_peer_pubs_total")
        self._deliver(
            result, message.id, message, payload, message.source,
            intended, recipients, now,
        )

    # -- matching -----------------------------------------------------------

    def _intended(
        self, keys: FrozenSet[str], publisher: int
    ) -> FrozenSet[int]:
        """Ground-truth intended recipients (durable subs, any liveness)."""
        nodes: Set[int] = set()
        for key in keys:
            nodes |= self._key_index.get(key, set())
        nodes.discard(publisher)
        return frozenset(nodes)

    def _match(
        self,
        keys: FrozenSet[str],
        publisher: int,
        intended: FrozenSet[int],
    ) -> List[int]:
        """Connected consumers this publish is delivered to, sorted.

        ``exact``: the intended set filtered to live sessions — O(keys)
        via the key index, no false positives.  ``bloom``: every
        connected node's genuine Bloom filter is queried (the paper's
        Sec. V matching), so hash collisions can add false deliveries.
        """
        if self.spec.matching == "exact":
            return sorted(
                node for node in intended if node in self.node_sessions
            )
        matched = []
        for node, _sid in self.node_sessions.items():
            if node == publisher:
                continue
            bloom = self.node_blooms.get(node)
            if bloom is None:
                continue
            if any(key in bloom for key in keys):
                matched.append(node)
        return sorted(matched)

    # -- shutdown -----------------------------------------------------------

    def shutdown(self) -> Dict[str, object]:
        """Close out the run: final gauges, the ``sim_end`` event.

        The transport layer disconnects the remaining sessions *before*
        calling this, so the emitted trace ends cleanly.  Returns a
        small summary dict (CLI-facing), with the final
        :meth:`parity_counters` under ``parity``.
        """
        self._shut_down = True
        now = self.clock()
        for session_id in sorted(self.sessions):
            self.disconnect(session_id, reason="shutdown")
        counters = self.parity_counters()
        intended_pairs = counters["intended_pairs"]
        ratio = (
            counters["deliveries_intended"] / intended_pairs
            if intended_pairs
            else 0.0
        )
        self.registry.gauge("serve_delivery_ratio").set(ratio)
        self.registry.gauge("serve_end_time_s").set(now)
        if self.recorder.enabled:
            self.recorder.emit(
                "sim_end", t=now,
                contacts=self._sessions_closed,
                messages=self._published,
            )
        return {
            "end_time_s": now,
            "sessions_served": self._sessions_closed,
            "messages": self._published,
            "deliveries": counters["deliveries_total"],
            "delivery_ratio": ratio,
            "parity": counters,
        }

    # -- parity -------------------------------------------------------------

    def parity_counters(self) -> Dict[str, int]:
        """The live counters the offline analyzer must reproduce.

        ``bsub analyze`` over the broker's trace yields the same
        numbers under ``messages.created`` / ``messages.intended_pairs``
        / ``forwards.direct`` / ``deliveries.{total,intended,false}`` —
        asserted exactly by ``scripts/check_serve_parity.py`` and the
        socket test suite.
        """
        counter = self.registry.counter
        return {
            key: counter(name).value
            for key, name in zip(PARITY_KEYS, _PARITY_COUNTERS)
        }


@functools.lru_cache(maxsize=None)
def _frame_counter(frame_type: type) -> str:
    """The per-type inbound frame counter, built once per type
    (``MessageBundle`` -> ``serve_frames_message_bundle_total``)."""
    name = "".join(
        ("_" + ch.lower()) if ch.isupper() and i else ch.lower()
        for i, ch in enumerate(frame_type.__name__)
    )
    return f"serve_frames_{name}_total"
