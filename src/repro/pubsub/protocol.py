"""The B-SUB protocol (paper Sec. V).

One :class:`BsubProtocol` instance manages every node's state and
implements the full contact procedure:

1. **Identity exchange & election** — both endpoints learn each other's
   role and run the Sec. V-B broker-allocation rules.
2. **Interest propagation** (Sec. V-C) — any node meeting a broker
   uploads its genuine filter, which the broker **A-merges** into its
   relay filter (repeat meetings *reinforce* the counters); two brokers
   exchange relay filters and **M-merge** them (max counters prevent
   the Fig. 6 bogus-counter loop).
3. **Message forwarding** (Sec. V-D) —

   * *direct*: each endpoint sends its interests as a counter-stripped
     BF; the peer forwards matching buffered messages (false positives
     in this BF are exactly the falsely-delivered messages Fig. 9(d)
     measures);
   * *producer → broker*: the broker sends its relay filter stripped of
     counters; the producer replicates matching own messages, up to the
     copy limit ℂ, to distinct brokers;
   * *broker → broker*: carried messages are ranked by the
     **preferential query** against the peer's pre-merge relay filter
     and forwarded largest-positive-preference-first; forwarded
     messages leave the sender's buffer.

Every transmission — filters included — is charged to the contact's
bandwidth budget; what doesn't fit doesn't happen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.analysis import filter_memory_bytes
from ..core.filter_zoo import parse_filter_spec
from ..core.hashing import DEFAULT_SEED, HashFamily
from ..core.tcbf import DEFAULT_INITIAL_VALUE, TemporalCountingBloomFilter
from ..dtn.bandwidth import ContactChannel
from ..dtn.simulator import Protocol
from ..obs.introspect import relay_max_counter
from ..obs.recorder import NULL_RECORDER
from ..obs.registry import MetricsRegistry
from ..traces.model import Contact, ContactTrace
from .adaptive import AdaptiveDecayConfig, AdaptiveDecayController
from .broker_allocation import FIVE_HOURS_S, BrokerElection, StaticBrokerSet
from .exact import raw_interest_wire_bytes
from .messages import DEFAULT_COPY_LIMIT, Message
from .metrics import MetricsCollector
from .node import BsubNodeState

__all__ = ["BsubConfig", "BsubProtocol"]

#: Fixed per-filter wire header (format tag + geometry + counter scale).
_FILTER_HEADER_BYTES = 9.0


@dataclass(frozen=True)
class BsubConfig:
    """Tunable parameters of B-SUB (defaults = the paper's Sec. VII-A).

    Attributes
    ----------
    num_bits, num_hashes:
        Filter geometry (256 bits, 4 hashes).
    seed:
        Hash-family seed shared network-wide.
    initial_value:
        TCBF counter initial value ``C`` (50).
    decay_factor_per_min:
        DF, in counter units per *minute* (the paper's Fig. 9 axis
        unit).  0 disables decay.
    copy_limit:
        ℂ — max replicas a producer hands to brokers (3).
    election_lower, election_upper:
        ``T_l`` / ``T_u`` broker-election thresholds (3 and 5).
    election_window_s:
        ``W`` (5 hours).
    broker_broker_additive_merge:
        Ablation switch: use A-merge instead of M-merge between brokers
        to reproduce the Fig. 6 bogus-counter pathology.
    static_brokers:
        When set, disables the election and pins exactly these nodes as
        brokers for the whole run (tests and election ablations).
    relay_fill_threshold, relay_max_filters:
        When ``relay_fill_threshold`` is set, relays use the Sec. VI-D
        dynamic multi-TCBF allocation: a new filter is grown whenever
        the current one's fill ratio exceeds the threshold, up to
        ``relay_max_filters``.  Use :func:`repro.core.plan_allocation`
        to derive both from a memory bound.
    adaptive_df:
        When set, each broker runs the Sec. VI-B online DF-adjustment
        loop (:class:`~repro.pubsub.adaptive.AdaptiveDecayController`)
        seeded from ``decay_factor_per_min``.
    carried_capacity, eviction:
        Broker buffer bound and its policy (``"oldest"`` evicts the
        earliest-expiring carried message, ``"reject"`` refuses
        incoming); ``None`` capacity = unbounded, the paper's implicit
        setting.
    interest_encoding:
        ``"tcbf"`` (the paper's design) or ``"raw"`` — the Sec. IV-B
        ablation where interests travel as exact strings: zero false
        positives, but control traffic pays full raw-string sizes.
    filter_spec:
        A :mod:`repro.core.filter_zoo` spec string selecting the relay
        filter implementation (``"multi"``, ``"retouched:clear=3+17"``,
        ``"countbf:rows=16"``, ...).  ``None`` (default) keeps the
        paper's single array-backed TCBF relay byte-identical.
        Mutually exclusive with ``relay_fill_threshold`` (use
        ``"multi:..."``) and the ``"raw"`` interest encoding.
    """

    num_bits: int = 256
    num_hashes: int = 4
    seed: int = DEFAULT_SEED
    initial_value: float = DEFAULT_INITIAL_VALUE
    decay_factor_per_min: float = 0.0
    copy_limit: int = DEFAULT_COPY_LIMIT
    election_lower: int = 3
    election_upper: int = 5
    election_window_s: float = FIVE_HOURS_S
    broker_broker_additive_merge: bool = False
    static_brokers: Optional[Tuple[int, ...]] = None
    relay_fill_threshold: Optional[float] = None
    relay_max_filters: Optional[int] = None
    adaptive_df: Optional[AdaptiveDecayConfig] = None
    carried_capacity: Optional[int] = None
    eviction: str = "oldest"
    interest_encoding: str = "tcbf"
    filter_spec: Optional[str] = None

    def __post_init__(self):
        if self.decay_factor_per_min < 0:
            raise ValueError("decay_factor_per_min must be >= 0")
        if self.interest_encoding not in ("tcbf", "raw"):
            raise ValueError(
                f"interest_encoding must be 'tcbf' or 'raw', got "
                f"{self.interest_encoding!r}"
            )
        if self.filter_spec is not None:
            if self.interest_encoding == "raw":
                raise ValueError(
                    "filter_spec only applies to the TCBF encoding"
                )
            if self.relay_fill_threshold is not None:
                raise ValueError(
                    "filter_spec and relay_fill_threshold are mutually "
                    "exclusive relay selectors (use 'multi:threshold=...')"
                )
            parse_filter_spec(self.filter_spec)  # fail fast on bad specs

    @property
    def decay_factor_per_s(self) -> float:
        return self.decay_factor_per_min / 60.0


class BsubProtocol(Protocol):
    """B-SUB over a trace-driven DTN simulation."""

    name = "B-SUB"

    def __init__(
        self,
        interests: Dict[int, FrozenSet[str]],
        metrics: MetricsCollector,
        config: Optional[BsubConfig] = None,
        recorder=NULL_RECORDER,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.config = config or BsubConfig()
        self.interests = interests
        self.metrics = metrics
        self.recorder = recorder
        self.registry = registry
        self.family = HashFamily(
            self.config.num_hashes, self.config.num_bits, self.config.seed
        )
        self.states: Dict[int, BsubNodeState] = {}
        self.election: Optional[BrokerElection] = None
        self.df_controllers: Dict[int, AdaptiveDecayController] = {}
        # Always-on protocol-operation tallies (plain int increments on
        # contact-level operations; harvested into the registry at
        # finish()).  Kept outside the recorder so the metrics document
        # is identical whether or not event tracing ran.
        self.op_counts: Dict[str, int] = {
            "a_merge_broker": 0,
            "a_merge_consumer": 0,
            "decay_ticks": 0,
            "deliveries": 0,
            "forward_direct": 0,
            "forward_inject": 0,
            "forward_relay": 0,
            "m_merge": 0,
        }

    # -- engine hooks ------------------------------------------------------------

    def setup(self, trace: ContactTrace) -> None:
        """Build per-node state and the broker election for *trace*."""
        cfg = self.config
        start = trace.start_time
        self.states = {
            node: self._fresh_state(node, start) for node in trace.nodes
        }
        if cfg.adaptive_df is not None:
            self.df_controllers = {
                node: AdaptiveDecayController(
                    cfg.adaptive_df, initial_df_per_s=cfg.decay_factor_per_s
                )
                for node in trace.nodes
            }
        if cfg.static_brokers is not None:
            self.election = StaticBrokerSet(trace.nodes, cfg.static_brokers)
        else:
            self.election = BrokerElection(
                trace.nodes,
                lower_bound=cfg.election_lower,
                upper_bound=cfg.election_upper,
                window_s=cfg.election_window_s,
                recorder=self.recorder,
            )

    def _fresh_state(self, node: int, start_time: float) -> BsubNodeState:
        """A from-scratch state for *node*, as if it just booted."""
        cfg = self.config
        return BsubNodeState(
            node_id=node,
            interests=self.interests.get(node, frozenset()),
            family=self.family,
            initial_value=cfg.initial_value,
            decay_factor=cfg.decay_factor_per_s,
            copy_limit=cfg.copy_limit,
            start_time=start_time,
            relay_fill_threshold=cfg.relay_fill_threshold,
            relay_max_filters=cfg.relay_max_filters,
            carried_capacity=cfg.carried_capacity,
            eviction=cfg.eviction,
            interest_encoding=cfg.interest_encoding,
            filter_spec=cfg.filter_spec,
        )

    def on_message_created(self, node: int, message: Message, now: float) -> None:
        """A producer creates *message*: buffer it with a ℂ-copy budget."""
        self.metrics.register_message(message)
        self.states[node].produce(message)
        if self.recorder.enabled:
            self.recorder.emit(
                "create", t=now, msg=self.metrics.message_index(message),
                node=node, size=float(message.size_bytes),
                ttl=float(message.ttl_s),
                num_intended=self.metrics.num_intended_recipients(message),
            )

    def on_node_crashed(self, node: int, now: float, mode: str = "wipe") -> None:
        """Churn: *node* loses its volatile B-SUB state.

        Buffers (own + carried messages), receipt bookkeeping, copy
        budgets, and the broker role are always lost — they live in
        RAM.  Under ``mode="age"`` the relay filter survives (modelling
        filters checkpointed to flash) and simply keeps decaying
        through the outage via its lazy-decay clock; under ``"wipe"``
        it is lost too.  The genuine filter is rebuilt either way: a
        user's subscription list is durable configuration.

        Recovery needs no dedicated protocol machinery — re-announcing
        the genuine filter on the next broker contact (Sec. V-C) is the
        system's natural anti-entropy, which is exactly what the paper
        relies on for interest freshness.
        """
        state = self.states.get(node)
        if state is None:
            return
        old_relay = state.relay
        fresh = self._fresh_state(node, now)
        if mode == "age":
            fresh.relay = old_relay
        self.states[node] = fresh
        self.election.reset_node(node)
        if self.df_controllers:
            cfg = self.config
            self.df_controllers[node] = AdaptiveDecayController(
                cfg.adaptive_df, initial_df_per_s=cfg.decay_factor_per_s
            )

    def on_node_recovered(self, node: int, now: float) -> None:
        """Churn: *node* is back online.

        Nothing to do — the crash handler already left a bootable fresh
        state, and the election/interest layers re-converge through
        ordinary contacts.
        """

    def on_contact(
        self, contact: Contact, channel: ContactChannel, now: float
    ) -> None:
        """Run the full Sec. V contact procedure between the endpoints:
        election, interest propagation, and the three forwarding
        exchanges (see the module docstring for the walkthrough)."""
        a, b = contact.a, contact.b
        recorder = self.recorder
        self.election.on_contact(a, b, now)
        sa, sb = self.states[a], self.states[b]
        sa.purge_expired(now)
        sb.purge_expired(now)
        for state in (sa, sb):
            ticking = (
                state.relay.decay_factor > 0 and now > state.relay.time
            )
            if ticking:
                self.op_counts["decay_ticks"] += 1
                if recorder.enabled:
                    dt = now - state.relay.time
                    bits_before = len(state.relay)
                    state.relay.advance(now)
                    recorder.emit(
                        "decay_tick", t=now, node=state.node_id, dt=dt,
                        df=float(state.relay.decay_factor),
                        set_bits_before=bits_before,
                        set_bits_after=len(state.relay),
                    )
                    continue
            state.relay.advance(now)
        a_is_broker = self.election.is_broker(a)
        b_is_broker = self.election.is_broker(b)

        # Sec. VI-B: brokers re-tune their DF from the observed FPR.
        if self.df_controllers:
            if a_is_broker:
                self.df_controllers[a].observe(sa.relay, now)
            if b_is_broker:
                self.df_controllers[b].observe(sb.relay, now)

        # Snapshot relay filters: all matching/preference decisions in
        # this contact use pre-merge state (Sec. V-D: brokers "make
        # message forwarding decisions before merging").
        relay_snap_a = sa.relay.copy() if a_is_broker else None
        relay_snap_b = sb.relay.copy() if b_is_broker else None

        # -- control plane: interest filters ---------------------------------
        # Genuine filters travel whenever the peer needs them: as a
        # counter-carrying TCBF towards a broker (serves both the
        # A-merge and delivery matching), as a stripped BF otherwise.
        genuine_a_arrives = self._send_genuine(
            sa, towards_broker=b_is_broker, channel=channel, receiver=b
        )
        genuine_b_arrives = self._send_genuine(
            sb, towards_broker=a_is_broker, channel=channel, receiver=a
        )
        if genuine_a_arrives and b_is_broker:
            self._absorb_interests(sb, sa, now)
        if genuine_b_arrives and a_is_broker:
            self._absorb_interests(sa, sb, now)

        # Relay filters: full (with counters) between brokers, stripped
        # towards producers for the pull-by-filter request.
        relay_a_arrives = relay_b_arrives = False
        if a_is_broker:
            relay_a_arrives = channel.send(
                self._relay_wire_bytes(sa, full=b_is_broker), sender=a, receiver=b
            )
        if b_is_broker:
            relay_b_arrives = channel.send(
                self._relay_wire_bytes(sb, full=a_is_broker), sender=b, receiver=a
            )

        # -- data plane --------------------------------------------------------
        # 1. Direct delivery both ways (producer/broker -> consumer).
        if genuine_b_arrives:
            self._deliver_matching(sa, sb, channel, now)
        if genuine_a_arrives:
            self._deliver_matching(sb, sa, channel, now)

        # 2. Producer -> broker replication (the ℂ-copy relay path).
        if b_is_broker and relay_b_arrives:
            self._replicate_to_broker(sa, sb, relay_snap_b, channel, now)
        if a_is_broker and relay_a_arrives:
            self._replicate_to_broker(sb, sa, relay_snap_a, channel, now)

        # 3. Broker <-> broker preferential forwarding, then merge.
        if a_is_broker and b_is_broker:
            if relay_a_arrives:
                self._forward_broker_to_broker(
                    sb, sa, relay_snap_a, relay_snap_b, channel, now
                )
            if relay_b_arrives:
                self._forward_broker_to_broker(
                    sa, sb, relay_snap_b, relay_snap_a, channel, now
                )
            additive = self.config.broker_broker_additive_merge
            if relay_b_arrives:
                self._merge_relay(sa, b, relay_snap_b, additive, now)
            if relay_a_arrives:
                self._merge_relay(sb, a, relay_snap_a, additive, now)

    def finish(self, now: float) -> None:
        """Harvest end-of-run state into the metrics registry (if any).

        Delivery/forwarding metrics were recorded online by the
        :class:`MetricsCollector`; this adds the protocol-internal view
        — operation tallies, election churn, and per-node buffer/filter
        distributions — none of which changes behaviour.
        """
        registry = self.registry
        if registry is None:
            return
        for name in sorted(self.op_counts):
            registry.counter(f"bsub_{name}_total").inc(self.op_counts[name])
        registry.counter("bsub_broker_promotions_total").inc(
            getattr(self.election, "promotions", 0)
        )
        registry.counter("bsub_broker_demotions_total").inc(
            getattr(self.election, "demotions", 0)
        )
        registry.gauge("bsub_broker_fraction").set(self.broker_fraction())
        registry.gauge("bsub_buffered_messages").set(self.buffered_message_count())
        fill = registry.histogram(
            "bsub_relay_fill_ratio",
            edges=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        )
        received = registry.histogram(
            "bsub_node_received_messages",
            edges=(0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0),
        )
        for node in sorted(self.states):
            stats = self.states[node].obs_stats()
            fill.observe(stats["relay_fill_ratio"])
            received.observe(stats["received"])
            for key in ("purged", "evictions", "rejected_carries"):
                registry.counter(f"bsub_{key}_total").inc(stats[key])

    # -- control-plane helpers ---------------------------------------------------

    def _send_genuine(
        self,
        sender: BsubNodeState,
        towards_broker: bool,
        channel: ContactChannel,
        receiver: Optional[int] = None,
    ) -> bool:
        """Charge the sender's genuine interests to the channel.

        TCBF encoding: a shared-counter filter towards brokers, a
        stripped BF otherwise.  Raw encoding: the exact key strings
        (the Sec. IV-B comparison point), with one counter byte per key
        towards brokers.
        """
        if not sender.interests:
            return False
        cache = sender.wire_cache
        cache_key = ("genuine", towards_broker)
        if self.config.interest_encoding == "raw":
            # Raw interests are immutable configuration — size is fixed.
            entry = cache.get(cache_key)
            if entry is not None:
                size = entry[2]
            else:
                size = 5.0 + raw_interest_wire_bytes(
                    sender.interests, with_counters=towards_broker
                )
                cache[cache_key] = (None, 0, size)
        else:
            genuine = sender.genuine
            version = genuine.version
            entry = cache.get(cache_key)
            if entry is not None and entry[0] is genuine and entry[1] == version:
                size = entry[2]
            else:
                set_bits = len(genuine)
                mode = "identical" if towards_broker else "none"
                size = _FILTER_HEADER_BYTES + filter_memory_bytes(
                    set_bits, self.config.num_bits, counters=mode
                )
                cache[cache_key] = (genuine, version, size)
        return channel.send(size, sender=sender.node_id, receiver=receiver)

    def _relay_wire_bytes(self, broker: BsubNodeState, full: bool) -> float:
        """Wire size of the broker's relay state (± counters).

        A Sec. VI-D multi-filter relay pays one frame header per
        constituent filter; a raw-string relay pays the exact key list.
        """
        relay = broker.relay
        if self.config.interest_encoding == "raw":
            return 5.0 + relay.wire_bytes(with_counters=full)
        version = getattr(relay, "version", None)
        if version is None:
            # TCBFCollection relays carry no aggregate version counter;
            # re-measure (the multi-filter ablation is not a hot path).
            num_frames = getattr(relay, "num_filters", 1)
            return num_frames * _FILTER_HEADER_BYTES + filter_memory_bytes(
                len(relay),
                self.config.num_bits,
                counters="full" if full else "none",
            )
        cache = broker.wire_cache
        cache_key = ("relay", full)
        entry = cache.get(cache_key)
        if entry is not None and entry[0] is relay and entry[1] == version:
            return entry[2]
        wire = getattr(relay, "wire_bytes", None)
        if wire is not None:
            # Zoo relays with their own geometry (countBF grids)
            # account their exact Sec. VI-C compact size themselves.
            size = _FILTER_HEADER_BYTES + wire(with_counters=full)
        else:
            size = _FILTER_HEADER_BYTES + filter_memory_bytes(
                len(relay),
                self.config.num_bits,
                counters="full" if full else "none",
            )
        cache[cache_key] = (relay, version, size)
        return size

    def _absorb_interests(
        self, broker: BsubNodeState, consumer: BsubNodeState, now: float
    ) -> None:
        """A-merge the consumer's genuine filter into the broker's relay.

        Repeat meetings re-add the full initial value, which is exactly
        the reinforcement mechanism of Sec. V-C: "the more frequently a
        broker meets a consumer, the higher its counter's value of the
        consumer's interests".  The genuine filter is merged as sent:
        it never decays (DF 0) and its clock is never ahead of the
        relay's, so the merge adds exactly ``C`` at its bits.
        """
        recorder = self.recorder
        max_before = (
            relay_max_counter(broker.relay) if recorder.enabled else 0.0
        )
        self.op_counts["a_merge_consumer"] += 1
        announce = getattr(broker.relay, "announce", None)
        if announce is not None:
            # Duck-typed announcement hook: exact relays (raw encoding)
            # and non-TCBF zoo relays (countBF) absorb the interest keys
            # natively instead of via a TCBF merge operand.
            announce(consumer.interests)
        else:
            broker.relay.a_merge(consumer.genuine)
        if recorder.enabled:
            keys = sorted(consumer.interests)
            minima = [float(broker.relay.min_counter(k)) for k in keys]
            recorder.emit(
                "a_merge", t=now, kind="consumer",
                node=broker.node_id, src=consumer.node_id,
                num_keys=len(keys),
                min_key_counter_after=min(minima) if minima else 0.0,
                max_before=max_before,
                max_after=relay_max_counter(broker.relay),
            )

    def _merge_relay(
        self,
        broker: BsubNodeState,
        peer: int,
        peer_relay_snapshot: TemporalCountingBloomFilter,
        additive: bool,
        now: float,
    ) -> None:
        recorder = self.recorder
        max_before = (
            relay_max_counter(broker.relay) if recorder.enabled else 0.0
        )
        if additive:
            self.op_counts["a_merge_broker"] += 1
            broker.relay.a_merge(peer_relay_snapshot)
        else:
            self.op_counts["m_merge"] += 1
            broker.relay.m_merge(peer_relay_snapshot)
        if recorder.enabled:
            recorder.emit(
                "a_merge" if additive else "m_merge", t=now,
                node=broker.node_id, peer=peer,
                max_before=max_before,
                max_peer=relay_max_counter(peer_relay_snapshot),
                max_after=relay_max_counter(broker.relay),
                **({"kind": "broker"} if additive else {}),
            )

    # -- data-plane helpers ----------------------------------------------------------

    def _deliver_matching(
        self,
        holder: BsubNodeState,
        consumer: BsubNodeState,
        channel: ContactChannel,
        now: float,
    ) -> None:
        """Forward the holder's buffered messages that match the
        consumer's (received) genuine Bloom filter.

        The BF query is where false positives enter: a message whose
        keys merely collide with the consumer's interest bits is still
        transmitted — and counted by the metrics as a false delivery.
        Under the raw interest encoding the match is exact and the
        false-positive path disappears entirely.

        Direct delivery never removes anything from the holder's
        buffers, so it walks their live key indexes (own, then carried,
        keys in insertion order, ids ascending) rather than snapshots.
        """
        interests = consumer.interests
        if not interests:
            return
        if self.config.interest_encoding == "raw":
            match_kind = "exact"
            matches = interests.__contains__
        else:
            match_kind = "bloom"
            matches = consumer.genuine_matches.__getitem__
        received = consumer.received
        for buffer in (holder.own, holder.carried):
            for key, bucket in buffer.buckets():
                if not matches(key):
                    continue
                # ``has`` also skips ids the consumer buffers itself.
                for message_id in sorted(bucket - received):
                    if consumer.has(message_id):
                        continue
                    message = buffer.messages[message_id]
                    if not channel.send(
                        message.size_bytes,
                        sender=holder.node_id,
                        receiver=consumer.node_id,
                    ):
                        return
                    self.metrics.record_forwarding(message)
                    self.op_counts["forward_direct"] += 1
                    if self.recorder.enabled:
                        self.recorder.emit(
                            "forward", t=now, kind="direct", msg=self.metrics.message_index(message),
                            src=holder.node_id, dst=consumer.node_id,
                            size=float(message.size_bytes), match=match_kind,
                        )
                    consumer.mark_received(message.id)
                    if self.metrics.record_delivery(
                        message, consumer.node_id, now
                    ):
                        self.op_counts["deliveries"] += 1
                        if self.recorder.enabled:
                            self.recorder.emit(
                                "delivery", t=now, msg=self.metrics.message_index(message),
                                node=consumer.node_id,
                                intended=self.metrics.is_intended(
                                    message, consumer.node_id
                                ),
                                cause="direct",
                            )

    def _replicate_to_broker(
        self,
        producer: BsubNodeState,
        broker: BsubNodeState,
        relay_snapshot: TemporalCountingBloomFilter,
        channel: ContactChannel,
        now: float,
    ) -> None:
        """Push own messages matching the broker's relay filter (ℂ-limited)."""
        if not producer.own or relay_snapshot.is_empty():
            return
        own_keys = list(producer.own.keys())
        hits = relay_snapshot.query_batch(own_keys)
        matching_keys = [k for k, hit in zip(own_keys, hits) if hit]
        for key in matching_keys:
            for message_id in producer.own.ids_for(key):
                if broker.has(message_id):
                    continue
                if producer.copies_left.get(message_id, 0) <= 0:
                    continue
                if not broker.can_accept_carry(message_id):
                    continue  # the broker's buffer policy refuses it
                message = producer.own.messages.get(message_id)
                if message is None:
                    continue  # multi-key message already replicated under another key
                if not channel.send(
                    message.size_bytes,
                    sender=producer.node_id,
                    receiver=broker.node_id,
                ):
                    return
                self.metrics.record_forwarding(message)
                self.op_counts["forward_inject"] += 1
                is_false, is_useless = self.metrics.record_injection(message)
                if self.df_controllers:
                    # Attribution-mode Sec. VI-B loop: feed the broker's
                    # controller the live taxonomy bit for this
                    # injection (no-op in fill-ratio mode).
                    controller = self.df_controllers.get(broker.node_id)
                    if controller is not None:
                        controller.record_injection(
                            is_false or is_useless, now, broker.relay
                        )
                if self.recorder.enabled:
                    # Ground-truth provenance of the relay-filter match:
                    # "fp" — no node anywhere wants any key (a pure
                    # Bloom collision), "stale" — the key is genuinely
                    # in the filter but can never produce a delivery,
                    # "genuine" — intended recipients exist.
                    match = (
                        "fp" if is_false
                        else "stale" if is_useless
                        else "genuine"
                    )
                    self.recorder.emit(
                        "forward", t=now, kind="inject", msg=self.metrics.message_index(message),
                        src=producer.node_id, dst=broker.node_id,
                        size=float(message.size_bytes), match=match,
                    )
                    if is_false:
                        self.recorder.emit(
                            "false_injection", t=now, msg=self.metrics.message_index(message),
                            src=producer.node_id, dst=broker.node_id,
                        )
                broker.carry(message)
                producer.consume_copy(message.id)
                self._maybe_self_delivery(
                    broker, message, channel_time=relay_snapshot.time
                )

    def _forward_broker_to_broker(
        self,
        sender: BsubNodeState,
        receiver: BsubNodeState,
        receiver_relay_snapshot: TemporalCountingBloomFilter,
        sender_relay_snapshot: TemporalCountingBloomFilter,
        channel: ContactChannel,
        now: float,
    ) -> None:
        """Preferential-query-ranked carried-message forwarding.

        For each carried message the sender computes the *receiver's*
        preference against itself; messages with the largest positive
        preference go first, and forwarded messages leave the sender's
        buffer ("to prevent excessive copies in the network").
        """
        # Preference depends only on the content key, so rank the
        # distinct keys once instead of scoring every buffered message.
        carried_keys = list(sender.carried.keys())
        if not carried_keys:
            return
        preferences = receiver_relay_snapshot.preference_batch(
            carried_keys, sender_relay_snapshot
        )
        ranked_keys: List[Tuple[float, str]] = [
            (preference, key)
            for preference, key in zip(preferences.tolist(), carried_keys)
            if preference > 0.0
        ]
        ranked_keys.sort(key=lambda item: (-item[0], item[1]))
        for preference, key in ranked_keys:
            for message_id in sender.carried.ids_for(key):
                if receiver.has(message_id):
                    continue
                if not receiver.can_accept_carry(message_id):
                    continue
                message = sender.carried.messages.get(message_id)
                if message is None:
                    continue  # moved already under another of its keys
                if not channel.send(
                    message.size_bytes,
                    sender=sender.node_id,
                    receiver=receiver.node_id,
                ):
                    return
                self.metrics.record_forwarding(message)
                self.op_counts["forward_relay"] += 1
                if self.recorder.enabled:
                    self.recorder.emit(
                        "forward", t=now, kind="relay", msg=self.metrics.message_index(message),
                        src=sender.node_id, dst=receiver.node_id,
                        size=float(message.size_bytes), pref=preference,
                    )
                receiver.carry(message)
                sender.drop_carried(message.id)
                self._maybe_self_delivery(receiver, message, channel_time=now)

    def _maybe_self_delivery(
        self, node: BsubNodeState, message: Message, channel_time: float
    ) -> None:
        """A broker is also a consumer: receiving a relayed message it is
        genuinely interested in is a delivery (exact local match — a
        node knows its own subscriptions, so no false positives here).
        """
        if node.interested_in(message) and message.id not in node.received:
            node.mark_received(message.id)
            if self.metrics.record_delivery(message, node.node_id, channel_time):
                self.op_counts["deliveries"] += 1
                if self.recorder.enabled:
                    self.recorder.emit(
                        "delivery", t=channel_time, msg=self.metrics.message_index(message),
                        node=node.node_id,
                        intended=self.metrics.is_intended(
                            message, node.node_id
                        ),
                        cause="self",
                    )

    # -- introspection ----------------------------------------------------------------

    def broker_fraction(self) -> float:
        """Realised fraction of broker nodes (paper targets ≈30 %)."""
        return self.election.broker_fraction() if self.election else 0.0

    def buffered_message_count(self) -> int:
        """Total messages buffered network-wide right now."""
        return sum(
            len(s.own) + len(s.carried) for s in self.states.values()
        )
