"""Offline trace analysis: lineage, latency, false-positive attribution.

:func:`analyze_trace` streams a JSONL event trace once (bounded
memory, via :class:`~repro.obs.lineage.LineageBuilder`) and produces a
:class:`TraceAnalysis`: aggregate totals that reproduce the run's
:class:`~repro.pubsub.metrics.MetricsSummary` *exactly* from the trace
alone, a latency decomposition (wait-at-producer / per-broker dwell /
final hop), per-broker contribution accounting, the top-K slowest
deliveries with their full hop chains, and a false-positive
attribution that classifies every false injection and every delivery
by cause:

* ``relay_filter_fp`` — a producer→broker replication of a message
  whose keys nobody anywhere subscribes to: the relay filter can only
  have matched through Bloom bit collisions (the Sec. VI-B quantity).
  The analyzer pairs each one with merge/decay *evidence*: how many
  A-/M-merges the receiving broker had absorbed (the collisions'
  source material) and how long since its filter last decayed.
* ``genuine_but_stale`` — the matched key genuinely sits in the relay
  filter (someone announced it) but the message has no intended
  recipients, so the replication can never produce a delivery.
* ``direct_bf_fp`` — a delivery to a node not interested in the
  message: the final-hop consumer Bloom filter false-positived
  (impossible under ``interest_encoding="raw"``).
* ``producer_self`` — an exact-match self-delivery to an unintended
  node (only the producer itself can be one); bookkeeping, not a
  filter artefact.

The analysis is a pure function of the trace bytes: same trace file,
same ``analysis.json``, which is what the CI drift check pins.

:class:`TraceAnalyzer` is the incremental pass behind it.  Every
event-derivable total is counted when its event is fed, so
:meth:`TraceAnalyzer.totals` is exact at any event prefix; the live
tailer (:class:`~repro.obs.live.LiveTailer`) is this same analyzer fed
from a growing trace, so online and offline totals agree by
construction.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .events import TraceEvent
from .lineage import DeliveryLeg, LineageBuilder, MessageLineage
from .recorder import read_trace_iter, read_trace_meta

__all__ = [
    "PARITY_KEYS",
    "TraceAnalysis",
    "TraceAnalyzer",
    "analyze_trace",
    "ANALYSIS_VERSION",
]

#: Version of the analysis.json document layout.
ANALYSIS_VERSION = 1

#: The six totals a broker's dispatcher counts and the analyzer must
#: reproduce exactly from its trace (:meth:`TraceAnalyzer.parity_counters`,
#: ``BrokerCore.parity_counters``).
PARITY_KEYS = (
    "messages_created",
    "intended_pairs",
    "forwards_direct",
    "deliveries_total",
    "deliveries_intended",
    "deliveries_false",
)

#: Number of per-broker rows / slowest-delivery rows kept by default.
DEFAULT_TOP_K = 10


@dataclass
class _BrokerAccount:
    """Per-node contribution tallies."""

    dwell_s: float = 0.0
    deliveries_carried: int = 0
    relay_forwards: int = 0
    injections_received: int = 0
    false_injections_received: int = 0
    # Evidence accumulators for received false injections.
    a_merges_at_fi: int = 0
    m_merges_at_fi: int = 0


@dataclass
class TraceAnalysis:
    """Everything :func:`analyze_trace` derived from one trace."""

    trace_schema: int
    event_counts: Dict[str, int]
    messages: Dict[str, int]
    forwards: Dict[str, int]
    deliveries: Dict[str, object]
    injections: Dict[str, object]
    attribution: Dict[str, object]
    latency: Dict[str, object]
    brokers: List[Dict[str, object]]
    slowest: List[Dict[str, object]]
    memory: Dict[str, int]
    engine: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready nested dict (deterministic for a given trace)."""
        return {
            "schema": {
                "analysis": ANALYSIS_VERSION,
                "trace": self.trace_schema,
            },
            "events": dict(self.event_counts),
            "messages": dict(self.messages),
            "forwards": dict(self.forwards),
            "deliveries": dict(self.deliveries),
            "injections": dict(self.injections),
            "attribution": dict(self.attribution),
            "latency": dict(self.latency),
            "brokers": list(self.brokers),
            "slowest": list(self.slowest),
            "memory": dict(self.memory),
            "engine": dict(self.engine),
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact separators, newline)."""
        return (
            json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":"),
                allow_nan=False,
            )
            + "\n"
        )

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())


class TraceAnalyzer:
    """The incremental aggregation pass behind :func:`analyze_trace`.

    Feed it events in stream order.  Every event-derivable total —
    messages, intended pairs, forwards by kind, injection matches,
    delivery classes and causes, the four attribution causes — is
    counted at :meth:`feed` time, so :meth:`totals` and
    :meth:`parity_counters` are exact at any event prefix and never
    disturb the stream.  Lineage-derived aggregates (delivery outcomes
    per message, the latency decomposition, per-broker dwell, the
    slowest deliveries) are folded in as the
    :class:`~repro.obs.lineage.LineageBuilder` finalises each message;
    :meth:`result` flushes the rest and assembles the
    :class:`TraceAnalysis`.
    """

    def __init__(self, top_k: int = DEFAULT_TOP_K):
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.top_k = top_k
        self.builder = LineageBuilder(
            on_finalized=self._absorb, on_delivery=self._on_delivery
        )
        self.events = 0
        self.event_counts: Dict[str, int] = {}
        # Merge/decay evidence, maintained per node as events stream.
        self._a_merges: Dict[int, int] = {}
        self._m_merges: Dict[int, int] = {}
        self._last_decay: Dict[int, float] = {}
        self._brokers: Dict[int, _BrokerAccount] = {}
        # Totals counted at feed time; the per-message outcomes
        # (fully/partially/undelivered, expired, open) at finalisation.
        self.messages_created = 0
        self.intended_pairs = 0
        self.with_intended = 0
        self.fully_delivered = 0
        self.partially_delivered = 0
        self.undelivered = 0
        self.expired = 0
        self.open_at_end = 0
        self.forwards: Dict[str, int] = {"direct": 0, "inject": 0, "relay": 0}
        self.deliveries_total = 0
        self.deliveries_intended = 0
        self.deliveries_false = 0
        self.delivery_causes: Dict[str, int] = {}
        self.intended_delays: List[float] = []
        self.injection_match: Dict[str, int] = {}
        self.false_injections = 0
        self.attribution: Dict[str, int] = {
            "relay_filter_fp": 0,
            "genuine_but_stale": 0,
            "direct_bf_fp": 0,
            "producer_self": 0,
        }
        # Latency accumulators (intended deliveries with full evidence).
        self.decomposed = 0
        self.producer_wait_sum = 0.0
        self.carry_sum = 0.0
        self.final_hop_sum = 0.0
        self.max_residual = 0.0
        #: min-heap of (delay, msg, node, record) keeping the K slowest.
        self._slowest: List[Tuple[float, int, int, Dict[str, object]]] = []
        self.engine: Dict[str, object] = {}

    # -- streaming ----------------------------------------------------------

    def feed(self, event: TraceEvent) -> None:
        """Absorb one event (events must arrive in stream order)."""
        self.events += 1
        self.event_counts[event.type] = (
            self.event_counts.get(event.type, 0) + 1
        )
        fields = event.fields
        type_ = event.type
        if type_ == "create":
            self.messages_created += 1
            intended = int(fields.get("num_intended", 0))
            self.intended_pairs += intended
            if intended:
                self.with_intended += 1
        elif type_ == "forward":
            kind = fields.get("kind", "?")
            self.forwards[kind] = self.forwards.get(kind, 0) + 1
            if kind == "inject":
                match = fields.get("match", "legacy")
                self.injection_match[match] = (
                    self.injection_match.get(match, 0) + 1
                )
                if match == "stale":
                    self.attribution["genuine_but_stale"] += 1
                self._broker(int(fields["dst"])).injections_received += 1
            elif kind == "relay":
                self._broker(int(fields["src"])).relay_forwards += 1
        elif type_ == "delivery":
            self.deliveries_total += 1
            cause = fields.get("cause") or "legacy"
            self.delivery_causes[cause] = (
                self.delivery_causes.get(cause, 0) + 1
            )
            if bool(fields["intended"]):
                self.deliveries_intended += 1
            else:
                self.deliveries_false += 1
                # "direct" — and the only unintended-delivery mechanism
                # schema-1 traces had, so "legacy" lands there too.
                self.attribution[
                    "producer_self" if cause == "self" else "direct_bf_fp"
                ] += 1
        elif type_ == "a_merge":
            node = int(fields["node"])
            self._a_merges[node] = self._a_merges.get(node, 0) + 1
        elif type_ == "m_merge":
            node = int(fields["node"])
            self._m_merges[node] = self._m_merges.get(node, 0) + 1
        elif type_ == "decay_tick":
            self._last_decay[int(fields["node"])] = event.t
        elif type_ == "false_injection":
            self.false_injections += 1
            self.attribution["relay_filter_fp"] += 1
            broker = self._broker(int(fields["dst"]))
            broker.false_injections_received += 1
            broker.a_merges_at_fi += self._a_merges.get(
                int(fields["dst"]), 0
            )
            broker.m_merges_at_fi += self._m_merges.get(
                int(fields["dst"]), 0
            )
        elif type_ == "sim_end":
            self.engine = {
                "end_time": event.t,
                "contacts": fields.get("contacts"),
                "messages": fields.get("messages"),
            }
        self.builder.feed(event)

    def _broker(self, node: int) -> _BrokerAccount:
        account = self._brokers.get(node)
        if account is None:
            account = self._brokers[node] = _BrokerAccount()
        return account

    def _on_delivery(self, lineage: MessageLineage, leg: DeliveryLeg) -> None:
        """Keep each intended delivery's delay for :meth:`result`.

        Runs as the builder absorbs each delivery event; the live
        tailer overrides it to feed bounded rolling windows instead.
        """
        if leg.intended and leg.delay_s is not None:
            self.intended_delays.append(leg.delay_s)

    # -- running views ------------------------------------------------------

    def totals(self) -> Dict[str, object]:
        """Exact running totals over the events fed so far.

        Valid at any event prefix: :func:`analyze_trace` over the same
        prefix reports the same counts.
        """
        intended = self.intended_pairs
        return {
            "events": self.events,
            "messages_created": self.messages_created,
            "intended_pairs": intended,
            "forwards": dict(sorted(self.forwards.items())),
            "deliveries": {
                "total": self.deliveries_total,
                "intended": self.deliveries_intended,
                "false": self.deliveries_false,
                "by_cause": dict(sorted(self.delivery_causes.items())),
            },
            "false_injections": self.false_injections,
            "attribution": dict(self.attribution),
            "completeness": (
                self.deliveries_intended / intended if intended else None
            ),
            "messages_live": self.builder.num_live,
            "peak_live_messages": self.builder.peak_live,
            "end_time": self.engine.get("end_time"),
        }

    def parity_counters(self) -> Dict[str, int]:
        """The :data:`PARITY_KEYS` running totals."""
        return {
            "messages_created": self.messages_created,
            "intended_pairs": self.intended_pairs,
            "forwards_direct": self.forwards.get("direct", 0),
            "deliveries_total": self.deliveries_total,
            "deliveries_intended": self.deliveries_intended,
            "deliveries_false": self.deliveries_false,
        }

    def broker_rows(self) -> List[Dict[str, object]]:
        """Top-K per-broker contribution rows, by dwell then carried."""
        return [
            {
                "node": node,
                "dwell_s": account.dwell_s,
                "deliveries_carried": account.deliveries_carried,
                "relay_forwards": account.relay_forwards,
                "injections_received": account.injections_received,
                "false_injections_received": account.false_injections_received,
                "mean_merges_absorbed_at_fi": (
                    (account.a_merges_at_fi + account.m_merges_at_fi)
                    / account.false_injections_received
                    if account.false_injections_received
                    else None
                ),
            }
            for node, account in sorted(
                self._brokers.items(),
                key=lambda item: (
                    -item[1].dwell_s,
                    -item[1].deliveries_carried,
                    item[0],
                ),
            )
            if account.dwell_s > 0.0
            or account.injections_received
            or account.relay_forwards
        ][: self.top_k]

    # -- lineage finalisation -----------------------------------------------

    def _absorb(self, lineage: MessageLineage) -> None:
        if lineage.closed_by == "expired":
            self.expired += 1
        else:
            self.open_at_end += 1
        intended = lineage.num_intended
        if intended:
            delivered = lineage.num_intended_delivered
            if delivered >= intended:
                self.fully_delivered += 1
            elif delivered > 0:
                self.partially_delivered += 1
            else:
                self.undelivered += 1
        for leg in lineage.deliveries:
            self._absorb_delivery(lineage, leg)

    def _absorb_delivery(
        self, lineage: MessageLineage, leg: DeliveryLeg
    ) -> None:
        decomposition = leg.decomposition
        if (
            decomposition is not None
            and decomposition.producer_wait_s is not None
        ):
            self.decomposed += 1
            self.producer_wait_sum += decomposition.producer_wait_s
            self.carry_sum += decomposition.carry_s
            self.final_hop_sum += decomposition.final_hop_s
            if leg.delay_s is not None:
                residual = abs(
                    leg.delay_s
                    - (
                        decomposition.producer_wait_s
                        + decomposition.carry_s
                        + decomposition.final_hop_s
                    )
                )
                self.max_residual = max(self.max_residual, residual)
            for node, dwell in decomposition.dwells:
                account = self._broker(node)
                account.dwell_s += dwell
                account.deliveries_carried += 1
        if leg.delay_s is None:
            return
        key = (leg.delay_s, -lineage.msg, -leg.node)
        if len(self._slowest) < self.top_k:
            heapq.heappush(self._slowest, key + (_slow_record(lineage, leg),))
        elif key > self._slowest[0][:3]:
            heapq.heapreplace(
                self._slowest, key + (_slow_record(lineage, leg),)
            )

    # -- result assembly ----------------------------------------------------

    def result(self, trace_schema: int = 1) -> TraceAnalysis:
        """Flush every live lineage, then assemble the analysis."""
        self.builder.flush()
        delays = sorted(self.intended_delays)
        if delays:
            delay_mean = sum(delays) / len(delays)
            mid = len(delays) // 2
            delay_median = (
                delays[mid]
                if len(delays) % 2
                else (delays[mid - 1] + delays[mid]) / 2.0
            )
        else:
            delay_mean = delay_median = None
        injections_total = self.forwards.get("inject", 0)
        stale = self.injection_match.get("stale", 0)
        genuine = self.injection_match.get("genuine", 0)
        legacy = self.injection_match.get("legacy", 0)
        attribution: Dict[str, object] = dict(self.attribution)
        attribution["false_injections_attributed"] = self.attribution[
            "relay_filter_fp"
        ]
        attribution["false_injection_coverage"] = (
            1.0 if self.false_injections else None
        )
        slowest = [
            entry[3]
            for entry in sorted(self._slowest, reverse=True)
        ]
        return TraceAnalysis(
            trace_schema=trace_schema,
            event_counts=dict(sorted(self.event_counts.items())),
            messages={
                "created": self.messages_created,
                "intended_pairs": self.intended_pairs,
                "with_intended": self.with_intended,
                "fully_delivered": self.fully_delivered,
                "partially_delivered": self.partially_delivered,
                "undelivered": self.undelivered,
                "expired": self.expired,
                "open_at_end": self.open_at_end,
            },
            forwards={
                **dict(sorted(self.forwards.items())),
                "total": sum(self.forwards.values()),
            },
            deliveries={
                "total": self.deliveries_total,
                "intended": self.deliveries_intended,
                "false": self.deliveries_false,
                "by_cause": dict(sorted(self.delivery_causes.items())),
                "delay_mean_s": delay_mean,
                "delay_median_s": delay_median,
                "delivery_ratio": (
                    self.deliveries_intended / self.intended_pairs
                    if self.intended_pairs
                    else None
                ),
                "false_positive_ratio": (
                    self.deliveries_false / self.deliveries_total
                    if self.deliveries_total
                    else 0.0
                ),
            },
            injections={
                "total": injections_total,
                "false": self.false_injections,
                "genuine": genuine,
                "genuine_but_stale": stale,
                "legacy_unclassified": legacy,
                "false_injection_ratio": (
                    self.false_injections / injections_total
                    if injections_total
                    else 0.0
                ),
                "useless_injection_ratio": (
                    (self.false_injections + stale) / injections_total
                    if injections_total and not legacy
                    else None
                ),
            },
            attribution=attribution,
            latency={
                "decomposed": self.decomposed,
                "producer_wait_mean_s": (
                    self.producer_wait_sum / self.decomposed
                    if self.decomposed
                    else None
                ),
                "carry_mean_s": (
                    self.carry_sum / self.decomposed
                    if self.decomposed
                    else None
                ),
                "final_hop_mean_s": (
                    self.final_hop_sum / self.decomposed
                    if self.decomposed
                    else None
                ),
                "max_residual_s": self.max_residual,
            },
            brokers=self.broker_rows(),
            slowest=slowest,
            memory={
                "peak_live_messages": self.builder.peak_live,
                "finalized_messages": self.builder.finalized,
            },
            engine=self.engine,
        )


def _slow_record(
    lineage: MessageLineage, leg: DeliveryLeg
) -> Dict[str, object]:
    """The ``slowest`` row of one delivery (built only on heap entry)."""
    decomposition = leg.decomposition
    return {
        "msg": lineage.msg,
        "node": leg.node,
        "delay_s": leg.delay_s,
        "intended": leg.intended,
        "chain": leg.chain_label(),
        "hops": len(leg.chain),
        "producer_wait_s": (
            decomposition.producer_wait_s if decomposition else None
        ),
        "carry_s": decomposition.carry_s if decomposition else None,
        "final_hop_s": decomposition.final_hop_s if decomposition else None,
    }


def analyze_trace(
    source: Union[str, Iterable[TraceEvent]],
    top_k: int = DEFAULT_TOP_K,
    trace_schema: Optional[int] = None,
) -> TraceAnalysis:
    """Analyze a trace — a JSONL file path or an event iterable.

    The trace is consumed strictly as a stream: peak analyzer memory is
    O(messages alive at once) plus O(nodes), never O(events), so
    million-event traces from the columnar backend analyze in bounded
    space.  Given a path, the schema version is read from the file's
    meta header (headerless files are treated as schema 1 and fully
    supported); given an iterable, pass ``trace_schema`` explicitly if
    known.
    """
    analyzer = TraceAnalyzer(top_k=top_k)
    if isinstance(source, str):
        if trace_schema is None:
            trace_schema = int(read_trace_meta(source).get("schema", 1))
        source = read_trace_iter(source)
    for event in source:
        analyzer.feed(event)
    return analyzer.result(
        trace_schema if trace_schema is not None else 1
    )
