"""``serve-fanout``: the broker core at wide fan-out, without sockets.

``BrokerCore`` is driven in-process exactly as the socket layer drives
it: every inbound frame is encoded by the client, decoded by a
per-session broker ``StreamDecoder`` and handed to ``handle_frame``;
every outbound frame goes through ``pubsub.wire.encode_frame`` and the
recipient's own client ``StreamDecoder``.

The load is a closed loop over a fixed *cycle* of operations: Table-II
publishes (one key each) mixed with re-subscribes, where every node
that re-subscribes during a cycle later subscribes back to its own
interests.  Each cycle therefore starts from the same subscriptions and
does the same work, and every publish is checked against the recipient
set the benchmark computes from its own plan.  ``run_s`` sums each
operation's fastest time over the cycles: the time one cycle needs on a
host not slowed by other tenants, which repeats to a few percent where
the median cycle moves by a third.  Every ``SETUP_EVERY_S`` seconds of
measuring the core is set up afresh (every session connects and
subscribes again) and the cycles go on against the new one; ``setup_s``
is the median of these set-ups, spread over the whole run.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.pubsub import wire
from repro.pubsub.messages import Message
from repro.serve.dispatcher import BrokerCore
from repro.serve.spec import ServeSpec
from repro.workload.keys import twitter_trends_2009

from . import catalog, layers, stats
from .common import Outcome, Window, peak_rss_mb
from .spans import Tracer, overhead

SESSIONS = 2000
INTERESTS_PER_NODE = 2
#: Publishes per cycle, and nodes that re-subscribe (and back) per cycle.
CYCLE_PUBLISHES = 40
CYCLE_RESUBSCRIBERS = 3
PAYLOAD_BYTES = 140
#: Seconds of cycles between fresh set-ups.
SETUP_EVERY_S = 2.0
#: Fewest timed cycles per measurement, whatever ``--seconds`` says.
MIN_CYCLES = 3
SMOKE_SESSIONS = 100
INTEREST_SEED = 11
KEY_SEED = 12


class Plan:
    """Interests and the operation cycle; the benchmark's ground truth.

    The initial interests and the cycle's publish keys are fixed draws
    (``INTEREST_SEED``, ``KEY_SEED``): they set every publish's fan-out,
    so letting the seed move them would swamp timing differences.  The
    seed draws the rest of the cycle — the order of the publishes, their
    publishers, and which nodes re-subscribe to what and when.
    """

    def __init__(self, seed: int, sessions: int):
        self.distribution = twitter_trends_2009()
        self.weights = np.asarray(self.distribution.weights)
        self.sessions = sessions
        rng = np.random.default_rng(INTEREST_SEED)
        self.interests: Dict[int, FrozenSet[str]] = {
            node: self._draw_interests(rng) for node in range(1, sessions + 1)
        }
        rng = np.random.default_rng(KEY_SEED)
        keys = [self.distribution.sample(rng) for _ in range(CYCLE_PUBLISHES)]
        rng = np.random.default_rng(seed)
        rng.shuffle(keys)
        #: ("sub", node, keys) or ("pub", node, key), in cycle order.
        self.cycle: List[Tuple[str, int, object]] = [
            ("pub", int(rng.integers(1, sessions + 1)), key) for key in keys
        ]
        movers = rng.choice(sessions, size=CYCLE_RESUBSCRIBERS, replace=False) + 1
        for node in movers.tolist():
            away, back = sorted(rng.choice(len(self.cycle) + 1, size=2, replace=False))
            self.cycle.insert(back, ("sub", node, self.interests[node]))
            self.cycle.insert(away, ("sub", node, self._draw_interests(rng)))
        #: Expected recipients of each cycle position (None for subscribes).
        self.expected: List[Optional[FrozenSet[int]]] = []
        current = dict(self.interests)
        for kind, node, item in self.cycle:
            if kind == "sub":
                current[node] = item
                self.expected.append(None)
            else:
                self.expected.append(frozenset(
                    n for n, keys in current.items() if n != node and item in keys
                ))
        if current != self.interests:
            raise AssertionError("the cycle does not return to its start")
        self.deliveries_per_cycle = sum(len(e) for e in self.expected if e is not None)
        self._next_id = 0

    def _draw_interests(self, rng) -> FrozenSet[str]:
        picks = rng.choice(
            len(self.weights), size=INTERESTS_PER_NODE, replace=False,
            p=self.weights,
        )
        return frozenset(self.distribution.keys[i] for i in picks)

    def message(self, node: int, key: str) -> Message:
        message = Message(
            id=self._next_id, keys=frozenset((key,)), source=node,
            created_at=0.0, ttl_s=3600.0, size_bytes=PAYLOAD_BYTES,
        )
        self._next_id += 1
        return message


class Harness:
    """One broker core plus a client decoder per session."""

    def __init__(self, plan: Plan):
        self.spec = ServeSpec()
        self.core = BrokerCore(self.spec)
        self.family = self.core.family
        self.broker_side: Dict[int, wire.StreamDecoder] = {}
        self.client_side: Dict[int, wire.StreamDecoder] = {}
        #: (node, message id) of every copy clients decoded for the
        #: publish in flight (cleared before each publish).
        self.decoded: List[Tuple[int, int]] = []
        self.hellos = 0
        self.decode_errors = 0
        self.payload = bytes(PAYLOAD_BYTES)
        self.plan = plan

    def _feed(self, node: int, data: bytes) -> None:
        """Broker side: decode and dispatch one session's bytes."""
        result = self.broker_side[node].feed(data, time=self.core.clock())
        if result.error is not None:
            self.decode_errors += 1
        for frame in result.frames:
            self._deliver(self.core.handle_frame(node, frame))

    def _deliver(self, handled) -> None:
        """Transport: encode each outbound frame, decode it client-side."""
        for target, frame in handled.outbound:
            result = self.client_side[target].feed(wire.encode_frame(frame))
            if result.error is not None:
                self.decode_errors += 1
            for got in result.frames:
                if isinstance(got, wire.MessageBundle):
                    for message in got.messages:
                        self.decoded.append((target, message.id))
                elif isinstance(got, wire.Hello):
                    self.hellos += 1

    def connect_all(self) -> None:
        """Every session connects, says Hello and subscribes."""
        spec = self.spec
        for node, keys in self.plan.interests.items():
            self.core.connect(node, f"bench:{node}")
            self.broker_side[node] = wire.StreamDecoder(
                self.family, spec.initial_value,
                decay_factor=spec.df_per_min / 60.0,
                max_frame_bytes=spec.max_frame_bytes,
            )
            self.client_side[node] = wire.StreamDecoder(
                self.family, spec.initial_value
            )
            hello = wire.Hello(node_id=node, is_broker=False, degree=0, time=0.0)
            self._feed(
                node,
                wire.encode_frame(hello)
                + wire.encode_frame(wire.Subscribe(tuple(sorted(keys)))),
            )

    def run_op(self, kind: str, node: int, item) -> Tuple[float, Optional[int], Set[int]]:
        """One closed-loop operation; returns (latency, message id, got)."""
        if kind == "sub":
            data = wire.encode_frame(wire.Subscribe(tuple(sorted(item))))
            started = time.perf_counter()
            self._feed(node, data)
            return time.perf_counter() - started, None, set()
        message = self.plan.message(node, item)
        data = wire.encode_frame(wire.MessageBundle((message,), (self.payload,)))
        self.decoded.clear()
        started = time.perf_counter()
        self._feed(node, data)
        latency = time.perf_counter() - started
        got = [n for n, msg_id in self.decoded if msg_id == message.id]
        if len(got) != len(self.decoded) or len(set(got)) != len(got):
            self.decode_errors += 1  # stray or duplicated copies
        return latency, message.id, set(got)


def _setup_once(seed: int, sessions: int) -> Tuple[float, Harness]:
    plan = Plan(seed, sessions)
    started = time.perf_counter()
    harness = Harness(plan)
    harness.connect_all()
    return time.perf_counter() - started, harness


class _Measurement:
    def __init__(self):
        self.setup_s: List[float] = []
        self.cycle_s: List[float] = []
        #: Fastest time of each operation of the cycle, over the cycles.
        self.fastest: Optional[List[float]] = None
        self.publish_s: List[float] = []
        self.recipients: List[int] = []
        self.deliveries = 0
        self.deliveries_per_cycle = 0
        self.connected_share = 0.0


def _cycle(harness: Harness, out: Outcome):
    """One cycle of operations, every publish checked; returns (each
    operation's latency, deliveries, (latency, recipients) per publish).
    Output checks stay outside the timed operations."""
    plan = harness.plan
    op_s, deliveries, publishes = [], 0, []
    gc.collect()
    for (kind, node, item), expected in zip(plan.cycle, plan.expected):
        latency, msg_id, got = harness.run_op(kind, node, item)
        op_s.append(latency)
        if expected is None:
            continue
        out.attempted += max(1, len(expected))
        missing, extra = len(expected - got), len(got - expected)
        out.check(
            not missing and not extra,
            f"publish {msg_id}: {missing} missing, {extra} unexpected copies",
            weight=max(1, missing + extra),
        )
        deliveries += len(got)
        publishes.append((latency, len(expected)))
    return op_s, deliveries, publishes


def _measure(seed: int, sessions: int, out: Outcome, window: Window,
             fewest: int) -> _Measurement:
    """Cycles while *window* asks for more (at least *fewest*), against
    a core set up afresh every ``SETUP_EVERY_S`` seconds; each new core
    first runs one untimed warm-up cycle."""
    meas = _Measurement()
    harness, since = None, 0.0
    while len(meas.cycle_s) < fewest or window.more(
            None if meas.fastest is None else sum(meas.fastest)):
        if harness is None or time.perf_counter() - since >= SETUP_EVERY_S:
            if harness is not None:
                _final_checks(out, harness, sessions)
            harness = None
            gc.collect()
            elapsed, harness = _setup_once(seed, sessions)
            meas.setup_s.append(elapsed)
            _cycle(harness, out)
            since = time.perf_counter()
        op_s, deliveries, publishes = _cycle(harness, out)
        meas.cycle_s.append(sum(op_s))
        meas.fastest = op_s if meas.fastest is None else [
            min(a, b) for a, b in zip(meas.fastest, op_s)
        ]
        meas.deliveries += deliveries
        meas.publish_s.extend(lat for lat, _n in publishes)
        meas.recipients.extend(n for _lat, n in publishes)
    _final_checks(out, harness, sessions)
    meas.deliveries_per_cycle = harness.plan.deliveries_per_cycle
    meas.connected_share = (
        len(harness.core.node_sessions) / len(harness.core.subscriptions)
    )
    return meas


def run_workload(workload: str, seed: int, seconds: float, trace_run: bool,
                 span_path: Optional[str] = None, smoke: bool = False) -> Outcome:
    sessions = SMOKE_SESSIONS if smoke else SESSIONS
    out = Outcome()
    window = Window(seconds, None if smoke else workload)
    meas = _measure(seed, sessions, out, window, MIN_CYCLES)
    run_s = sum(meas.fastest)
    out.end_to_end = {
        "setup_s": statistics.median(meas.setup_s),
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "deliveries_per_s": meas.deliveries_per_cycle / run_s,
    }
    publish_ms = [s * 1000.0 for s in meas.publish_s]
    out.layers.update({
        "run_s.median": statistics.median(meas.cycle_s),
        "publish_p50_ms": stats.nearest_rank(publish_ms, 50),
        "publish_p99_ms": stats.nearest_rank(publish_ms, 99),
        "serve.fanout.recipients.p50": stats.nearest_rank(meas.recipients, 50),
        "serve.fanout.recipients.p99": stats.nearest_rank(meas.recipients, 99),
        "serve.dispatcher.connected_share": meas.connected_share,
    })
    out.info.update(
        cycles=len(meas.cycle_s), ops_per_cycle=len(meas.fastest),
        publishes=len(meas.publish_s), deliveries=meas.deliveries,
        setups_s=meas.setup_s, cycles_s=meas.cycle_s,
        run_s_spread=stats.summary(meas.cycle_s)["spread"],
        publish_p99_supported=stats.supports(len(publish_ms), 99),
        **window.close(run_s),
    )
    if trace_run:
        _traced(out, workload, seed, seconds, sessions, run_s, span_path)
    out.layers["error_rate"] = out.error_rate
    return out


def _final_checks(out: Outcome, harness: Harness, sessions: int) -> None:
    out.check(harness.decode_errors == 0,
              f"{harness.decode_errors} client/broker decode errors")
    out.check(harness.hellos == sessions,
              f"{harness.hellos} broker Hellos for {sessions} sessions")


def _traced(out: Outcome, workload: str, seed: int, seconds: float,
            sessions: int, untraced_run_s: float,
            span_path: Optional[str]) -> None:
    tracer = Tracer(run_id=f"{workload}-seed{seed}")
    layers.install_fanout(tracer)
    try:
        meas = _measure(seed, sessions, out, Window(0.3 * seconds), MIN_CYCLES)
    finally:
        tracer.restore()
    out.layers.update(tracer.layer_metrics(catalog.SPANS))
    out.layers["trace.overhead"] = overhead(sum(meas.fastest), untraced_run_s)
    out.info["spans_kept"] = len(tracer.spans)
    out.info["spans_dropped"] = tracer.dropped
    if span_path:
        tracer.write_jsonl(span_path)
