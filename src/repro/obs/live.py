"""Online observability: stream a growing trace into rolling live metrics.

A :class:`LiveTailer` is the offline
:class:`~repro.obs.analyze.TraceAnalyzer` fed from a *live* event
stream — the in-process
:meth:`TraceRecorder.subscribe <repro.obs.recorder.TraceRecorder.subscribe>`
bus, :func:`follow_merged_traces` tailing one growing trace or a
fleet's per-worker shards, or :func:`replay_trace_iter` re-playing a
recorded run at wall-clock speed — plus three things of its own:

* **A lock**, so events may arrive on an event-loop or feeder thread
  while HTTP handlers take snapshots.
* **Bounded rolling windows** (time horizon + hard length cap) of
  delivery counts and latency-decomposition percentiles (delay, wait,
  carry, final hop), fed through the
  :class:`~repro.obs.lineage.LineageBuilder` ``on_delivery`` hook.
  Lineage state stays O(live messages) — the builder's expiry heap
  does the bounding, exactly as offline.
* **A registry mirror**: ``live_*`` counters follow the analyzer's
  totals at feed time and window-derived gauges are refreshed on
  demand, so the broker's ``/metrics`` exposition grows ``live_*``
  series for free.

Every total — messages, forwards, delivery classes, the four
false-positive attribution causes — is counted by the analyzer's own
:meth:`~repro.obs.analyze.TraceAnalyzer.feed`, so the live totals equal
``analyze_trace`` over the events seen so far by construction.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .analyze import TraceAnalyzer
from .events import TraceEvent
from .lineage import DeliveryLeg, MessageLineage
from .recorder import _parse_trace_line, read_trace_iter

__all__ = [
    "RollingWindow",
    "LiveTailer",
    "follow_merged_traces",
    "nearest_rank",
    "replay_trace_iter",
    "format_watch_table",
]

#: ``live_*`` registry counters and the analyzer totals they mirror.
_MIRRORED_COUNTERS = (
    ("live_events_total", "events"),
    ("live_deliveries_total", "deliveries_total"),
    ("live_deliveries_intended_total", "deliveries_intended"),
    ("live_deliveries_false_total", "deliveries_false"),
    ("live_false_injections_total", "false_injections"),
)


def nearest_rank(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` in [0, 100] of ascending *ordered*.

    The smallest sample with at least ``p`` percent of the samples at or
    below it: rank ``ceil(p / 100 * n)``, and the minimum for ``p = 0``.
    """
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(p * len(ordered) / 100.0)
    return ordered[min(len(ordered), max(1, rank)) - 1]


class RollingWindow:
    """A time-horizon window of (t, value) samples with a hard cap.

    Samples older than ``horizon_s`` relative to the newest sample are
    pruned on every ``add``; ``max_samples`` additionally bounds memory
    regardless of event rate.  Percentiles use the nearest-rank method
    on the retained samples.
    """

    __slots__ = ("horizon_s", "_samples")

    def __init__(self, horizon_s: float = 300.0, max_samples: int = 4096):
        self.horizon_s = float(horizon_s)
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=max_samples)

    def add(self, t: float, value: float) -> None:
        self._samples.append((float(t), float(value)))
        self.prune(t)

    def prune(self, now: float) -> None:
        cutoff = float(now) - self.horizon_s
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def sum(self) -> float:
        return sum(value for _, value in self._samples)

    def mean(self) -> Optional[float]:
        if not self._samples:
            return None
        return self.sum() / len(self._samples)

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile ``p`` in [0, 100] of the window."""
        if not self._samples:
            return None
        return nearest_rank(sorted(value for _, value in self._samples), p)


class LiveTailer(TraceAnalyzer):
    """The trace analyzer, made safe and cheap to read while it runs.

    Feed it schema-v2 events — via :meth:`feed` from any source — and
    read :meth:`totals`, :meth:`snapshot`, or the mirrored registry at
    any moment.  Thread-safe: events may arrive from an event-loop
    thread (the recorder bus) or a feeder thread while HTTP handlers
    take snapshots concurrently.

    Delivery delays go only to the rolling windows, never to the
    analyzer's whole-run delay list, so memory stays bounded on an
    endless stream; whole-trace delay statistics come from
    :func:`~repro.obs.analyze.analyze_trace`.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving
        ``live_*`` counters at feed time and gauges on
        :meth:`refresh_registry`.
    window_s:
        Rolling-window horizon in trace seconds.
    top_k:
        Per-broker rows retained in :meth:`snapshot`.
    """

    def __init__(
        self,
        registry=None,
        window_s: float = 300.0,
        top_k: int = 8,
    ):
        super().__init__(top_k=top_k)
        self.registry = registry
        self.window_s = float(window_s)
        self._lock = threading.RLock()
        self._mirrors = (
            [
                (registry.counter(name), attr)
                for name, attr in _MIRRORED_COUNTERS
            ]
            if registry is not None
            else []
        )
        self.last_event_t: Optional[float] = None
        self._started_wall = time.monotonic()
        self.delay_window = RollingWindow(self.window_s)
        self.wait_window = RollingWindow(self.window_s)
        self.carry_window = RollingWindow(self.window_s)
        self.final_hop_window = RollingWindow(self.window_s)
        self.intended_window = RollingWindow(self.window_s)
        self.false_window = RollingWindow(self.window_s)

    # -- ingestion ----------------------------------------------------------

    def feed(self, event: TraceEvent) -> None:
        """Absorb one event (events must arrive in stream order)."""
        with self._lock:
            super().feed(event)
            self.last_event_t = event.t
            for counter, attr in self._mirrors:
                delta = getattr(self, attr) - counter.value
                if delta:
                    counter.inc(delta)

    def _on_delivery(self, lineage: MessageLineage, leg: DeliveryLeg) -> None:
        # Invoked by the builder inside feed() — the lock is held.
        if leg.intended:
            self.intended_window.add(leg.t, 1.0)
            if leg.delay_s is not None:
                self.delay_window.add(leg.t, leg.delay_s)
        else:
            self.false_window.add(leg.t, 1.0)
        decomposition = leg.decomposition
        if (
            decomposition is not None
            and decomposition.producer_wait_s is not None
        ):
            self.wait_window.add(leg.t, decomposition.producer_wait_s)
            self.carry_window.add(leg.t, decomposition.carry_s)
            self.final_hop_window.add(leg.t, decomposition.final_hop_s)

    # -- views --------------------------------------------------------------

    def totals(self) -> Dict[str, object]:
        with self._lock:
            return super().totals()

    def parity_counters(self) -> Dict[str, int]:
        with self._lock:
            return super().parity_counters()

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready live view: totals + windows + top brokers."""
        with self._lock:
            now = self.last_event_t
            if now is not None:
                for window in (
                    self.delay_window,
                    self.wait_window,
                    self.carry_window,
                    self.final_hop_window,
                    self.intended_window,
                    self.false_window,
                ):
                    window.prune(now)
            horizon = self.window_s
            return {
                "totals": self.totals(),
                "window_s": horizon,
                "window": {
                    "deliveries_intended": self.intended_window.count,
                    "deliveries_false": self.false_window.count,
                    "delivery_rate_per_s": (
                        (self.intended_window.count + self.false_window.count)
                        / horizon
                    ),
                    "delay_p50_s": self.delay_window.percentile(50),
                    "delay_p95_s": self.delay_window.percentile(95),
                    "wait_p50_s": self.wait_window.percentile(50),
                    "wait_p95_s": self.wait_window.percentile(95),
                    "carry_p50_s": self.carry_window.percentile(50),
                    "carry_p95_s": self.carry_window.percentile(95),
                    "final_hop_p50_s": self.final_hop_window.percentile(50),
                    "final_hop_p95_s": self.final_hop_window.percentile(95),
                },
                "brokers": self.broker_rows(),
                "uptime_s": time.monotonic() - self._started_wall,
                "last_event_t": self.last_event_t,
                "sim_ends_seen": self.event_counts.get("sim_end", 0),
            }

    def refresh_registry(self) -> None:
        """Mirror window-derived values into the registry's gauges."""
        registry = self.registry
        if registry is None:
            return
        snapshot = self.snapshot()
        totals = snapshot["totals"]
        window = snapshot["window"]
        registry.gauge("live_messages_live").set(totals["messages_live"])
        completeness = totals["completeness"]
        registry.gauge("live_completeness").set(
            completeness if completeness is not None else 0.0
        )
        for key in (
            "delay_p50_s",
            "delay_p95_s",
            "wait_p95_s",
            "carry_p95_s",
            "final_hop_p95_s",
        ):
            value = window[key]
            registry.gauge(f"live_window_{key}").set(
                value if value is not None else 0.0
            )
        registry.gauge("live_window_deliveries").set(
            window["deliveries_intended"] + window["deliveries_false"]
        )


# -- stream sources ---------------------------------------------------------


class _ShardTail:
    """Incremental reader of one (possibly still growing) trace shard."""

    __slots__ = ("shard", "path", "fh", "buffer", "pending", "done")

    def __init__(self, shard: int, path: str):
        self.shard = shard
        self.path = path
        self.fh = None
        self.buffer = b""
        self.pending: Deque[TraceEvent] = deque()
        self.done = False

    def pump(self) -> bool:
        """Read whatever is available; True if any new event arrived."""
        if self.done:
            return False
        if self.fh is None:
            try:
                self.fh = open(self.path, "rb")
            except FileNotFoundError:
                return False
        progressed = False
        while True:
            chunk = self.fh.read(65536)
            if not chunk:
                break
            self.buffer += chunk
            while True:
                newline = self.buffer.find(b"\n")
                if newline < 0:
                    break
                line = self.buffer[:newline].decode("utf-8")
                self.buffer = self.buffer[newline + 1:]
                event = _parse_trace_line(line)
                if event is None:
                    continue
                self.pending.append(event)
                progressed = True
        return progressed

    @property
    def head(self) -> Optional[TraceEvent]:
        return self.pending[0] if self.pending else None

    def pop(self) -> TraceEvent:
        event = self.pending.popleft()
        if event.type == "sim_end":
            self.finish()
        return event

    def finish(self) -> None:
        self.done = True
        if self.fh is not None:
            self.fh.close()
            self.fh = None


def follow_merged_traces(
    paths: Sequence[str],
    *,
    follow: bool = True,
    poll_interval_s: float = 0.2,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Tuple[int, TraceEvent]]:
    """K-way merge of trace shards, yielding ``(shard, event)`` pairs.

    Events are merged by ``(t, seq, shard)`` — the
    :func:`~repro.obs.recorder.merge_traces` ordering — so over
    quiescent (fully written) shards the event sequence matches the
    offline merge exactly.  While shards are still growing, strict
    ordering would let one idle shard stall the stream, so after one
    empty poll the merge emits the earliest *available* head instead;
    the six parity totals are order-insensitive, so end-of-run parity
    is unaffected.

    Each shard completes at its own ``sim_end`` (yielded as-is; sum
    the fields across shards for fleet totals).  With ``follow=False``
    a shard also completes at EOF.  *should_stop* drains the buffered
    heads in order and returns.
    """
    tails = [_ShardTail(shard, path) for shard, path in enumerate(paths)]

    def earliest(candidates: List[_ShardTail]) -> _ShardTail:
        return min(
            candidates,
            key=lambda tail: (tail.head.t, tail.head.seq, tail.shard),
        )

    waited = False
    while any(not tail.done for tail in tails):
        for tail in tails:
            tail.pump()
        if not follow:
            for tail in tails:
                if not tail.done and not tail.pending:
                    tail.finish()
        ready = [tail for tail in tails if not tail.done and tail.pending]
        blocked = [tail for tail in tails if not tail.done and not tail.pending]
        if ready and (not blocked or waited):
            tail = earliest(ready)
            yield tail.shard, tail.pop()
            waited = False
            continue
        if should_stop is not None and should_stop():
            while ready:
                tail = earliest(ready)
                yield tail.shard, tail.pop()
                ready = [t for t in tails if not t.done and t.pending]
            for tail in tails:
                tail.finish()
            return
        waited = True
        time.sleep(poll_interval_s)
    while True:
        ready = [tail for tail in tails if tail.pending]
        if not ready:
            break
        tail = earliest(ready)
        yield tail.shard, tail.pop()


def replay_trace_iter(
    path: str,
    speed: float = 1.0,
    sleep: Callable[[float], None] = time.sleep,
    max_sleep_s: float = 5.0,
) -> Iterator[TraceEvent]:
    """Replay a recorded trace paced against the wall clock.

    Trace time advances ``speed`` seconds per wall second (``speed=60``
    replays a minute of trace per second); individual sleeps are capped
    at *max_sleep_s* so long quiet gaps in the trace stay skimmable.
    The pacing anchors to the first event, so cumulative drift does not
    accumulate across events.
    """
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    origin_t: Optional[float] = None
    origin_wall = time.monotonic()
    for event in read_trace_iter(path):
        if origin_t is None:
            origin_t = event.t
            origin_wall = time.monotonic()
        else:
            due = origin_wall + (event.t - origin_t) / speed
            wait = due - time.monotonic()
            if wait > 0:
                sleep(min(wait, max_sleep_s))
        yield event


# -- terminal rendering -----------------------------------------------------


def _fmt(value, suffix: str = "") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}{suffix}"
    return f"{value}{suffix}"


def format_watch_table(snapshot: Dict[str, object]) -> str:
    """Render a :meth:`LiveTailer.snapshot` as a terminal summary table."""
    totals = snapshot["totals"]
    window = snapshot["window"]
    deliveries = totals["deliveries"]
    attribution = totals["attribution"]
    lines = [
        "B-SUB live observability",
        "=" * 56,
        f"{'events seen':<28}{_fmt(totals['events'])}",
        f"{'trace time':<28}{_fmt(snapshot['last_event_t'], 's')}",
        f"{'messages created':<28}{_fmt(totals['messages_created'])}",
        f"{'messages live':<28}{_fmt(totals['messages_live'])}",
        f"{'completeness':<28}{_fmt(totals['completeness'])}",
        (
            f"{'deliveries (int/false)':<28}"
            f"{deliveries['total']} "
            f"({deliveries['intended']}/{deliveries['false']})"
        ),
        f"{'false injections':<28}{_fmt(totals['false_injections'])}",
        "-" * 56,
        f"rolling window ({_fmt(snapshot['window_s'], 's')})",
        (
            f"{'  deliveries (int/false)':<28}"
            f"{window['deliveries_intended']}/{window['deliveries_false']}"
        ),
        (
            f"{'  delay p50/p95':<28}"
            f"{_fmt(window['delay_p50_s'], 's')} / "
            f"{_fmt(window['delay_p95_s'], 's')}"
        ),
        (
            f"{'  wait p95 / carry p95':<28}"
            f"{_fmt(window['wait_p95_s'], 's')} / "
            f"{_fmt(window['carry_p95_s'], 's')}"
        ),
        f"{'  final hop p95':<28}{_fmt(window['final_hop_p95_s'], 's')}",
        "-" * 56,
        "attribution",
    ]
    for cause in sorted(attribution):
        lines.append(f"{'  ' + cause:<28}{attribution[cause]}")
    brokers = snapshot["brokers"]
    if brokers:
        lines.append("-" * 56)
        lines.append("top brokers by dwell")
        for row in brokers:
            lines.append(
                f"  node {row['node']:<8}"
                f"dwell {_fmt(row['dwell_s'], 's'):<14}"
                f"carried {row['deliveries_carried']}"
            )
    return "\n".join(lines)
