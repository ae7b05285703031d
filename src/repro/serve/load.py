"""Asyncio load driver for the broker daemon.

Replays a synthetic pub-sub workload against a live
:class:`~repro.serve.broker.BrokerServer` over real sockets.  The
workload is planned *deterministically* from ``LoadSpec.seed`` before
the first socket opens, reusing the repository's existing generators:

* Interests and message keys are drawn from the Table-II
  :func:`~repro.workload.keys.twitter_trends_2009` distribution (the
  same keys every simulated experiment uses).
* Publish instants are drawn from the :mod:`repro.traces.synthetic`
  diurnal profiles (``flat`` / ``conference`` / ``campus``), compressed
  onto the driver's run window — so a 30 s soak exercises the same
  bursty arrival shape as a day-long simulated trace.

Each session is one asyncio task: connect, ``Hello``, ``Subscribe`` its
interests, then (for the publisher fraction) send ``MessageBundle``
frames at the planned instants while a shared
:class:`~repro.pubsub.wire.StreamDecoder` consumes deliveries.  All
sessions share one run clock, and publishers stamp ``created_at`` with
run-relative send time, so the driver measures true end-to-end
publish->delivery latency across sessions without clock games.

Chaos modes: when ``LoadSpec.faults`` is set, each planned publish may
be dropped (``frame_loss``), have one byte of its encoding flipped
(``corruption`` — the broker must count a decode error, not crash), or
be truncated mid-frame followed by a hard disconnect (``truncation`` —
the broker must count a mid-frame disconnect).  All draws come from a
per-node :class:`random.Random`, so a chaos run is reproducible.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.live import nearest_rank
from ..pubsub.messages import Message
from ..pubsub.wire import (
    Hello,
    MessageBundle,
    StreamDecoder,
    Subscribe,
    encode_frame,
)
from ..traces.synthetic import (
    CAMPUS_PROFILE,
    CONFERENCE_PROFILE,
    FLAT_PROFILE,
)
from ..workload.keys import KeyDistribution, twitter_trends_2009
from .session import BROKER_NODE_ID  # noqa: F401  (re-exported context)
from .spec import LoadSpec

__all__ = ["LoadDriver", "LoadReport", "run_load"]

_PROFILES = {
    "flat": FLAT_PROFILE,
    "conference": CONFERENCE_PROFILE,
    "campus": CAMPUS_PROFILE,
}

#: Sessions ramp up over at most this long (avoids a thundering-herd
#: connect burst at t=0 that measures the OS backlog, not the broker).
_MAX_RAMP_S = 2.0


@dataclass(frozen=True)
class _NodePlan:
    """One session's precomputed script."""

    node_id: int
    interests: Tuple[str, ...]
    #: (run-relative send time, message keys) per planned publish.
    publishes: Tuple[Tuple[float, Tuple[str, ...]], ...]


@dataclass(frozen=True)
class LoadReport:
    """What one load run measured (client side).

    Latency is true end-to-end: run-relative send stamp at the
    publisher to decode completion at the subscriber, across real
    sockets and the broker.
    """

    sessions_requested: int
    sessions_connected: int
    connect_failures: int
    frames_sent: int
    messages_published: int
    deliveries_received: int
    broker_hellos: int
    decode_errors: int
    bytes_received: int
    faults_injected: int
    duration_s: float
    latency_count: int
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_max_ms: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "sessions_requested": self.sessions_requested,
            "sessions_connected": self.sessions_connected,
            "connect_failures": self.connect_failures,
            "frames_sent": self.frames_sent,
            "messages_published": self.messages_published,
            "deliveries_received": self.deliveries_received,
            "broker_hellos": self.broker_hellos,
            "decode_errors": self.decode_errors,
            "bytes_received": self.bytes_received,
            "faults_injected": self.faults_injected,
            "duration_s": self.duration_s,
            "latency": {
                "count": self.latency_count,
                "mean_ms": self.latency_mean_ms,
                "p50_ms": self.latency_p50_ms,
                "p95_ms": self.latency_p95_ms,
                "max_ms": self.latency_max_ms,
            },
        }


class LoadDriver:
    """Plans and executes one load run against a live broker."""

    def __init__(
        self,
        spec: LoadSpec,
        distribution: Optional[KeyDistribution] = None,
    ):
        self.spec = spec
        self.distribution = distribution or twitter_trends_2009()
        self.plans = self._plan()
        # Encoded-frame caches: with Table-II interests most sessions
        # share a handful of distinct subscription sets, and every
        # publish carries the same zero payload — encode each once
        # instead of per session/tick (driver CPU belongs to the
        # broker under bench).
        self._subscribe_cache: Dict[Tuple[str, ...], bytes] = {}
        self._payload = b"\0" * spec.size_bytes
        # -- tallies (mutated by session tasks; single event loop, so
        # no locking needed) --
        self.sessions_connected = 0
        self.connect_failures = 0
        self.frames_sent = 0
        self.messages_published = 0
        self.deliveries_received = 0
        self.broker_hellos = 0
        self.decode_errors = 0
        self.bytes_received = 0
        self.faults_injected = 0
        self.latencies_s: List[float] = []

    # -- planning (pure, deterministic) ------------------------------------

    def _plan(self) -> List[_NodePlan]:
        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        profile = _PROFILES[spec.arrival]
        num_publishers = spec.num_publishers
        plans: List[_NodePlan] = []
        for index in range(1, spec.sessions + 1):
            # node_offset shifts ids (not draws): several drivers can
            # share one broker with disjoint node-id ranges while each
            # replays its own deterministic workload.
            node_id = index + spec.node_offset
            interests = tuple(
                sorted(
                    set(
                        self.distribution.sample_many(
                            rng, spec.interests_per_node
                        )
                    )
                )
            )
            publishes: List[Tuple[float, Tuple[str, ...]]] = []
            if index <= num_publishers:
                count = max(
                    1, round(spec.publish_rate_per_s * spec.duration_s)
                )
                # The diurnal profiles shape a *day*; sample over one
                # canonical day and compress onto the run window so a
                # 30 s soak keeps the day's burst structure.
                day = profile.sample_times(count, 86400.0, rng)
                times = np.sort(day / 86400.0 * spec.duration_s * 0.9)
                for t in times:
                    keys = tuple(
                        sorted(
                            set(
                                self.distribution.sample_many(
                                    rng, spec.keys_per_message
                                )
                            )
                        )
                    )
                    publishes.append((float(t), keys))
            plans.append(
                _NodePlan(
                    node_id=node_id,
                    interests=interests,
                    publishes=tuple(publishes),
                )
            )
        return plans

    # -- execution ----------------------------------------------------------

    async def run(self) -> LoadReport:
        """Run every planned session; returns the aggregate report."""
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        if self.spec.ramp_s is not None:
            ramp = min(self.spec.ramp_s, self.spec.duration_s)
        else:
            ramp = min(_MAX_RAMP_S, self.spec.duration_s / 5.0)
        tasks = [
            asyncio.ensure_future(
                self._session(plan, t0, ramp * i / max(1, len(self.plans)))
            )
            for i, plan in enumerate(self.plans)
        ]
        await asyncio.gather(*tasks, return_exceptions=True)
        wall = loop.time() - t0
        lat = sorted(self.latencies_s)

        def _pct(p: float) -> float:
            return nearest_rank(lat, p) * 1000.0 if lat else 0.0

        return LoadReport(
            sessions_requested=self.spec.sessions,
            sessions_connected=self.sessions_connected,
            connect_failures=self.connect_failures,
            frames_sent=self.frames_sent,
            messages_published=self.messages_published,
            deliveries_received=self.deliveries_received,
            broker_hellos=self.broker_hellos,
            decode_errors=self.decode_errors,
            bytes_received=self.bytes_received,
            faults_injected=self.faults_injected,
            duration_s=wall,
            latency_count=len(lat),
            latency_mean_ms=(
                sum(lat) / len(lat) * 1000.0 if lat else 0.0
            ),
            latency_p50_ms=_pct(50),
            latency_p95_ms=_pct(95),
            latency_max_ms=lat[-1] * 1000.0 if lat else 0.0,
        )

    async def _session(
        self, plan: _NodePlan, t0: float, ramp_delay: float
    ) -> None:
        spec = self.spec
        loop = asyncio.get_running_loop()
        if ramp_delay > 0:
            await asyncio.sleep(ramp_delay)
        try:
            reader, writer = await asyncio.open_connection(
                spec.host, spec.port,
                local_addr=(
                    (spec.bind_host, 0) if spec.bind_host else None
                ),
            )
        except OSError:
            self.connect_failures += 1
            return
        self.sessions_connected += 1
        chaos = (
            random.Random(spec.seed * 1000003 + plan.node_id)
            if spec.faults is not None and spec.faults.channel_faults
            else None
        )
        decoder = StreamDecoder(
            # Client-side decoding only sees Hello / MessageBundle, but
            # a shared family keeps any filter frame decodable too.
            family=self._family(),
            initial_value=spec.initial_value,
        )
        end_at = t0 + spec.duration_s
        reader_task = asyncio.ensure_future(
            self._consume(reader, decoder, t0, end_at)
        )
        try:
            writer.write(
                encode_frame(
                    Hello(
                        node_id=plan.node_id, is_broker=False,
                        degree=0, time=loop.time() - t0,
                    )
                )
            )
            self.frames_sent += 1
            if plan.interests:
                writer.write(self._encoded_subscribe(plan.interests))
                self.frames_sent += 1
            await writer.drain()
            truncated = await self._publish_loop(
                plan, writer, t0, end_at, chaos
            )
            if not truncated:
                remaining = end_at - loop.time()
                if remaining > 0:
                    await asyncio.sleep(remaining)
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _publish_loop(
        self,
        plan: _NodePlan,
        writer: asyncio.StreamWriter,
        t0: float,
        end_at: float,
        chaos: Optional[random.Random],
    ) -> bool:
        """Send the planned bundles; True if chaos truncated the session."""
        spec = self.spec
        loop = asyncio.get_running_loop()
        payload = self._payload
        for send_at, keys in plan.publishes:
            delay = (t0 + send_at) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if loop.time() >= end_at:
                break
            message = Message.create(
                keys=frozenset(keys),
                source=plan.node_id,
                created_at=loop.time() - t0,
                ttl_s=spec.ttl_s,
                size_bytes=spec.size_bytes,
            )
            encoded = encode_frame(MessageBundle((message,), (payload,)))
            if chaos is not None:
                draw = chaos.random()
                faults = spec.faults
                if draw < faults.frame_loss:
                    self.faults_injected += 1
                    continue
                if draw < faults.frame_loss + faults.corruption:
                    self.faults_injected += 1
                    index = chaos.randrange(len(encoded))
                    encoded = (
                        encoded[:index]
                        + bytes((encoded[index] ^ 0xFF,))
                        + encoded[index + 1:]
                    )
                elif draw < (
                    faults.frame_loss + faults.corruption + faults.truncation
                ):
                    self.faults_injected += 1
                    writer.write(encoded[: max(1, len(encoded) // 2)])
                    await writer.drain()
                    return True
            writer.write(encoded)
            await writer.drain()
            self.frames_sent += 1
            self.messages_published += 1
        return False

    async def _consume(
        self,
        reader: asyncio.StreamReader,
        decoder: StreamDecoder,
        t0: float,
        end_at: float,
    ) -> None:
        """Decode broker frames until the run window closes."""
        loop = asyncio.get_running_loop()
        while True:
            remaining = end_at - loop.time() + 0.5
            if remaining <= 0:
                return
            try:
                chunk = await asyncio.wait_for(
                    reader.read(1 << 16), timeout=remaining
                )
            except asyncio.TimeoutError:
                return
            if not chunk:
                return
            self.bytes_received += len(chunk)
            result = decoder.feed(chunk, time=loop.time() - t0)
            now = loop.time() - t0
            for frame in result.frames:
                if isinstance(frame, MessageBundle):
                    self.deliveries_received += len(frame.messages)
                    for message in frame.messages:
                        self.latencies_s.append(
                            max(0.0, now - message.created_at)
                        )
                elif isinstance(frame, Hello):
                    self.broker_hellos += 1
            if result.error is not None:
                self.decode_errors += 1
                return

    def _encoded_subscribe(self, interests: Tuple[str, ...]) -> bytes:
        encoded = self._subscribe_cache.get(interests)
        if encoded is None:
            encoded = self._subscribe_cache[interests] = encode_frame(
                Subscribe(interests)
            )
        return encoded

    def _family(self):
        from ..core.hashing import HashFamily

        return HashFamily(
            num_hashes=self.spec.num_hashes, num_bits=self.spec.num_bits
        )


def run_load(
    spec: LoadSpec, distribution: Optional[KeyDistribution] = None
) -> LoadReport:
    """Blocking entry point: run one load and return its report.

    This is what ``bsub load`` calls; embed :class:`LoadDriver` in your
    own event loop for programmatic use alongside a broker.
    """
    driver = LoadDriver(spec, distribution=distribution)
    return asyncio.run(driver.run())
