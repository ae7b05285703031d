"""``serve-wire``: bare 1 -> 1 forwarding through a broker process.

The broker runs in its own process (:mod:`.broker_proc`) on the
default ``ServeSpec``.  This process is the load generator: one thread,
one event loop, exactly two connections — a publisher, and a
subscriber subscribed to every key the publisher uses, so every publish
has exactly one recipient.  Payloads are 1 byte.

* **Closed bursts** give ``run_s`` and ``deliveries_per_s``: a fixed
  number of pre-encoded publishes is written at once and timed until
  the subscriber has decoded the last one.  ``run_s`` is the fastest
  burst: the time the program needs on a host not slowed by other
  tenants, which repeats to a few percent where the mean burst moves by
  a third.  The median burst is reported beside it (``run_s.median``,
  per layer), so a shift of bursts into a slower mode stays visible.
* **Open-loop steps** send on a fixed schedule whatever happens.  Each
  publish is stamped with its *due* time, so a stalled generator or a
  backed-up broker shows up as latency instead of silently delaying
  later sends.  How late the generator ran is reported: a step whose
  generator lag p99 exceeds ``GEN_LAG_BOUND_MS`` while the broker was
  not pushing back is invalid, and is tried again up to ``STEP_TRIES``
  times, within a retry budget of ``RETRY_SHARE`` of the run.  A step still invalid is not reported: its latencies, and a
  sustained rate resting on no valid step, are left out (null).  A
  light and a heavy rate report latency; a rate ladder finds the
  highest rate sustained with completeness >= 0.999, p99 within
  ``LATENCY_BOUND_MS`` and no growing backlog.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hashing import HashFamily
from repro.pubsub import wire
from repro.pubsub.messages import Message
from repro.workload.keys import twitter_trends_2009

from . import stats
from .common import ROOT, Outcome, Window
from .spans import overhead

PUBLISHER, SUBSCRIBER = 1, 2
PAYLOAD = b"\0"
#: Seconds of closed bursts between extra set-ups: a second broker is
#: started, both its sessions connect, and it is stopped again, so that
#: ``setup_s`` (their median) samples the whole burst phase.
SETUP_EVERY_S = 2.0
BURST = 2000
#: Share of ``--seconds`` spent on closed bursts (the rest is open loop).
BURST_SHARE = 0.6
#: Open-loop rates (publishes/s).
LIGHT_RATE = 2000
HEAVY_RATE = 16000
LADDER = (4000, 8000, 12000, 16000, 20000, 24000, 28000, 32000, 40000)
LADDER_STEP_S = 1.0
#: The ladder stops after this many consecutive valid steps that fail.
LADDER_STOP_AFTER = 2
#: Attempts at an open-loop step before it is left out as invalid,
STEP_TRIES = 3
#: while the run's retries have used less than this share of ``--seconds``.
RETRY_SHARE = 0.25
#: Validity and acceptance bounds of an open-loop step.
GEN_LAG_BOUND_MS = 5.0
LATENCY_BOUND_MS = 10.0
COMPLETENESS = 0.999
#: A step's backlog "grows" when it ends above this many seconds of sends.
BACKLOG_BOUND_S = 0.02
#: How long after a step's last due time a copy may arrive before it
#: counts as missing.
DELIVERY_TIMEOUT_S = 5.0
#: Longest wait for the broker to start or a session to be answered.
CONNECT_TIMEOUT_S = 60.0
#: Largest read the subscriber decodes at once.  It yields to the loop
#: after each, so decoding a backlog delays the send schedule by at most
#: one chunk's worth of decoding.
READ_CHUNK = 4096
SMOKE = {"BURST": 200, "LADDER": (500, 1000), "LIGHT_RATE": 500, "HEAVY_RATE": 1000}


class BrokerProcess:
    """The broker subprocess; always stopped by :meth:`stop`."""

    def __init__(self, trace_spans: Optional[str] = None):
        command = [sys.executable, "-m", "perfbench.benchlib.broker_proc"]
        if trace_spans:
            command += ["--trace-spans", trace_spans]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.proc = subprocess.Popen(
            command, cwd=str(ROOT), env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        ready, _w, _x = select.select([self.proc.stdout], [], [], CONNECT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.stop()
            raise RuntimeError("broker process did not start listening")
        ports = json.loads(line)
        self.port = ports["port"]
        self.metrics_port = ports["metrics_port"]

    def stop(self) -> dict:
        """Ask the broker to shut down; returns its final report."""
        report = {}
        try:
            self.proc.stdin.write(b"stop\n")
            self.proc.stdin.close()
            line = self.proc.stdout.readline()
            report = json.loads(line) if line.strip() else {}
            self.proc.wait(timeout=30)
        except (BrokenPipeError, subprocess.TimeoutExpired, ValueError):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        return report


class Subscriber:
    """Reads and decodes the subscriber's stream, stamping decodes."""

    def __init__(self, reader: asyncio.StreamReader):
        self.reader = reader
        self.decoder = wire.StreamDecoder(
            HashFamily(num_hashes=4, num_bits=256), 50.0
        )
        #: message id -> (decode time, stamped created_at)
        self.decoded: Dict[int, Tuple[float, float]] = {}
        self.duplicates = 0
        self.decode_errors = 0
        self.hellos = 0
        self.target = 0
        self.reached = asyncio.Event()

    def expect(self, total: int) -> None:
        self.target = total
        self.reached.clear()
        if len(self.decoded) >= total:
            self.reached.set()

    async def run(self) -> None:
        while True:
            chunk = await self.reader.read(READ_CHUNK)
            if not chunk:
                return
            now = time.perf_counter()
            result = self.decoder.feed(chunk)
            if result.error is not None:
                self.decode_errors += 1
                return
            for frame in result.frames:
                if isinstance(frame, wire.MessageBundle):
                    for message in frame.messages:
                        if message.id in self.decoded:
                            self.duplicates += 1
                        else:
                            self.decoded[message.id] = (now, message.created_at)
                elif isinstance(frame, wire.Hello):
                    self.hellos += 1
            if len(self.decoded) >= self.target:
                self.reached.set()
            # A read served from the stream's buffer does not yield.
            await asyncio.sleep(0)


class Generator:
    """Publisher plus subscriber sessions against one broker."""

    def __init__(self, seed: int, broker: BrokerProcess, cfg: dict):
        self.broker = broker
        self.seed = seed
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        distribution = twitter_trends_2009()
        self.keys = list(distribution.keys)
        self.weights = np.asarray(distribution.weights)
        self.next_id = 0
        self.frames_sent = 0
        self.backlog_max = 0
        self.gen_lag_s: List[float] = []
        self.pub = self.sub = self.sub_task = None

    async def connect(self) -> None:
        """Both sessions say Hello, the subscriber subscribes; returns
        once the broker has answered a second Hello on each session
        (frames are handled in order, so the subscription is in place)."""
        port = self.broker.port
        self.pub_reader, self.pub = await asyncio.open_connection("127.0.0.1", port)
        sub_reader, self.sub = await asyncio.open_connection("127.0.0.1", port)
        self.subscriber = Subscriber(sub_reader)
        self.sub_task = asyncio.ensure_future(self.subscriber.run())

        def hello(node):
            return wire.encode_frame(
                wire.Hello(node_id=node, is_broker=False, degree=0, time=0.0)
            )

        self.sub.write(hello(SUBSCRIBER)
                       + wire.encode_frame(wire.Subscribe(tuple(self.keys)))
                       + hello(SUBSCRIBER))
        self.pub.write(hello(PUBLISHER) + hello(PUBLISHER))
        self.frames_sent += 5
        await self.sub.drain()
        await self.pub.drain()
        replies = wire.StreamDecoder(HashFamily(num_hashes=4, num_bits=256), 50.0)
        seen = 0
        while seen < 2:
            chunk = await self.pub_reader.read(1 << 16)
            if not chunk:
                raise ConnectionError("broker closed the publisher session")
            seen += len(replies.feed(chunk).frames)
        while self.subscriber.hellos < 2:
            await asyncio.sleep(0.001)

    def _frames(self, count: int, spacing_s: float) -> List[bytes]:
        """*count* pre-encoded publishes; publish i is stamped i*spacing."""
        picks = self.rng.choice(len(self.keys), size=count, p=self.weights)
        frames = []
        for i, pick in enumerate(picks):
            message = Message(
                id=self.next_id, keys=frozenset((self.keys[pick],)),
                source=PUBLISHER, created_at=i * spacing_s, ttl_s=3600.0,
                size_bytes=1,
            )
            self.next_id += 1
            frames.append(wire.encode_frame(wire.MessageBundle((message,), (PAYLOAD,))))
        self.frames_sent += count
        return frames

    async def _wait_all(self) -> bool:
        self.subscriber.expect(self.next_id)
        try:
            await asyncio.wait_for(self.subscriber.reached.wait(), DELIVERY_TIMEOUT_S)
        except asyncio.TimeoutError:
            return False
        return True

    async def burst(self) -> Optional[float]:
        """One closed burst; seconds until the last copy decoded."""
        first = self.next_id
        data = b"".join(self._frames(self.cfg["BURST"], 0.0))
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            self.pub.write(data)
            await self.pub.drain()
            arrived = await self._wait_all()
        finally:
            gc.enable()
        if not arrived:
            return None
        decoded = self.subscriber.decoded
        return max(decoded[i][0] for i in range(first, self.next_id)) - started

    async def step(self, rate: float, duration_s: float) -> dict:
        """One open-loop step at *rate* publishes/s."""
        count = max(1, int(rate * duration_s))
        frames = self._frames(count, 1.0 / rate)
        gc.collect()
        gc.disable()
        try:
            return await self._step(rate, count, frames)
        finally:
            gc.enable()

    async def _step(self, rate: float, count: int, frames: List[bytes]) -> dict:
        first = self.next_id - count
        transport = self.pub.transport
        lags = []
        backlog_max = 0
        pushed_back = False
        sent = 0
        loop_start = time.perf_counter()
        origin = loop_start + 0.005
        while sent < count:
            now = time.perf_counter()
            due_now = min(count, int((now - origin) * rate) + 1)
            if due_now <= sent:
                await asyncio.sleep(origin + sent / rate - now)
                continue
            self.pub.write(b"".join(frames[sent:due_now]))
            lags.extend(now - (origin + i / rate) for i in range(sent, due_now))
            sent = due_now
            # Earlier steps drained fully, so every id below *first* is
            # decoded: the backlog is this step's sent-but-undecoded.
            backlog_max = max(backlog_max, first + sent - len(self.subscriber.decoded))
            # drain() waits only above the high-water mark: the broker
            # is not keeping up, and the lag that follows is its doing.
            if transport.get_write_buffer_size() > transport.get_write_buffer_limits()[1]:
                pushed_back = True
            await self.pub.drain()
        backlog_end = first + count - len(self.subscriber.decoded)
        complete_by = origin + count / rate + 0.1
        arrived = await self._wait_all()
        decoded = self.subscriber.decoded
        latencies, on_time = [], 0
        for i in range(first, first + count):
            if i in decoded:
                at, stamp = decoded[i]
                latencies.append((at - origin - stamp) * 1000.0)
                on_time += at <= complete_by
        self.gen_lag_s.extend(lags)
        self.backlog_max = max(self.backlog_max, backlog_max)
        lag_ms = [lag * 1000.0 for lag in lags]
        result = {
            "rate": rate,
            "count": count,
            "arrived": arrived,
            "completeness": on_time / count,
            "p50_ms": stats.nearest_rank(latencies, 50) if latencies else None,
            "p99_ms": stats.nearest_rank(latencies, 99) if latencies else None,
            "p99_supported": stats.supports(len(latencies), 99),
            "gen_lag_p99_ms": stats.nearest_rank(lag_ms, 99),
            "pushed_back": pushed_back,
            "backlog_end": backlog_end,
        }
        result["valid"] = pushed_back or result["gen_lag_p99_ms"] <= GEN_LAG_BOUND_MS
        result["sustained"] = (
            result["valid"] and arrived
            and result["completeness"] >= COMPLETENESS
            and result["p99_ms"] is not None and result["p99_ms"] <= LATENCY_BOUND_MS
            and backlog_end <= max(1, rate * BACKLOG_BOUND_S)
        )
        return result

    async def scrape(self) -> Dict[str, float]:
        """The broker registry, from ``GET /metrics``."""
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.broker.metrics_port
        )
        writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
        await writer.drain()
        body = await reader.read()
        writer.close()
        await writer.wait_closed()
        values = {}
        text = body.split(b"\r\n\r\n", 1)[-1].decode()
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    async def close(self) -> None:
        for writer in (self.pub, self.sub):
            if writer is None:
                continue
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self.sub_task is not None:
            self.sub_task.cancel()
            try:
                await self.sub_task
            except asyncio.CancelledError:
                pass


class RetryBudget:
    """Seconds of open-loop steps a run may spend on retries."""

    def __init__(self, seconds: float):
        self.left = seconds

    def allow(self, duration_s: float) -> bool:
        """Whether a retry of *duration_s* fits; if so, it is spent."""
        if self.left < duration_s:
            return False
        self.left -= duration_s
        return True


async def _valid_step(gen, rate: float, duration_s: float,
                      budget: Optional[RetryBudget] = None) -> dict:
    """An open-loop step, tried again while the generator ran late (up
    to ``STEP_TRIES`` attempts, while *budget* allows); the result is
    invalid only when every attempt was."""
    for attempt in range(1, STEP_TRIES + 1):
        result = await gen.step(rate, duration_s)
        result["attempts"] = attempt
        if result["valid"] or attempt == STEP_TRIES:
            break
        if budget is not None and not budget.allow(duration_s):
            break
    return result


async def _ladder(gen, rates: Sequence[float],
                  budget: Optional[RetryBudget] = None) -> List[dict]:
    """Steps up the rate ladder.  An invalid step neither holds nor
    fails; the ladder stops after ``LADDER_STOP_AFTER`` consecutive
    valid steps that fail."""
    steps, failing = [], 0
    for rate in rates:
        step = await _valid_step(gen, rate, LADDER_STEP_S, budget)
        steps.append(step)
        if step["valid"]:
            failing = 0 if step["sustained"] else failing + 1
        if failing >= LADDER_STOP_AFTER:
            break
    return steps


def sustained_rate(ladder: Sequence[dict]) -> Optional[float]:
    """Highest rate a valid ladder step sustained: 0.0 when none held,
    None (not measured) when no step was valid."""
    valid = [step for step in ladder if step["valid"]]
    if not valid:
        return None
    return float(max((s["rate"] for s in valid if s["sustained"]), default=0))


def _reported(step: dict, key: str) -> Optional[float]:
    """A step's figure, or None when the step is invalid."""
    return step[key] if step["valid"] else None


async def _bursts(gen: Generator, window: Window,
                  setups: Optional[List[float]] = None) -> List[Optional[float]]:
    """A warm-up burst, then bursts while *window* asks for more (at
    least three).  With *setups*, an extra set-up is timed every
    ``SETUP_EVERY_S`` seconds between bursts and appended to it."""
    await gen.burst()
    times = []
    since = time.perf_counter()
    while len(times) < 3 or window.more(min(times)):
        if setups is not None and time.perf_counter() - since >= SETUP_EVERY_S:
            setup_s, _gen, _r, _report = await _with_broker(gen.seed, gen.cfg, None)
            setups.append(setup_s)
            since = time.perf_counter()
        times.append(await gen.burst())
        if times[-1] is None:
            break
    return times


async def _with_broker(seed: int, cfg: dict, measure, trace_spans=None):
    """Start a broker, connect both sessions, run *measure* (if any).

    Returns (setup seconds, generator, measure's result, broker report);
    the broker process is stopped whatever happens.
    """
    started = time.perf_counter()
    broker = BrokerProcess(trace_spans)
    gen = Generator(seed, broker, cfg)
    try:
        await asyncio.wait_for(gen.connect(), CONNECT_TIMEOUT_S)
        setup_s = time.perf_counter() - started
        result = await measure(gen) if measure is not None else None
        scrape = await gen.scrape() if measure is not None else {}
    finally:
        await gen.close()
        report = broker.stop()
    report["scrape"] = scrape
    return setup_s, gen, result, report


def _check_delivery(out: Outcome, gen: Generator, report: dict) -> None:
    """Client decodes == publishes sent == broker deliveries, no errors."""
    sub = gen.subscriber
    sent = gen.next_id
    out.attempted += sent
    missing = sent - len(sub.decoded)
    out.check(missing == 0, f"{missing} of {sent} publishes never decoded",
              weight=max(1, missing))
    out.check(sub.duplicates == 0, f"{sub.duplicates} duplicate copies",
              weight=max(1, sub.duplicates))
    out.check(sub.decode_errors == 0, "subscriber stream failed to decode")
    scrape = report.get("scrape", {})
    delivered = scrape.get("serve_deliveries_total")
    out.check(delivered == sent,
              f"broker counted {delivered} deliveries for {sent} publishes")
    frames_in = scrape.get("serve_frames_total")
    out.check(frames_in == gen.frames_sent,
              f"broker counted {frames_in} frames, clients sent {gen.frames_sent}")
    drops = scrape.get("serve_send_drops_total", 0.0)
    out.check(drops == 0, f"broker dropped {drops} sends")


def _ms(values: List[float], p: float) -> float:
    return stats.nearest_rank([v * 1000.0 for v in values], p)


def _completed(bursts: List[Optional[float]]) -> List[float]:
    done = [b for b in bursts if b is not None]
    if not done:
        raise RuntimeError("no closed burst completed")
    return done


def run_workload(workload: str, seed: int, seconds: float, trace_run: bool,
                 span_path: Optional[str] = None, smoke: bool = False) -> Outcome:
    cfg = {"BURST": BURST, "LADDER": LADDER, "LIGHT_RATE": LIGHT_RATE,
           "HEAVY_RATE": HEAVY_RATE}
    if smoke:
        cfg.update(SMOKE)
    out = Outcome()

    window = Window(max(1.0, BURST_SHARE * seconds), None if smoke else workload)

    setups = []

    async def full(gen: Generator) -> dict:
        bursts = await _bursts(gen, window, setups)
        step_s = max(1.0, 0.15 * seconds)
        budget = RetryBudget(RETRY_SHARE * seconds)
        light = await _valid_step(gen, cfg["LIGHT_RATE"], step_s, budget)
        heavy = await _valid_step(gen, cfg["HEAVY_RATE"], step_s, budget)
        ladder = await _ladder(gen, cfg["LADDER"], budget)
        return {"bursts": bursts, "light": light, "heavy": heavy, "ladder": ladder}

    gc.collect()
    setup_s, gen, result, report = asyncio.run(_with_broker(seed, cfg, full))
    setups.insert(0, setup_s)
    _check_delivery(out, gen, report)
    out.check(None not in result["bursts"], "a closed burst timed out")
    out.check("rss_mb" in report, "the broker process sent no final report")
    bursts = _completed(result["bursts"])
    run_s = min(bursts)
    out.end_to_end = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "peak_rss_mb": report.get("rss_mb", float("nan")),
        "deliveries_per_s": cfg["BURST"] / run_s,
    }
    light, heavy, ladder = result["light"], result["heavy"], result["ladder"]
    notes = out.info.setdefault("notes", [])
    for name, step in (("light", light), ("heavy", heavy)):
        if not step["valid"]:
            notes.append(
                f"{name} step invalid in all {step['attempts']} attempt(s) "
                f"(generator lag p99 {step['gen_lag_p99_ms']:.2f} ms > "
                f"{GEN_LAG_BOUND_MS} ms): its latencies are not reported"
            )
    sustained = sustained_rate(ladder)
    if sustained is None:
        notes.append("no valid ladder step: the sustained rate is not reported")
    scrape = report["scrape"]
    out.layers.update({
        "run_s.median": statistics.median(bursts),
        "sustained_rate_per_s": sustained,
        "latency_p50_ms.light": _reported(light, "p50_ms"),
        "latency_p99_ms.light": _reported(light, "p99_ms"),
        "latency_p50_ms.heavy": _reported(heavy, "p50_ms"),
        "latency_p99_ms.heavy": _reported(heavy, "p99_ms"),
        "serve.broker.loop_lag.p50_ms": report.get("loop_lag_p50_ms"),
        "serve.broker.loop_lag.p99_ms": report.get("loop_lag_p99_ms"),
        "serve.registry.frames_in": scrape.get("serve_frames_total"),
        "serve.registry.deliveries": scrape.get("serve_deliveries_total"),
        "serve.registry.send_drops": scrape.get("serve_send_drops_total", 0.0),
        "load.gen_lag.p50_ms": _ms(gen.gen_lag_s, 50),
        "load.gen_lag.p99_ms": _ms(gen.gen_lag_s, 99),
        "load.backlog.max": gen.backlog_max,
    })
    out.info.update(setups_s=setups, bursts_s=bursts, light=light, heavy=heavy,
                    ladder=ladder, run_s_spread=stats.summary(bursts)["spread"],
                    **window.close(run_s))
    if trace_run:
        tgen, tbursts, treport = _traced_bursts(seed, cfg, seconds, span_path)
        _check_delivery(out, tgen, treport)
        out.check(None not in tbursts, "a traced closed burst timed out")
        done = _completed(tbursts)
        out.layers.update(treport.get("layers", {}))
        out.layers["trace.overhead"] = overhead(min(done), run_s)
    out.layers["error_rate"] = out.error_rate
    return out


def _traced_bursts(seed: int, cfg: dict, seconds: float, span_path):
    """Closed bursts against a broker whose layers are traced; returns
    (generator, burst seconds, broker report)."""
    async def bursts(gen: Generator) -> List[Optional[float]]:
        return await _bursts(gen, Window(max(1.0, 0.3 * seconds)))

    _s, gen, times, report = asyncio.run(
        _with_broker(seed, cfg, bursts, trace_spans=span_path or os.devnull)
    )
    return gen, times, report
