#!/usr/bin/env python
"""CI gate: live broker soak + online/offline observability parity.

Starts a broker in-process (trace streaming to a temp file), drives it
with a deterministic multi-session load over real sockets, then checks
the PR's acceptance bar end to end:

1. every session connects, **zero** frame decode errors anywhere;
2. the broker shuts down cleanly (complete trace, ``sim_end`` emitted);
3. the Prometheus scrape is non-empty while the soak is running;
4. the trace analyzer over the broker's emitted schema-v2 trace
   reproduces the broker's live registry counters **exactly** —
   created messages, intended pairs, direct forwards, and total /
   intended / false deliveries.

With ``--workers N`` (N > 1) the soak runs against the multi-process
SO_REUSEPORT fleet instead: the gate then checks that the analyzer
over the deterministically *merged* shard trace equals the **sum** of
the workers' parity counters — the fleet-wide version of the same
online/offline contract.

With ``--live`` a :class:`repro.obs.live.LiveTailer` additionally
follows the growing trace shard(s) *while the soak runs* through
:func:`repro.obs.live.follow_merged_traces`, and at shutdown its totals
must exactly equal the offline analyzer's (check 5).  The tailer runs
the analyzer's own counting code, so what this exercises is the follow
reader under real load: partial lines, idle shards, the merge order.

Usage::

    PYTHONPATH=src python scripts/check_serve_parity.py              # quick
    PYTHONPATH=src python scripts/check_serve_parity.py --sessions 1000 \
        --duration 30                                                # soak
    PYTHONPATH=src python scripts/check_serve_parity.py --sessions 1000 \
        --duration 20 --workers 2 --live            # fleet + live tailer

Exit code 0 = all checks green.
"""

import argparse
import asyncio
import sys
import tempfile
import threading
from pathlib import Path

from repro.obs.analyze import PARITY_KEYS, TraceAnalyzer
from repro.obs.live import LiveTailer, follow_merged_traces
from repro.obs.recorder import read_trace_iter
from repro.obs.registry import MetricsRegistry
from repro.serve import LoadDriver, LoadSpec, ServeSpec, start_broker


class LiveTail:
    """A :class:`LiveTailer` pumped from a follower thread.

    Tails every trace shard while the broker is still writing it,
    feeding the tailer in deterministic merge order.  The thread ends
    on its own once every shard has emitted ``sim_end`` (i.e. shortly
    after ``broker.stop()``); ``finish()`` joins it and surfaces any
    exception to the caller.
    """

    def __init__(self, shard_paths):
        self.shard_paths = [str(p) for p in shard_paths]
        self.tailer = LiveTailer()
        self.error = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="live-tail", daemon=True
        )
        self._thread.start()

    def _run(self):
        try:
            pairs = follow_merged_traces(
                self.shard_paths,
                follow=True,
                poll_interval_s=0.05,
                should_stop=self._stop.is_set,
            )
            for _shard, event in pairs:
                self.tailer.feed(event)
        except Exception as error:  # surfaced via finish()
            self.error = error

    def finish(self, timeout_s: float = 30.0) -> None:
        """Join the follower; raise if it failed or never drained."""
        self._thread.join(timeout_s)
        if self._thread.is_alive():
            # A shard never emitted sim_end — unstick the thread and
            # report the hang rather than deadlocking CI.
            self._stop.set()
            self._thread.join(5.0)
            raise RuntimeError(
                "live tailer did not drain the trace shards within "
                f"{timeout_s}s (missing sim_end?)"
            )
        if self.error is not None:
            raise self.error


async def scrape(host: str, port: int) -> str:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: ci\r\n\r\n")
    await writer.drain()
    response = (await reader.read()).decode()
    writer.close()
    return response


async def soak(
    sessions: int, duration: float, trace_path: str, workers: int,
    registry: MetricsRegistry, live: bool = False,
):
    spec = ServeSpec(
        port=0, metrics_port=0, trace_path=trace_path,
        idle_timeout_s=duration + 60, workers=workers,
    )
    broker = await start_broker(spec, registry=registry)
    tail = None
    if live:
        if workers > 1:
            shard_paths = [f"{trace_path}.w{i}" for i in range(workers)]
        else:
            shard_paths = [trace_path]
        tail = LiveTail(shard_paths)
    driver = LoadDriver(
        LoadSpec(
            port=broker.port,
            sessions=sessions,
            publisher_fraction=0.1,
            duration_s=duration,
            publish_rate_per_s=1.0,
            interests_per_node=2,
            arrival="conference",
            seed=13,
        )
    )
    load_task = asyncio.ensure_future(driver.run())
    # Scrape mid-soak: the endpoint must serve while under load.
    await asyncio.sleep(duration / 2)
    prom = await scrape(spec.host, broker.metrics_port)
    report = await load_task
    summary = await broker.stop()
    if tail is not None:
        # Joins once every shard's sim_end has been consumed; raises on
        # a hung shard or a follower error.
        await asyncio.get_running_loop().run_in_executor(None, tail.finish)
    # A fleet's parity is the sum of its workers' counters.
    return report, summary, prom, summary["parity"], tail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=200)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--workers", type=int, default=1,
                        help="run the SO_REUSEPORT fleet with N workers "
                             "(default 1 = single process)")
    parser.add_argument("--live", action="store_true",
                        help="also tail the growing trace with a "
                             "LiveTailer and gate live == offline totals")
    args = parser.parse_args(argv)

    failures = []
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="serve-parity-") as tmp:
        trace_path = str(Path(tmp) / "broker_trace.jsonl")
        report, summary, prom, parity, tail = asyncio.run(
            soak(args.sessions, args.duration, trace_path,
                 args.workers, registry, live=args.live)
        )

        print(f"sessions: {report.sessions_connected}/{args.sessions} "
              f"(failures {report.connect_failures})")
        print(f"published: {report.messages_published}, delivered "
              f"{report.deliveries_received}, "
              f"p95 {report.latency_p95_ms:.2f} ms")
        print(f"broker summary: {summary}")

        if report.sessions_connected != args.sessions:
            failures.append(
                f"only {report.sessions_connected}/{args.sessions} "
                f"sessions connected"
            )
        if report.decode_errors:
            failures.append(
                f"{report.decode_errors} client-side decode errors"
            )
        broker_errors = registry.counter("serve_decode_errors_total").value
        if broker_errors:
            failures.append(f"{broker_errors} broker-side decode errors")
        if not prom.startswith("HTTP/1.1 200") or "serve_" not in prom:
            failures.append("Prometheus scrape empty or not 200")
        if report.messages_published == 0:
            failures.append("no messages published (soak misconfigured)")

        analyzer = TraceAnalyzer()
        for event in read_trace_iter(trace_path):
            analyzer.feed(event)
        offline = analyzer.parity_counters()
        compared = [("dispatcher", parity)]
        if tail is not None:
            print(f"live tailer: {tail.tailer.totals()['events']} "
                  f"events tailed")
            compared.append(("tailer", tail.tailer.parity_counters()))
        for source, counters in compared:
            for key in PARITY_KEYS:
                value = counters[key]
                status = "==" if offline[key] == value else "!="
                print(f"{source} {key}: {value} {status} "
                      f"offline {offline[key]}")
                if offline[key] != value:
                    failures.append(
                        f"{source} parity break on {key}: {value}, "
                        f"offline {offline[key]}"
                    )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("parity check: all green")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
