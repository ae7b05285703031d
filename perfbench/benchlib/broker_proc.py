"""Broker process for ``serve-wire``.

    python3 -m perfbench.benchlib.broker_proc [--trace-spans PATH]

Starts a ``BrokerServer`` on the default ``ServeSpec`` (ephemeral ports,
metrics endpoint on) and prints ``{"port", "metrics_port"}`` as one
JSON line.  It serves until a line arrives on stdin (or stdin closes),
then stops the broker gracefully and prints one JSON line with the
process's peak RSS, the event-loop lag seen by a 10 ms probe, the
broker's summary and, with ``--trace-spans``, the per-layer span totals
(the spans themselves go to PATH).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from repro.serve.broker import BrokerServer
from repro.serve.eventloop import install_event_loop_policy
from repro.serve.spec import ServeSpec

from . import catalog, layers, stats
from .common import peak_rss_mb
from .spans import Tracer

LAG_PROBE_S = 0.01


async def _serve(tracer) -> dict:
    loop = asyncio.get_running_loop()
    server = BrokerServer(ServeSpec(port=0, metrics_port=0))
    await server.start()
    print(json.dumps({"port": server.port, "metrics_port": server.metrics_port}),
          flush=True)

    stop = asyncio.Event()
    stdin = sys.stdin.fileno()

    def on_stdin() -> None:
        os.read(stdin, 4096)
        loop.remove_reader(stdin)
        stop.set()

    loop.add_reader(stdin, on_stdin)
    lags = []
    while not stop.is_set():
        started = loop.time()
        await asyncio.sleep(LAG_PROBE_S)
        lags.append(loop.time() - started - LAG_PROBE_S)
    summary = await server.stop()
    lag_ms = [max(0.0, lag) * 1000.0 for lag in lags] or [0.0]
    report = {
        "rss_mb": peak_rss_mb(),
        "loop_lag_p50_ms": stats.nearest_rank(lag_ms, 50),
        "loop_lag_p99_ms": stats.nearest_rank(lag_ms, 99),
        "lag_samples": len(lags),
        "summary": summary,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(catalog.SPANS)
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-spans", default=None)
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_spans:
        tracer = Tracer(run_id=f"serve-wire-broker-{os.getpid()}")
        layers.install_broker(tracer)
    install_event_loop_policy()
    report = asyncio.run(_serve(tracer))
    if tracer is not None:
        tracer.write_jsonl(args.trace_spans)
    print(json.dumps(report, default=str), flush=True)


if __name__ == "__main__":
    main()
