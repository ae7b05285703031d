"""BENCH_serve — live-broker throughput and latency vs sessions and workers.

Runs the :mod:`repro.serve` broker in-process and drives it with the
deterministic load generator (``python -m repro load``) in one or more
*subprocesses*, so broker and clients each own their own
file-descriptor budget and event loop — the broker cell is measured,
not the client.  Each cell records connected sessions, publish
throughput, end-to-end delivery latency percentiles (client-measured
over real sockets), and the broker's own counters; every cell asserts
**zero decode errors**, which is the acceptance bar for the session
layer.

Two ladders:

* **Session ladder** (1k/5k/10k, single process) — the historical
  curve: throughput and latency vs concurrent sessions.
* **Worker ladder** (1/2/4 SO_REUSEPORT workers at equal offered
  load) — fleet scaling.  On a multi-core host the delivery
  throughput should scale with workers; on a single-core host the
  curve is flat (workers time-share one CPU) and the cell honestly
  records ``cpu_count`` so readers can tell which regime they are in.
* **City rung** (100k sessions, 8 workers × 8 sharded load driver
  subprocesses) — both sides shard to stay inside the per-process
  RLIMIT_NOFILE; drivers use ``node_offset`` for disjoint node ids,
  ``ramp_s`` to spread the connect storm, and a per-shard
  ``bind_host`` source IP (``127.0.0.1x``) because a single loopback
  source address tops out at the ~28k-port ephemeral range of
  4-tuples to one broker address.

Run directly::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI quick

or through pytest (smoke cell only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q
"""

import argparse
import asyncio
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.serve import ServeSpec, event_loop_name, start_broker

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_serve.json"

#: (label, sessions, duration_s, publisher_fraction, rate_per_s,
#:  workers, load_procs, ramp_s, trace, live)
#:
#: ``trace`` writes a schema-v2 trace to a temp file; ``live``
#: additionally attaches the in-broker LiveTailer (``spec.live``).
#: The smoke baseline records a trace too, so the smoke pair isolates
#: the tailer alone.
SMOKE_CELLS = [
    ("smoke-200", 200, 3.0, 0.1, 2.0, 1, 1, None, True, False),
    ("smoke-200-live", 200, 3.0, 0.1, 2.0, 1, 1, None, True, True),
]
FULL_CELLS = [
    # Session ladder (single process, historical curve).
    ("s1k", 1_000, 10.0, 0.1, 1.0, 1, 1, None, False, False),
    ("s5k", 5_000, 10.0, 0.1, 1.0, 1, 1, None, False, False),
    ("s10k", 10_000, 12.0, 0.05, 1.0, 1, 1, None, False, False),
    # Worker ladder: identical offered load, growing fleet.
    ("w1-s2k", 2_000, 10.0, 0.1, 1.0, 1, 1, None, False, False),
    ("w2-s2k", 2_000, 10.0, 0.1, 1.0, 2, 1, None, False, False),
    ("w4-s2k", 2_000, 10.0, 0.1, 1.0, 4, 1, None, False, False),
    # Live-observability pair: identical offered load, trace recording
    # on in both; only the second attaches the in-broker LiveTailer.
    # The broker-side throughput delta between the two is the tailer's
    # overhead (<5% target; recorded in live_overhead, not gated —
    # see check_acceptance).
    ("trace-2k", 2_000, 10.0, 0.1, 1.0, 1, 1, None, True, False),
    ("live-2k", 2_000, 10.0, 0.1, 1.0, 1, 1, None, True, True),
    # City rung: 100k sessions, sharded 8 ways on both sides.  The
    # publisher trickle is tiny on purpose: at 100k subscribers over
    # the 38-key Table II universe a single publish fans out to
    # thousands of sessions, and the rung measures *session scale*
    # (connect storm, fd budgets, mesh replication), not fanout
    # saturation.
    ("s100k", 100_000, 240.0, 0.0, 0.01, 8, 8, 180.0, False, False),
]

#: (baseline label, live label) pairs whose broker-side throughput
#: delta is reported as the live tailer's overhead.
LIVE_PAIRS = [("smoke-200", "smoke-200-live"), ("trace-2k", "live-2k")]


def _raise_nofile() -> int:
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < hard:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
    return resource.getrlimit(resource.RLIMIT_NOFILE)[0]


async def _run_load_shard(
    port: int,
    shard: int,
    sessions: int,
    node_offset: int,
    duration_s: float,
    publisher_fraction: float,
    rate_per_s: float,
    ramp_s: Optional[float],
    bind_host: Optional[str],
) -> Dict:
    spec_str = (
        f"port={port},sessions={sessions},"
        f"duration_s={duration_s},publisher_fraction={publisher_fraction},"
        f"publish_rate_per_s={rate_per_s},interests_per_node=2,"
        f"seed={13 + shard},node_offset={node_offset}"
    )
    if ramp_s is not None:
        spec_str += f",ramp_s={ramp_s}"
    if bind_host is not None:
        spec_str += f",bind_host={bind_host}"
    proc = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro", "load",
        "--spec", spec_str, "--json",
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": _pythonpath()},
    )
    stdout, stderr = await proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(
            f"load shard {shard} failed (rc={proc.returncode}): "
            f"{stderr.decode()[-2000:]}"
        )
    return json.loads(stdout.decode().strip().splitlines()[-1])


async def _run_cell_async(
    label: str,
    sessions: int,
    duration_s: float,
    publisher_fraction: float,
    rate_per_s: float,
    workers: int,
    load_procs: int,
    ramp_s: Optional[float],
    trace: bool,
    live: bool,
    log,
    trace_path: Optional[str] = None,
) -> Dict:
    spec = ServeSpec(
        port=0, idle_timeout_s=duration_s + 60, workers=workers,
        trace_path=trace_path if trace else None, live=live,
    )
    broker = await start_broker(spec)
    per_shard = sessions // load_procs
    started = time.perf_counter()
    # Above ~28k sessions the loopback 4-tuple space to one broker
    # address runs out of ephemeral source ports; give each shard its
    # own 127.0.0.x source IP so each one gets a full port range.
    reports = await asyncio.gather(*[
        _run_load_shard(
            broker.port, shard, per_shard, shard * per_shard,
            duration_s, publisher_fraction, rate_per_s, ramp_s,
            f"127.0.0.{10 + shard}" if load_procs > 1 else None,
        )
        for shard in range(load_procs)
    ])
    wall_s = time.perf_counter() - started
    summary = await broker.stop()
    parity = summary["parity"]

    def total(key: str) -> int:
        return sum(report[key] for report in reports)

    # Across shards the exact union percentile is unknowable from
    # per-shard digests; report the worst shard as the upper envelope.
    latency = max(
        (report["latency"] for report in reports),
        key=lambda d: d["p95_ms"],
    )
    cell = {
        "label": label,
        "sessions": per_shard * load_procs,
        "workers": workers,
        "load_procs": load_procs,
        "ramp_s": ramp_s,
        "trace": trace,
        "live": live,
        "live_parity_ok": summary.get("live_parity_ok") if live else None,
        "sessions_connected": total("sessions_connected"),
        "connect_failures": total("connect_failures"),
        "duration_s": duration_s,
        "wall_s": round(wall_s, 3),
        "messages_published": total("messages_published"),
        "deliveries_client": total("deliveries_received"),
        "deliveries_broker": parity["deliveries_total"],
        "decode_errors": total("decode_errors"),
        "delivery_completeness": round(
            total("deliveries_received")
            / max(1, parity["deliveries_total"]), 4
        ),
        "publish_throughput_per_s": round(
            total("messages_published") / duration_s, 2
        ),
        "delivery_throughput_per_s": round(
            total("deliveries_received") / duration_s, 2
        ),
        "delivery_throughput_broker_per_s": round(
            parity["deliveries_total"] / wall_s, 2
        ),
        "latency_ms": latency,
        "broker_summary": summary,
    }
    log(
        f"{label}: {cell['sessions_connected']}/{cell['sessions']} sessions "
        f"x{workers} workers, "
        f"{cell['delivery_throughput_per_s']}/s delivered, "
        f"p95={latency['p95_ms']:.2f}ms, "
        f"decode_errors={cell['decode_errors']}"
    )
    return cell


def _pythonpath() -> str:
    src = str(Path(__file__).parent.parent / "src")
    existing = os.environ.get("PYTHONPATH", "")
    return f"{src}:{existing}" if existing else src


def _live_overhead(cells: List[Dict]) -> Dict[str, Dict]:
    """Broker-side throughput cost of the live tailer, per LIVE_PAIRS.

    Positive ``overhead_pct`` means the live cell delivered less per
    wall second than its trace-only baseline.  Recorded, not gated:
    CI-timing noise at smoke scale easily exceeds the 5% target, so
    the target lives here as documentation for full-mode readers.
    """
    by_label = {cell["label"]: cell for cell in cells}
    overhead: Dict[str, Dict] = {}
    for base_label, live_label in LIVE_PAIRS:
        base = by_label.get(base_label)
        live = by_label.get(live_label)
        if base is None or live is None:
            continue
        baseline = base["delivery_throughput_broker_per_s"]
        measured = live["delivery_throughput_broker_per_s"]
        if baseline <= 0:
            continue
        overhead[live_label] = {
            "baseline": base_label,
            "baseline_per_s": baseline,
            "live_per_s": measured,
            "overhead_pct": round(100.0 * (baseline - measured) / baseline, 2),
            "target_pct": 5.0,
        }
    return overhead


def run_benchmark(
    smoke: bool = False,
    out_path: Optional[Path] = RESULTS_PATH,
    log=print,
) -> Dict:
    nofile = _raise_nofile()
    cells_spec = SMOKE_CELLS if smoke else FULL_CELLS
    cells: List[Dict] = []
    for (label, sessions, duration, fraction, rate,
         workers, load_procs, ramp_s, trace, live) in cells_spec:
        # Both sides shard: each load subprocess holds sessions/procs
        # sockets, each broker worker roughly sessions/workers.
        per_process = max(sessions // load_procs, sessions // workers)
        if per_process + 256 > nofile:
            log(f"{label}: skipped (needs >{per_process} fds per process, "
                f"limit {nofile})")
            continue
        with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
            cells.append(
                asyncio.run(
                    _run_cell_async(
                        label, sessions, duration, fraction, rate,
                        workers, load_procs, ramp_s, trace, live, log,
                        trace_path=str(Path(tmp) / "trace.jsonl"),
                    )
                )
            )
    document = {
        "mode": "smoke" if smoke else "full",
        "live_overhead": _live_overhead(cells),
        "env": {
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "rlimit_nofile": nofile,
            "event_loop": event_loop_name(),
        },
        "notes": {
            "topology": "broker in-process (one BrokerServer or an "
                        "SO_REUSEPORT BrokerFleet), load drivers in "
                        "subprocesses (separate fd budgets and event "
                        "loops)",
            "latency": "client-measured end-to-end over loopback: "
                       "publisher created_at stamp to subscriber decode; "
                       "multi-shard cells report the worst shard's "
                       "percentiles (upper envelope)",
            "acceptance": "every cell must report decode_errors == 0 and "
                          "all sessions connected",
            "completeness": "deliveries_client / deliveries_broker; below "
                            "1.0 at saturation means the run window closed "
                            "while fanout deliveries were still in flight "
                            "(clients disconnect at duration end), not a "
                            "decode failure",
            "throughput": "delivery_throughput_per_s counts client-decoded "
                          "deliveries per offered second; at saturation "
                          "prefer delivery_throughput_broker_per_s "
                          "(broker-emitted deliveries per wall second), "
                          "which is not truncated by the drain race",
            "live_overhead": "trace-2k vs live-2k (and the smoke pair) "
                             "run identical load with trace recording on; "
                             "only the live cell attaches the in-broker "
                             "LiveTailer, so the broker-side throughput "
                             "delta is the tailer's overhead — target "
                             "<5%, recorded in live_overhead but not "
                             "CI-gated (timing noise)",
            "worker_ladder": "w1/w2/w4 cells offer identical load to "
                             "growing fleets; delivery throughput scales "
                             "with workers only when cpu_count allows — "
                             "on a single-core host the workers time-share "
                             "one CPU and the curve is flat with a small "
                             "peer-mesh overhead",
        },
        "cells": cells,
    }
    if out_path is not None:
        out_path.parent.mkdir(exist_ok=True)
        out_path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        log(f"wrote {out_path}")
    return document


def check_acceptance(document: Dict) -> List[str]:
    """Acceptance failures across all cells ([] = pass)."""
    failures = []
    for cell in document["cells"]:
        if cell["decode_errors"]:
            failures.append(
                f"{cell['label']}: {cell['decode_errors']} decode errors"
            )
        if cell["sessions_connected"] != cell["sessions"]:
            failures.append(
                f"{cell['label']}: only {cell['sessions_connected']}"
                f"/{cell['sessions']} sessions connected"
            )
        if cell["deliveries_client"] == 0:
            failures.append(f"{cell['label']}: no deliveries decoded")
        if cell["live"] and cell["live_parity_ok"] is not True:
            failures.append(
                f"{cell['label']}: in-broker live tailer parity not ok "
                f"(live_parity_ok={cell['live_parity_ok']})"
            )
    return failures


# -- pytest entry point (smoke cell only) ----------------------------------


def test_bench_serve_smoke():
    document = run_benchmark(smoke=True, out_path=None, log=lambda *_: None)
    assert len(document["cells"]) == 2, "smoke cells skipped (fd limit?)"
    assert check_acceptance(document) == []
    for cell in document["cells"]:
        assert cell["messages_published"] > 0
        assert cell["deliveries_client"] > 0
        # At smoke scale the drain completes: client decoded everything.
        assert cell["deliveries_client"] == cell["deliveries_broker"]
    live_cell = document["cells"][1]
    assert live_cell["live"] and live_cell["live_parity_ok"] is True
    # The paired smoke rungs must yield an overhead measurement.
    assert "smoke-200-live" in document["live_overhead"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="quick mode: one small cell")
    parser.add_argument("--out", type=Path, default=RESULTS_PATH,
                        help=f"output JSON path (default: {RESULTS_PATH})")
    args = parser.parse_args(argv)
    document = run_benchmark(smoke=args.smoke, out_path=args.out)
    failures = check_acceptance(document)
    for failure in failures:
        print(f"ACCEPTANCE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
