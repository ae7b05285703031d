"""Every workload and metric the benchmark reports, with its meaning.

``BENCHMARK.json`` at the repository root lists the same names (the
tests check that the two agree); this module is where each metric's
definition, direction, workloads and, for per-layer metrics, the
end-to-end metric it should move are written down.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

SIM_WORKLOADS = ("sim-haggle",)
SERVE_WORKLOADS = ("serve-fanout", "serve-wire")
WORKLOADS = SIM_WORKLOADS + SERVE_WORKLOADS

WHY = {
    "sim-haggle": (
        "79 nodes, 3 days, 20 h TTL, repeated half-second B-SUB runs: the "
        "per-contact path (election, decay, A-/M-merge, Bloom match, "
        "preference forwarding) dominates"
    ),
    "serve-fanout": (
        "in-process BrokerCore, 2,000 sessions, a fixed cycle of publishes and "
        "re-subscribes: dispatch, match, counters, per-recipient encode and decode"
    ),
    "serve-wire": (
        "broker in its own process, 1 publisher to 1 subscriber over loopback, "
        "1-byte payloads: per-message decode, dispatch, encode, drain, loop lag"
    ),
}

#: name -> (unit, better, bound, definition per workload family).  Every
#: time is wall time as measured on the host.  Each workload repeats one
#: unit of identical work many times; ``run_s`` is the unit's time at the
#: fastest the host ran it (see README.md, "Why the fastest repetitions").
END_TO_END: Dict[str, Tuple[str, str, float, str]] = {
    "setup_s": (
        "s", "lower", 0.25,
        "median over set-ups spread over the run. Sims: trace build plus the "
        "runner's setup phase of each repetition. Broker: start until every "
        "session has said Hello and subscribed, repeated every 2 s of "
        "measuring.",
    ),
    "run_s": (
        "s", "lower", 0.25,
        "wall time of the workload's unit of work at the fastest the host ran "
        "it (the median repetition is the per-layer run_s.median). sim-haggle: "
        "the runner's simulate + summarize phases of one repro.api.run, as the "
        "sum of each contact-to-contact step's fastest time over the "
        "repetitions. serve-fanout: one cycle of 40 publishes (each until every "
        "copy is decoded) and 6 re-subscribes, as the sum of each operation's "
        "fastest time over the cycles. serve-wire: the fastest closed burst of "
        "2,000 publishes, until the subscriber decoded all of them.",
    ),
    "peak_rss_mb": (
        "MB", "lower", 0.1,
        "peak resident set (VmHWM) of the process executing the program: the "
        "benchmark process for sim-haggle and serve-fanout; the broker "
        "process for serve-wire.",
    ),
    "deliveries_per_s": (
        "1/s", "higher", 0.25,
        "deliveries of one unit of work / run_s. sim-haggle: protocol "
        "deliveries of one run. Broker: client-decoded deliveries of one "
        "cycle (serve-fanout) or burst (serve-wire).",
    ),
}

#: Spans: name -> (end-to-end metric it should move, workloads).
SPANS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "traces.build": ("setup_s", SIM_WORKLOADS),
    "workload.interests": ("setup_s", SIM_WORKLOADS),
    "workload.events": ("setup_s", SIM_WORKLOADS),
    "experiments.derive_df": ("setup_s (iterates every contact)", SIM_WORKLOADS),
    "dtn.engine": ("run_s on sim-haggle (self_s is the engine loop)", SIM_WORKLOADS),
    "pubsub.protocol.on_contact": ("run_s on sim-haggle", SIM_WORKLOADS),
    "pubsub.protocol.on_message": ("run_s on sim-haggle", SIM_WORKLOADS),
    "pubsub.election": ("run_s on sim-haggle", SIM_WORKLOADS),
    "core.tcbf.decay": ("run_s on sim-haggle", SIM_WORKLOADS),
    "core.tcbf.a_merge": (
        "run_s on sim-haggle (serve-fanout: re-subscribes)", SIM_WORKLOADS + ("serve-fanout",)),
    "core.tcbf.m_merge": ("run_s on sim-haggle", SIM_WORKLOADS),
    "core.tcbf.preference": ("run_s on sim-haggle", SIM_WORKLOADS),
    "core.bloom.query": ("run_s on sim-haggle", SIM_WORKLOADS),
    "core.hashing.positions": (
        "run_s on sim-haggle (serve-fanout: re-subscribes)", SIM_WORKLOADS + ("serve-fanout",)),
    "pubsub.node.purge": ("run_s on sim-haggle", SIM_WORKLOADS),
    "pubsub.node.carry": ("run_s on sim-haggle", SIM_WORKLOADS),
    "pubsub.metrics.register": ("run_s on sim-haggle", SIM_WORKLOADS),
    "pubsub.metrics.record": ("run_s on sim-haggle", SIM_WORKLOADS),
    "serve.dispatcher.subscribe": ("setup_s, deliveries_per_s on serve-fanout", ("serve-fanout",)),
    "serve.dispatcher.publish": ("deliveries_per_s, publish_p99_ms on serve-fanout", ("serve-fanout",)),
    "pubsub.wire.encode": (
        "deliveries_per_s on serve-fanout (one encode per recipient copy); "
        "latency_p50_ms.light, sustained_rate_per_s on serve-wire",
        SERVE_WORKLOADS,
    ),
    "pubsub.wire.decode": ("deliveries_per_s on serve-fanout", ("serve-fanout",)),
    "obs.registry.counter": ("deliveries_per_s on serve-fanout", ("serve-fanout",)),
    "serve.broker.decode": ("latency_p50_ms.light, sustained_rate_per_s on serve-wire", ("serve-wire",)),
    "serve.dispatcher.handle": ("latency_p50_ms.light, sustained_rate_per_s on serve-wire", ("serve-wire",)),
    "serve.broker.drain_wait": ("latency_p99_ms.heavy, sustained_rate_per_s on serve-wire", ("serve-wire",)),
}

#: Seconds one run measures (``--seconds``).
RUN_SECONDS = 15

SPAN_FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))

#: Other per-layer metrics: name -> (unit, better, meaning, workloads).
GAUGES: Dict[str, Tuple[str, str, str, Tuple[str, ...]]] = {
    # Deterministic work counts: a performance change must not move them.
    "dtn.contacts": ("count", "higher", "contacts replayed (must not move)", SIM_WORKLOADS),
    "dtn.messages": ("count", "higher", "messages created (must not move)", SIM_WORKLOADS),
    "pubsub.forwards": ("count", "lower", "message transmissions (must not move)", SIM_WORKLOADS),
    "pubsub.deliveries": ("count", "higher", "deliveries (must not move)", SIM_WORKLOADS),
    "pubsub.useful_forward_ratio": (
        "ratio", "higher", "intended deliveries / forwards (must not move)", SIM_WORKLOADS),
    "pubsub.false_injection_ratio": (
        "ratio", "lower", "false injections / injections (must not move)", SIM_WORKLOADS),
    "dtn.channel.refused_ratio": (
        "ratio", "lower", "refused channel sends / sends (must not move)", SIM_WORKLOADS),
    # Input properties of serve-fanout.
    "serve.fanout.recipients.p50": ("count", "higher", "recipients per publish, median", ("serve-fanout",)),
    "serve.fanout.recipients.p99": ("count", "higher", "recipients per publish, p99", ("serve-fanout",)),
    "serve.dispatcher.connected_share": (
        "ratio", "higher", "connected sessions / subscribed nodes", ("serve-fanout",)),
    # serve-wire broker-side observations.
    "serve.broker.loop_lag.p50_ms": (
        "ms", "lower", "broker event-loop lag (10 ms probe), median -> latency_p99_ms.heavy",
        ("serve-wire",)),
    "serve.broker.loop_lag.p99_ms": (
        "ms", "lower", "broker event-loop lag, p99 -> latency_p99_ms.heavy", ("serve-wire",)),
    "serve.registry.frames_in": ("count", "higher", "serve_frames_total scraped from /metrics", ("serve-wire",)),
    "serve.registry.deliveries": (
        "count", "higher", "serve_deliveries_total scraped from /metrics", ("serve-wire",)),
    "serve.registry.send_drops": ("count", "lower", "serve_send_drops_total scraped from /metrics", ("serve-wire",)),
    # Validity of the open-loop generator.
    "load.gen_lag.p50_ms": ("ms", "lower", "send time - due time, median (validity)", ("serve-wire",)),
    "load.gen_lag.p99_ms": ("ms", "lower", "send time - due time, p99 (validity)", ("serve-wire",)),
    "load.backlog.max": ("count", "lower", "max published-but-undecoded messages", ("serve-wire",)),
    # Workload-specific end-to-end figures, measured untraced in the
    # same run (BENCHMARK.json bounds only metrics every workload has).
    "run_s.median": (
        "s", "lower", "median repetition of the unit of work behind run_s; its distance "
        "from run_s shows how much the host slowed the run (or a slow mode of the program)",
        WORKLOADS),
    "error_rate": ("ratio", "lower", "failed / attempted operations", WORKLOADS),
    "publish_p50_ms": (
        "ms", "lower", "publish handed to the core -> every copy decoded, median", ("serve-fanout",)),
    "publish_p99_ms": ("ms", "lower", "same, p99", ("serve-fanout",)),
    "sustained_rate_per_s": (
        "1/s", "higher",
        "highest valid ladder rate with completeness >= 0.999, p99 within the bound and no "
        "growing backlog (null when no ladder step was valid)",
        ("serve-wire",)),
    "latency_p50_ms.light": ("ms", "lower", "due time -> subscriber decode at the light rate, "
                             "median (null when the step was invalid in every attempt)",
                             ("serve-wire",)),
    "latency_p99_ms.light": ("ms", "lower", "same, p99", ("serve-wire",)),
    "latency_p50_ms.heavy": ("ms", "lower", "due time -> subscriber decode at the heavy rate, median",
                             ("serve-wire",)),
    "latency_p99_ms.heavy": ("ms", "lower", "same, p99", ("serve-wire",)),
    "trace.overhead": ("ratio", "lower", "traced run_s / untraced run_s - 1", WORKLOADS),
}


def per_layer_names() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    rows = [
        (f"{span}.{field}", unit, "lower")
        for span in SPANS
        for field, unit in SPAN_FIELDS
    ]
    rows.extend((name, unit, better) for name, (unit, better, _m, _w) in GAUGES.items())
    return rows


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalog describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _doc) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_names()
        ],
    }
