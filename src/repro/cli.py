"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the whole evaluation pipeline without writing
code:

* ``run``       — one simulation, one protocol, printed summary; add
  ``--trace-out`` / ``--metrics-out`` for a structured event trace
  (JSONL) and a metrics snapshot (see ``docs/observability.md``), or
  ``--faults loss=0.1,crash=2`` to inject faults and print the
  degradation against the fault-free twin (see ``docs/faults.md``).
* ``analyze``   — per-message lineage, latency decomposition, and
  false-positive attribution over a recorded trace.
* ``sweep-ttl`` — the Fig. 7/8 TTL sweep as series tables.
* ``sweep-df``  — the Fig. 9 DF sweep as series tables.
* ``tables``    — regenerate Table I and Table II.
* ``stats``     — contact-trace statistics.
* ``export``    — write a synthetic trace to CSV (for other tools).
* ``synth``     — stream a city-scale synthetic trace to an on-disk
  dataset directory (out-of-core; see ``docs/performance.md``).
* ``serve``     — run the live asyncio TCP broker daemon (binary wire
  format, durable subscriptions, Prometheus metrics, schema-v2 trace
  emission; see ``docs/serving.md``).
* ``load``      — replay a deterministic synthetic workload against a
  live broker and report end-to-end latency.
* ``watch``     — tail a (growing) trace, or a fleet's shards, and
  render a refreshing live summary table (rolling completeness,
  latency percentiles, attribution; see ``docs/observability.md``).
* ``dash``      — the same live view as a dependency-free web
  dashboard (stdlib HTTP server + polling JSON endpoint).

Traces come from the built-in generators (``haggle``, ``mit``,
``mobility``), from a file (``csv:PATH`` / ``txt:PATH``), or from an
on-disk trace dataset (``dataset:DIR``, memory-mapped — a dataset far
larger than RAM opens in constant memory).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .api import ExperimentSpec, resilience, run, sweep
from .dtn.bandwidth import BLUETOOTH_EFFECTIVE_BPS
from .experiments import (
    DF_SWEEP_TTL_MIN,
    ascii_chart,
    format_observability,
    PAPER_DF_VALUES_PER_MIN,
    PAPER_TTL_VALUES_MIN,
    figure_series,
    format_table,
    format_table_i,
    format_table_ii,
    metric_series,
    series_table,
)
from .faults import FaultSpec
from .traces import (
    ContactTrace,
    compute_stats,
    haggle_like,
    load_csv_trace,
    load_whitespace_trace,
    mit_reality_like,
    open_trace_dataset,
)
from .obs import Observability
from .traces.backends import TRACE_BACKEND_ENV_VAR, TRACE_BACKENDS
from .traces.mobility import MobilityConfig, simulate_mobility

__all__ = ["main", "build_parser", "resolve_trace"]


def resolve_trace(
    spec: str, scale: float, seed: int, backend: Optional[str] = None
) -> ContactTrace:
    """Turn a ``--trace`` argument into a ContactTrace.

    ``haggle`` / ``mit`` / ``mobility`` use the built-in generators;
    ``csv:PATH`` and ``txt:PATH`` load recorded traces;
    ``dataset:DIR`` opens an on-disk trace dataset (memory-mapped
    unless *backend* overrides it).
    """
    if spec == "haggle":
        return haggle_like(scale=scale, seed=seed)
    if spec == "mit":
        return mit_reality_like(scale=scale, seed=seed)
    if spec == "mobility":
        config = MobilityConfig(
            num_nodes=max(2, round(50 * max(scale, 0.04))),
            duration_s=scale * 3 * 86_400.0,
            seed=seed,
            name=f"mobility@{scale:g}",
        )
        return simulate_mobility(config)
    if spec.startswith("csv:"):
        return load_csv_trace(spec[4:])
    if spec.startswith("txt:"):
        return load_whitespace_trace(spec[4:])
    if spec.startswith("dataset:"):
        return open_trace_dataset(spec[8:], backend=backend or "mmap")
    raise SystemExit(
        f"unknown trace {spec!r}: use haggle, mit, mobility, csv:PATH, "
        f"txt:PATH or dataset:DIR"
    )


def _resolve_trace(args) -> ContactTrace:
    """resolve_trace plus the ``--trace-backend`` override."""
    if getattr(args, "trace_backend", None):
        os.environ[TRACE_BACKEND_ENV_VAR] = args.trace_backend
    trace = resolve_trace(
        args.trace, args.scale, args.seed,
        backend=getattr(args, "trace_backend", None),
    )
    first_days = getattr(args, "first_days", None)
    if first_days is not None:
        trace = trace.first_days(first_days)
    return trace


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default="haggle",
        help="haggle | mit | mobility | csv:PATH | txt:PATH | dataset:DIR "
             "(default: haggle)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.05,
        help="synthetic trace scale, 1.0 = the paper's contact volume",
    )
    parser.add_argument("--seed", type=int, default=1, help="trace seed")
    parser.add_argument(
        "--min-rate", type=float, default=1 / 1800.0,
        help="minimum per-node message rate, msgs/s (paper: 1/1800)",
    )
    parser.add_argument(
        "--trace-backend", choices=list(TRACE_BACKENDS), default=None,
        help="trace storage backend (default: $BSUB_TRACE_BACKEND or "
             "columnar); all backends produce identical results",
    )
    parser.add_argument(
        "--first-days", type=float, default=None, metavar="DAYS",
        help="keep only the first DAYS days of the trace (handy for "
             "windowing a city-scale dataset down to a runnable slice)",
    )


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep grid: 1 = serial (default), "
             "N = that many processes, 0 = one per CPU; results are "
             "identical for any value",
    )


def _add_filter(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--filter", dest="filter_spec", default=None, metavar="SPEC",
        help="relay filter backend spec: dict | array | "
             "multi[:keys=N,mem=BYTES|:threshold=F,max=H] | "
             "retouched[:clear=B+B+...] | countbf[:rows=R] "
             "(default: the paper's single array-backed TCBF; "
             "see docs/filters.md)",
    )


def _spec(args, **overrides) -> ExperimentSpec:
    defaults = dict(min_rate_per_s=args.min_rate)
    if getattr(args, "filter_spec", None):
        defaults["filter_spec"] = args.filter_spec
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def _cmd_passive(args, trace: ContactTrace) -> int:
    """``run --protocol PASSIVE``: replay the trace with no protocol.

    The passive engine skips interests and the message workload
    entirely (both would be prohibitive at city scale), so this is the
    path that takes a 10⁸-contact dataset end to end: the vectorised
    passive replay streams the mmap columns chunk by chunk.
    """
    import time

    from .dtn.simulator import PassiveProtocol, Simulation

    started = time.perf_counter()
    report = Simulation(
        trace, PassiveProtocol(), rate_bps=BLUETOOTH_EFFECTIVE_BPS,
    ).run()
    elapsed = time.perf_counter() - started
    busiest = (
        max(report.contacts_by_node.values())
        if report.contacts_by_node else 0
    )
    rows = [
        ["trace", trace.name],
        ["protocol", "PASSIVE"],
        ["contacts replayed", report.num_contacts],
        ["trace end (days)", round(report.end_time / 86_400.0, 3)],
        ["channels exhausted", report.channels_exhausted],
        ["nodes seen", len(report.contacts_by_node)],
        ["busiest node contacts", busiest],
    ]
    print(format_table(["metric", "value"], rows, title="Passive replay"))
    # Timings go below the table: padding the value column to their
    # width would make the deterministic rows differ between runs.
    print(f"replay wall-clock (s): {elapsed:.2f}")
    print(f"contacts/s: {report.num_contacts / max(elapsed, 1e-9):,.0f}")
    return 0


def _cmd_run(args) -> int:
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    trace = _resolve_trace(args)
    if args.protocol == "PASSIVE":
        for flag, name in [
            (args.faults, "--faults"), (args.trace_out, "--trace-out"),
            (args.metrics_out, "--metrics-out"),
        ]:
            if flag:
                raise SystemExit(f"{name} is not supported with PASSIVE")
        code = _cmd_passive(args, trace)
        if profiler is not None:
            profiler.disable()
            _print_profile(profiler)
        return code
    faults = FaultSpec.parse(args.faults) if args.faults else None
    spec = _spec(
        args, protocol=args.protocol, ttl_min=args.ttl_min,
        df_per_min=args.df, num_bits=args.num_bits,
        num_hashes=args.num_hashes, faults=faults,
    )
    observing = args.trace_out or args.metrics_out
    obs = Observability.enabled() if observing else None
    report = None
    if faults is not None and faults.enabled:
        report = resilience(trace, spec, obs=obs)
        result = report.faulted
    else:
        result = run(trace, spec, obs=obs)
    if profiler is not None:
        profiler.disable()
    s = result.summary
    rows = [
        ["trace", trace.name],
        ["protocol", result.protocol],
        ["TTL (min)", result.ttl_min],
        ["DF (/min)", round(result.decay_factor_per_min, 4)],
        ["messages", s.num_messages],
        ["intended pairs", s.num_intended_pairs],
        ["delivery ratio", round(s.delivery_ratio, 4)],
        ["mean delay (min)", round(s.mean_delay_min, 1)],
        ["forwardings/delivered", round(s.forwardings_per_delivered, 2)],
        ["false positive ratio", round(s.false_positive_ratio, 4)],
        ["broker fraction", round(result.broker_fraction, 2)],
        ["bytes transferred", round(result.engine.bytes_transferred)],
    ]
    print(format_table(["metric", "value"], rows, title="Run summary"))
    if report is not None:
        print()
        print(format_table(
            ["metric", "faulted", "fault-free"], report.rows(),
            title=f"Resilience vs fault-free twin ({faults.describe()})",
        ))
    if obs is not None:
        print()
        print(format_observability(obs))
        if args.trace_out:
            count = obs.tracer.write_jsonl(args.trace_out)
            print(f"\nwrote {count} events to {args.trace_out}")
        if args.metrics_out:
            if args.metrics_format == "prom":
                obs.registry.write_prom(args.metrics_out)
            else:
                obs.registry.write_json(args.metrics_out)
            print(
                f"wrote metrics ({args.metrics_format}) to {args.metrics_out}"
            )
    if profiler is not None:
        _print_profile(profiler)
    return 0


def _print_profile(profiler) -> None:
    import io
    import pstats

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    print()
    print(stream.getvalue().rstrip())


def _format_seconds(value) -> str:
    if value is None:
        return "-"
    return f"{value / 60.0:.1f} min" if value >= 60 else f"{value:.1f} s"


def _cmd_analyze(args) -> int:
    from .obs import analyze_trace

    analysis = analyze_trace(args.trace_file, top_k=args.top)
    doc = analysis.to_dict()
    messages = doc["messages"]
    deliveries = doc["deliveries"]
    injections = doc["injections"]
    attribution = doc["attribution"]
    latency = doc["latency"]
    overview = [
        ["trace schema", doc["schema"]["trace"]],
        ["events", sum(doc["events"].values())],
        ["messages created", messages["created"]],
        ["intended pairs", messages["intended_pairs"]],
        ["fully delivered", messages["fully_delivered"]],
        ["partially delivered", messages["partially_delivered"]],
        ["undelivered (had recipients)", messages["undelivered"]],
        ["deliveries", deliveries["total"]],
        ["  intended", deliveries["intended"]],
        ["  false", deliveries["false"]],
        ["delivery ratio",
         round(deliveries["delivery_ratio"], 4)
         if deliveries["delivery_ratio"] is not None else "-"],
        ["mean delay", _format_seconds(deliveries["delay_mean_s"])],
        ["median delay", _format_seconds(deliveries["delay_median_s"])],
        ["injections", injections["total"]],
        ["false injections", injections["false"]],
        ["peak live messages (analyzer)",
         doc["memory"]["peak_live_messages"]],
    ]
    print(format_table(["metric", "value"], overview,
                       title=f"Trace analysis — {args.trace_file}"))
    print()
    attribution_rows = [
        ["false injection: relay-filter Bloom FP",
         attribution["relay_filter_fp"]],
        ["wasted injection: genuine but stale interest",
         attribution["genuine_but_stale"]],
        ["false delivery: consumer-filter Bloom FP",
         attribution["direct_bf_fp"]],
        ["false delivery: producer self-match",
         attribution["producer_self"]],
        ["false injections attributed",
         f'{attribution["false_injections_attributed"]}'
         f'/{injections["false"]}'],
    ]
    print(format_table(["cause", "count"], attribution_rows,
                       title="False-positive attribution"))
    print()
    latency_rows = [
        ["deliveries decomposed", latency["decomposed"]],
        ["mean wait at producer",
         _format_seconds(latency["producer_wait_mean_s"])],
        ["mean in-flight carry (broker dwell)",
         _format_seconds(latency["carry_mean_s"])],
        ["mean final hop", _format_seconds(latency["final_hop_mean_s"])],
        ["max decomposition residual (s)",
         f'{latency["max_residual_s"]:.2e}'],
    ]
    print(format_table(["component", "value"], latency_rows,
                       title="Latency decomposition"))
    if doc["brokers"]:
        print()
        broker_rows = [
            [
                b["node"],
                _format_seconds(b["dwell_s"]),
                b["deliveries_carried"],
                b["relay_forwards"],
                b["injections_received"],
                b["false_injections_received"],
            ]
            for b in doc["brokers"]
        ]
        print(format_table(
            ["node", "dwell", "carried", "relayed", "injected", "false inj"],
            broker_rows,
            title="Top broker contributions (by total dwell)",
        ))
    if doc["slowest"]:
        print()
        slow_rows = [
            [
                entry["msg"],
                entry["node"],
                _format_seconds(entry["delay_s"]),
                entry["hops"],
                "yes" if entry["intended"] else "no",
                entry["chain"],
            ]
            for entry in doc["slowest"]
        ]
        print(format_table(
            ["msg", "node", "delay", "hops", "intended", "hop chain"],
            slow_rows,
            title=f"Slowest {len(slow_rows)} deliveries",
        ))
    if args.json:
        analysis.write_json(args.json)
        print(f"\nwrote analysis to {args.json}")
    return 0


def _cmd_sweep_ttl(args) -> int:
    trace = _resolve_trace(args)
    ttls = args.ttl or list(PAPER_TTL_VALUES_MIN)
    results = sweep(trace, _spec(args), ttl_min=ttls, jobs=args.jobs)
    for metric, title in [
        ("delivery_ratio", "Delivery ratio"),
        ("delay_min", "Delay (minutes)"),
        ("forwardings", "Forwardings per delivered message"),
    ]:
        data = figure_series(results, metric)
        print(series_table("TTL(min)", ttls, data,
                           title=f"{title} — {trace.name}"))
        print()
        print(ascii_chart(ttls, data, title=f"{title} (chart)"))
        print()
    return 0


def _cmd_sweep_df(args) -> int:
    trace = _resolve_trace(args)
    dfs = args.df_values or list(PAPER_DF_VALUES_PER_MIN)
    spec = _spec(args, ttl_min=args.ttl_min)
    results = sweep(trace, spec, df_per_min=dfs, jobs=args.jobs)
    for metric, title in [
        ("delivery_ratio", "Delivery ratio"),
        ("delay_min", "Delay (minutes)"),
        ("forwardings", "Forwardings per delivered message"),
        ("useless_injection", "False-positive traffic (useless-injection ratio)"),
        ("fpr", "Falsely delivered ratio"),
    ]:
        print(series_table(
            "DF(/min)", dfs, {"B-SUB": metric_series(results, metric)},
            title=f"{title} — {trace.name}, TTL = {args.ttl_min:g} min",
        ))
        print()
    return 0


def _cmd_tables(args) -> int:
    traces = [
        haggle_like(scale=args.scale, seed=args.seed),
        mit_reality_like(scale=args.scale, seed=args.seed),
    ]
    print(format_table_i(traces))
    print()
    print(format_table_ii())
    return 0


def _cmd_stats(args) -> int:
    trace = _resolve_trace(args)
    stats = compute_stats(trace)
    rows = [
        ["name", stats.name],
        ["nodes", stats.num_nodes],
        ["contacts", stats.num_contacts],
        ["duration (days)", round(stats.duration_days, 3)],
        ["contacts/day", round(stats.contacts_per_day, 1)],
        ["mean contact duration (s)", round(stats.mean_contact_duration_s, 1)],
        ["median contact duration (s)", round(stats.median_contact_duration_s, 1)],
        ["mean degree", round(stats.mean_degree, 1)],
        ["max degree", stats.max_degree],
        ["median inter-contact (min)", round(stats.median_inter_contact_s / 60, 1)],
    ]
    print(format_table(["statistic", "value"], rows, title="Trace statistics"))
    return 0


def _cmd_synth(args) -> int:
    import time

    from .traces.synthetic import CityTraceConfig, generate_city_trace

    config = CityTraceConfig(
        num_nodes=args.nodes,
        duration_days=args.days,
        target_contacts=args.contacts,
        num_communities=args.communities,
        seed=args.seed,
        name=args.name,
    )
    started = time.perf_counter()
    trace = generate_city_trace(config, args.output)
    elapsed = time.perf_counter() - started
    rows = [
        ["dataset", args.output],
        ["name", trace.name],
        ["nodes", config.num_nodes],
        ["contacts", trace.num_contacts],
        ["duration (days)", round(trace.end_time / 86_400.0, 3)],
        ["communities", config.num_communities],
        ["seed", config.seed],
        ["generation wall-clock (s)", round(elapsed, 2)],
    ]
    print(format_table(["field", "value"], rows, title="Synthesised dataset"))
    print(f"\nrun it with: python -m repro run --trace dataset:{args.output} "
          "--protocol PASSIVE")
    return 0


def _cmd_export(args) -> int:
    trace = _resolve_trace(args)
    with open(args.output, "w") as fh:
        fh.write("a,b,start,end\n")
        for contact in trace:
            fh.write(
                f"{contact.a},{contact.b},{contact.start:.3f},{contact.end:.3f}\n"
            )
    print(f"wrote {trace.num_contacts} contacts to {args.output}")
    return 0


def _write_metrics(registry, path: str, fmt: str) -> None:
    if fmt == "prom":
        registry.write_prom(path)
    else:
        with open(path, "w") as fh:
            fh.write(registry.to_json())


def _cmd_serve(args) -> int:
    import json

    from .obs.registry import MetricsRegistry
    from .serve import ServeSpec
    from .serve.broker import run_broker

    spec = ServeSpec.parse(args.spec) if args.spec else ServeSpec()
    if args.port is not None:
        spec = spec.with_port(args.port)
    if args.metrics_port is not None:
        spec = spec.with_metrics_port(args.metrics_port)
    if args.trace_out is not None:
        spec = spec.with_trace(args.trace_out)
    if args.workers is not None:
        spec = spec.with_workers(args.workers, spec.state_dir)
    if args.live:
        spec = spec.with_live(True)
    registry = MetricsRegistry()
    print(f"broker: {spec.describe()}", file=sys.stderr)
    summary = run_broker(spec, args.duration, registry=registry)
    if args.metrics_out is not None:
        _write_metrics(registry, args.metrics_out, args.metrics_format)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        flat = {
            key: value
            for key, value in summary.items()
            if not isinstance(value, (dict, list))
        }
        rows = [[key, flat[key]] for key in sorted(flat)]
        print(format_table(["field", "value"], rows, title="Broker run"))
    return 0


def _cmd_load(args) -> int:
    import json

    from .serve import LoadSpec
    from .serve.load import run_load

    spec = LoadSpec.parse(args.spec) if args.spec else LoadSpec()
    if args.host is not None or args.port is not None:
        spec = spec.with_target(
            args.host if args.host is not None else spec.host,
            args.port if args.port is not None else spec.port,
        )
    if args.sessions is not None:
        spec = spec.with_sessions(args.sessions)
    if args.duration is not None:
        spec = spec.with_duration(args.duration)
    print(f"load: {spec.describe()}", file=sys.stderr)
    report = run_load(spec)
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        flat = report.as_dict()
        latency = flat.pop("latency")
        rows = [[key, flat[key]] for key in sorted(flat)]
        rows += [
            [f"latency {key}", round(value, 3)]
            for key, value in latency.items()
        ]
        print(format_table(["field", "value"], rows, title="Load run"))
    # A healthy run decodes every broker frame it receives.
    return 1 if report.decode_errors else 0


def _live_source(args):
    """Build the event stream a watch/dash session consumes."""
    from .obs.live import follow_merged_traces, replay_trace_iter

    if args.replay is not None:
        if len(args.traces) != 1:
            raise SystemExit("--replay takes exactly one trace file")
        return replay_trace_iter(args.traces[0], speed=args.replay)
    return (
        event
        for _shard, event in follow_merged_traces(
            args.traces, follow=args.follow
        )
    )


def _cmd_watch(args) -> int:
    import time

    from .obs.live import LiveTailer, format_watch_table

    tailer = LiveTailer(window_s=args.window)
    refreshing = not args.once and sys.stdout.isatty()
    last_render = 0.0
    try:
        for event in _live_source(args):
            tailer.feed(event)
            now = time.monotonic()
            if refreshing and now - last_render >= args.interval:
                print(
                    "\x1b[2J\x1b[H" + format_watch_table(tailer.snapshot()),
                    flush=True,
                )
                last_render = now
    except KeyboardInterrupt:
        pass
    print(format_watch_table(tailer.snapshot()))
    return 0


def _cmd_dash(args) -> int:
    import time

    from .obs.dash import DashboardServer
    from .obs.live import LiveTailer
    from .obs.registry import MetricsRegistry

    tailer = LiveTailer(registry=MetricsRegistry(), window_s=args.window)
    dash = DashboardServer(tailer, host=args.host, port=args.port).start()
    print(f"dashboard: {dash.url}", file=sys.stderr)
    feeder = dash.feed_from(_live_source(args))
    try:
        if args.duration is not None:
            deadline = time.monotonic() + args.duration
            while time.monotonic() < deadline:
                time.sleep(min(0.2, deadline - time.monotonic()))
        else:
            # Serve until the operator interrupts; the feeder may have
            # finished long ago (offline replay) — the page stays up.
            while True:
                time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        dash.stop()
        feeder.join(timeout=2.0)
    from .obs.live import format_watch_table

    print(format_watch_table(tailer.snapshot()))
    return 0


def _add_live_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "traces", nargs="+", metavar="TRACE",
        help="JSONL trace file(s); pass every fleet shard "
             "(trace.jsonl.w0 trace.jsonl.w1 ...) to watch a fleet",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="tail growing files (tail -f); default reads to EOF",
    )
    parser.add_argument(
        "--replay", type=float, default=None, metavar="SPEED",
        help="replay one finished trace at SPEED trace-seconds per "
             "wall second instead of tailing",
    )
    parser.add_argument(
        "--window", type=float, default=300.0,
        help="rolling-window horizon in trace seconds (default: 300)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="B-SUB (ICDCS 2010) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="one simulation run")
    _add_common(run)
    run.add_argument("--protocol", default="B-SUB",
                     choices=["PUSH", "B-SUB", "PULL", "SPRAY", "PASSIVE"])
    run.add_argument("--ttl-min", type=float, default=600.0)
    run.add_argument("--df", "--df-per-min", type=float, default=None,
                     help="DF per minute (default: derive via Eq. 5)")
    run.add_argument("--num-bits", "--m", type=int, default=256,
                     help="filter size m in bits (default: 256)")
    run.add_argument("--num-hashes", "--k", type=int, default=4,
                     help="hash functions k per filter (default: 4)")
    _add_filter(run)
    run.add_argument("--faults", default=None, metavar="SPEC",
                     help="inject faults and compare against the fault-free "
                          "twin; SPEC is e.g. "
                          "'loss=0.1,trunc=0.05,crash=2,downtime=1800,"
                          "mode=age,seed=3' (see docs/faults.md)")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write the structured event trace as JSONL")
    run.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write the metrics-registry snapshot")
    run.add_argument("--metrics-format", choices=["json", "prom"],
                     default="json",
                     help="metrics snapshot format: canonical JSON "
                          "(default) or Prometheus text exposition")
    run.add_argument("--profile", action="store_true",
                     help="profile trace build + simulation with cProfile "
                          "and print the 25 hottest functions")
    run.set_defaults(func=_cmd_run)

    analyze = commands.add_parser(
        "analyze",
        help="lineage / latency / false-positive analysis of a trace",
        description="Reconstruct per-message lineage from a JSONL event "
                    "trace (as written by 'run --trace-out') and report "
                    "latency decomposition, per-broker contributions, and "
                    "false-positive attribution.",
    )
    analyze.add_argument("trace_file", metavar="TRACE",
                         help="JSONL event trace (from run --trace-out)")
    analyze.add_argument("--json", default=None, metavar="PATH",
                         help="also write the machine-readable analysis.json")
    analyze.add_argument("--top", type=int, default=10,
                         help="rows in the slowest-deliveries and "
                              "broker tables (default: 10)")
    analyze.set_defaults(func=_cmd_analyze)

    sweep_ttl = commands.add_parser("sweep-ttl", help="Fig. 7/8 TTL sweep")
    _add_common(sweep_ttl)
    sweep_ttl.add_argument("--ttl", type=float, nargs="+",
                           help="TTL values in minutes")
    _add_filter(sweep_ttl)
    _add_jobs(sweep_ttl)
    sweep_ttl.set_defaults(func=_cmd_sweep_ttl)

    sweep_df = commands.add_parser("sweep-df", help="Fig. 9 DF sweep")
    _add_common(sweep_df)
    sweep_df.add_argument("--df-values", type=float, nargs="+")
    sweep_df.add_argument("--ttl-min", type=float, default=DF_SWEEP_TTL_MIN)
    _add_filter(sweep_df)
    _add_jobs(sweep_df)
    sweep_df.set_defaults(func=_cmd_sweep_df)

    tables = commands.add_parser("tables", help="regenerate Tables I and II")
    tables.add_argument("--scale", type=float, default=0.05)
    tables.add_argument("--seed", type=int, default=1)
    tables.set_defaults(func=_cmd_tables)

    stats = commands.add_parser("stats", help="contact-trace statistics")
    _add_common(stats)
    stats.set_defaults(func=_cmd_stats)

    export = commands.add_parser("export", help="write a trace to CSV")
    _add_common(export)
    export.add_argument("--output", required=True)
    export.set_defaults(func=_cmd_export)

    synth = commands.add_parser(
        "synth",
        help="stream a city-scale synthetic trace to a dataset directory",
        description="Generate a community-structured city trace directly "
                    "to an on-disk columnar dataset (constant memory, any "
                    "size). Open it later as --trace dataset:DIR.",
    )
    synth.add_argument("--output", required=True, metavar="DIR",
                       help="dataset directory to create")
    synth.add_argument("--nodes", type=int, default=1_000_000,
                       help="number of nodes (default: 1M)")
    synth.add_argument("--contacts", type=int, default=100_000_000,
                       help="target contact count (default: 100M)")
    synth.add_argument("--days", type=float, default=7.0,
                       help="trace duration in days (default: 7)")
    synth.add_argument("--communities", type=int, default=20_000,
                       help="number of communities (default: 20000)")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--name", default="city")
    synth.set_defaults(func=_cmd_synth)

    serve = commands.add_parser(
        "serve",
        help="run the live asyncio TCP broker daemon",
        description="Serve the binary wire format over TCP: durable "
                    "subscriptions, live Prometheus metrics, and a "
                    "schema-v2 event trace that 'analyze' reproduces "
                    "exactly (see docs/serving.md).",
    )
    serve.add_argument("--spec", default=None, metavar="KV",
                       help="ServeSpec as 'key=value,...', e.g. "
                            "'port=7410,matching=bloom,m=512,k=4,"
                            "faults=loss:0.05+seed:3'")
    serve.add_argument("--port", type=int, default=None,
                       help="override the listen port (0 = ephemeral)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve Prometheus text on this port")
    serve.add_argument("--workers", type=int, default=None,
                       help="run N SO_REUSEPORT worker processes "
                            "sharing the port (default 1 = one process)")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve this many seconds then stop "
                            "(default: until Ctrl-C)")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="stream the schema-v2 event trace here")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the final metrics snapshot")
    serve.add_argument("--metrics-format", choices=["json", "prom"],
                       default="json")
    serve.add_argument("--live", action="store_true",
                       help="attach the live tailer: /metrics gains "
                            "rolling live_* series and shutdown "
                            "cross-checks live vs dispatcher parity "
                            "(needs --trace-out)")
    serve.add_argument("--json", action="store_true",
                       help="print the run summary as JSON")
    serve.set_defaults(func=_cmd_serve)

    load = commands.add_parser(
        "load",
        help="replay a synthetic workload against a live broker",
        description="Plan a deterministic pub-sub workload (Table II "
                    "keys, diurnal arrivals) and drive it over real "
                    "sockets; reports client-side end-to-end latency. "
                    "Exits non-zero if any broker frame failed to "
                    "decode.",
    )
    load.add_argument("--spec", default=None, metavar="KV",
                      help="LoadSpec as 'key=value,...', e.g. "
                           "'sessions=1000,duration_s=30,"
                           "publish_rate_per_s=2,arrival=conference'")
    load.add_argument("--host", default=None)
    load.add_argument("--port", type=int, default=None)
    load.add_argument("--sessions", type=int, default=None)
    load.add_argument("--duration", type=float, default=None,
                      help="run window in seconds")
    load.add_argument("--json", action="store_true",
                      help="print the report as JSON")
    load.set_defaults(func=_cmd_load)

    watch = commands.add_parser(
        "watch",
        help="live terminal summary of a (growing) trace or fleet shards",
        description="Stream trace events through the live tailer and "
                    "render a refreshing summary table: rolling "
                    "completeness, latency decomposition percentiles, "
                    "false-injection attribution, per-broker dwell. "
                    "Works on a finished trace, a growing one "
                    "(--follow), a fleet's shards, or a wall-clock "
                    "replay (--replay).",
    )
    _add_live_source_args(watch)
    watch.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh interval in wall seconds (default: 1)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="consume the stream silently, print one final table",
    )
    watch.set_defaults(func=_cmd_watch)

    dash = commands.add_parser(
        "dash",
        help="single-file web dashboard over the same live tailer",
        description="Serve an embedded HTML/JS page (no dependencies, "
                    "no external assets) polling a JSON endpoint of "
                    "the live tailer's snapshot, plus /metrics and "
                    "/healthz. Same sources as 'watch'.",
    )
    _add_live_source_args(dash)
    dash.add_argument("--host", default="127.0.0.1")
    dash.add_argument(
        "--dash-port", dest="port", type=int, default=8780,
        help="dashboard HTTP port (0 = ephemeral; default: 8780)",
    )
    dash.add_argument(
        "--duration", type=float, default=None,
        help="serve this many seconds then stop (default: until Ctrl-C)",
    )
    dash.set_defaults(func=_cmd_dash)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
