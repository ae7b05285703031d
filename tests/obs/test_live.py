"""Online observability: LiveTailer parity, tailing, and the dashboard.

The central claim mirrors the offline analyzer's: the analyzer's
running totals equal ``analyze_trace`` on the bytes seen so far — over
*any* event prefix, not just at end of stream — and the live tailer,
which is that analyzer plus rolling windows, holds only the live
message set in memory.  The follow/merge sources and the watch/dash
surfaces are exercised against both a finished trace and a file that
grows underneath the reader.
"""

import itertools
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.obs import (
    LiveTailer,
    MetricsRegistry,
    RollingWindow,
    TraceAnalyzer,
    TraceEvent,
    analyze_trace,
    follow_merged_traces,
    format_watch_table,
    merge_traces,
    read_trace_iter,
    replay_trace_iter,
)
from repro.obs.dash import DashboardServer
from repro.obs.recorder import TraceRecorder


@pytest.fixture(scope="module")
def mini_trace(mini_fig7, tmp_path_factory):
    """(trace path, offline analysis) of the instrumented mini run."""
    obs, _result = mini_fig7
    path = tmp_path_factory.mktemp("live") / "mini.trace.jsonl"
    obs.tracer.write_jsonl(str(path))
    return str(path), analyze_trace(str(path))


def feed_all(tailer, path, limit=None):
    events = read_trace_iter(path)
    if limit is not None:
        events = itertools.islice(events, limit)
    count = 0
    for event in events:
        tailer.feed(event)
        count += 1
    return count


def offline_totals(analysis):
    """``analyze_trace``'s counts, shaped like ``TraceAnalyzer.totals()``
    (less ``messages_live``, which a finished analysis no longer has)."""
    return {
        "events": sum(analysis.event_counts.values()),
        "messages_created": analysis.messages["created"],
        "intended_pairs": analysis.messages["intended_pairs"],
        "forwards": {
            kind: count for kind, count in analysis.forwards.items()
            if kind != "total"
        },
        "deliveries": {
            key: analysis.deliveries[key]
            for key in ("total", "intended", "false", "by_cause")
        },
        "false_injections": analysis.injections["false"],
        "attribution": {
            cause: analysis.attribution[cause]
            for cause in (
                "relay_filter_fp", "genuine_but_stale",
                "direct_bf_fp", "producer_self",
            )
        },
        "completeness": analysis.deliveries["delivery_ratio"],
        "peak_live_messages": analysis.memory["peak_live_messages"],
        "end_time": analysis.engine.get("end_time"),
    }


def counted(totals):
    """Running totals without ``messages_live``."""
    return {key: value for key, value in totals.items()
            if key != "messages_live"}


def write_shard(path, events, *, sim_end=None):
    recorder = TraceRecorder()
    for t, type_, fields in events:
        recorder.emit(type_, t, **fields)
    if sim_end is not None:
        recorder.emit("sim_end", sim_end[0], **sim_end[1])
    recorder.write_jsonl(str(path))
    return str(path)


class TestRollingWindow:
    def test_prunes_by_time_horizon(self):
        window = RollingWindow(horizon_s=10.0)
        window.add(0.0, 1.0)
        window.add(5.0, 2.0)
        window.add(20.0, 3.0)  # evicts both earlier samples
        assert window.count == 1
        assert window.sum() == 3.0

    def test_hard_cap_bounds_memory(self):
        window = RollingWindow(horizon_s=1e9, max_samples=100)
        for i in range(10_000):
            window.add(float(i), 1.0)
        assert window.count == 100

    def test_percentile_nearest_rank(self):
        window = RollingWindow(horizon_s=1e9)
        for v in range(1, 101):  # 1..100
            window.add(0.0, float(v))
        assert window.percentile(50) == 50.0
        assert window.percentile(95) == 95.0
        assert window.percentile(100) == 100.0
        assert window.percentile(0) == 1.0

    def test_percentile_rank_rounds_up(self):
        # Nearest rank is ceil(p/100 * n): p50 of 1..5 is the 3rd value
        # and p10 of 1..12 the 2nd, never a round()-to-even neighbour.
        for values, p, expected in (
            (range(1, 6), 50, 3.0),
            (range(1, 13), 10, 2.0),
        ):
            window = RollingWindow(horizon_s=1e9)
            for v in values:
                window.add(0.0, float(v))
            assert window.percentile(p) == expected

    def test_empty_window_is_none(self):
        window = RollingWindow()
        assert window.percentile(50) is None
        assert window.mean() is None


class TestParityTotals:
    def test_totals_equal_offline_analyzer(self, mini_trace):
        path, analysis = mini_trace
        tailer = LiveTailer()
        feed_all(tailer, path)
        assert counted(tailer.totals()) == offline_totals(analysis)

    def test_attribution_matches_offline(self, mini_trace):
        path, analysis = mini_trace
        tailer = LiveTailer()
        feed_all(tailer, path)
        live = tailer.totals()["attribution"]
        for cause, count in live.items():
            assert analysis.attribution[cause] == count

    def test_parity_holds_on_any_prefix(self, mini_trace):
        # The load-bearing invariant: totals are not an end-of-stream
        # accident but hold mid-flight, and reading them disturbs
        # nothing — one analyzer is read at three prefixes and goes on.
        path, _analysis = mini_trace
        total = sum(1 for _ in read_trace_iter(path))
        analyzer = TraceAnalyzer()
        events = read_trace_iter(path)
        consumed = 0
        for fraction in (0.1, 0.5, 0.9):
            target = int(total * fraction)
            for event in itertools.islice(events, target - consumed):
                analyzer.feed(event)
            consumed = target
            prefix = itertools.islice(read_trace_iter(path), consumed)
            offline = analyze_trace(prefix, trace_schema=2)
            assert counted(analyzer.totals()) == offline_totals(offline)

    def test_registry_mirror_counts_at_feed_time(self, mini_trace):
        path, analysis = mini_trace
        registry = MetricsRegistry()
        tailer = LiveTailer(registry=registry)
        consumed = feed_all(tailer, path)
        assert registry.counter("live_events_total").value == consumed
        assert (
            registry.counter("live_deliveries_total").value
            == analysis.deliveries["total"]
        )
        assert (
            registry.counter("live_deliveries_false_total").value
            == analysis.deliveries["false"]
        )
        tailer.refresh_registry()
        assert (
            registry.gauge("live_completeness").value
            == tailer.totals()["completeness"]
        )
        prom = registry.to_prom()
        assert "live_events_total" in prom
        assert "live_window_delay_p95_s" in prom


class TestBoundedMemory:
    def test_live_set_stays_small_on_150k_event_stream(self):
        # 50k messages x (create, forward, delivery) = 150k events with
        # a 10 s TTL: the builder's expiry heap must keep the live set
        # near the TTL horizon, not near the message count.
        tailer = LiveTailer()
        seq = 0

        def emit(t, type_, **fields):
            nonlocal seq
            tailer.feed(TraceEvent(seq=seq, t=t, type=type_, fields=fields))
            seq += 1

        for i in range(50_000):
            t = float(i)
            emit(t, "create", msg=i, node=0, ttl=10.0, num_intended=1)
            emit(t + 0.4, "forward", msg=i, kind="direct", src=0, dst=1)
            emit(t + 0.5, "delivery", msg=i, node=1, intended=True)
        totals = tailer.totals()
        assert totals["events"] == 150_000
        assert totals["messages_created"] == 50_000
        assert totals["deliveries"]["intended"] == 50_000
        assert totals["peak_live_messages"] < 50
        # Rolling windows are capped too, regardless of horizon.
        assert len(tailer.delay_window) <= 4096


class TestFollowMode:
    def test_follow_reads_a_growing_file(self, tmp_path):
        # Write the head, start following, then append the tail from
        # another thread — split mid-line to exercise the partial-line
        # buffer.
        full = tmp_path / "full.jsonl"
        write_shard(
            full,
            [(float(i), "contact", {"a": i, "b": i + 1}) for i in range(6)],
            sim_end=(9.0, {"contacts": 6}),
        )
        blob = full.read_bytes()
        cut = blob.find(b'"contact"', len(blob) // 2)  # mid-record
        assert cut > 0
        growing = tmp_path / "growing.jsonl"
        growing.write_bytes(blob[:cut])

        def append_rest():
            time.sleep(0.15)
            with open(growing, "ab") as fh:
                fh.write(blob[cut:])

        writer = threading.Thread(target=append_rest)
        writer.start()
        events = [
            event for _shard, event in follow_merged_traces(
                [str(growing)], follow=True, poll_interval_s=0.02
            )
        ]
        writer.join(timeout=5.0)
        assert not writer.is_alive()
        assert [e.type for e in events] == ["contact"] * 6 + ["sim_end"]
        assert [e.t for e in events][:6] == [float(i) for i in range(6)]

    def test_follow_terminates_at_sim_end(self, tmp_path):
        path = write_shard(
            tmp_path / "t.jsonl",
            [(1.0, "contact", {"a": 1, "b": 2})],
            sim_end=(2.0, {"contacts": 1}),
        )
        events = [
            event for _shard, event in follow_merged_traces(
                [path], follow=True, poll_interval_s=0.01
            )
        ]
        assert events[-1].type == "sim_end"

    def test_follow_should_stop_without_sim_end(self, tmp_path):
        path = write_shard(
            tmp_path / "t.jsonl", [(1.0, "contact", {"a": 1, "b": 2})]
        )
        stop = threading.Event()
        stop.set()
        events = [
            event for _shard, event in follow_merged_traces(
                [path], follow=True, poll_interval_s=0.01,
                should_stop=stop.is_set,
            )
        ]
        assert [e.type for e in events] == ["contact"]


class TestFollowMergedTraces:
    def shards(self, tmp_path):
        a = write_shard(
            tmp_path / "a.jsonl",
            [(1.0, "contact", {"a": 1, "b": 2}),
             (3.0, "contact", {"a": 1, "b": 3})],
            sim_end=(5.0, {"contacts": 2}),
        )
        b = write_shard(
            tmp_path / "b.jsonl",
            [(2.0, "contact", {"a": 2, "b": 3})],
            sim_end=(6.0, {"contacts": 1}),
        )
        return [a, b]

    def test_quiescent_order_matches_offline_merge(self, tmp_path):
        paths = self.shards(tmp_path)
        followed = [
            (event.t, event.type)
            for _shard, event in follow_merged_traces(paths, follow=False)
            if event.type != "sim_end"
        ]
        out = tmp_path / "merged.jsonl"
        merge_traces(paths, str(out))
        merged = [
            (event.t, event.type)
            for event in read_trace_iter(str(out))
            if event.type != "sim_end"
        ]
        assert followed == merged

    def test_each_shard_yields_its_own_sim_end(self, tmp_path):
        paths = self.shards(tmp_path)
        ends = [
            (shard, event.t)
            for shard, event in follow_merged_traces(paths, follow=False)
            if event.type == "sim_end"
        ]
        assert sorted(ends) == [(0, 5.0), (1, 6.0)]

    def test_single_shard_passthrough(self, tmp_path):
        [a, _b] = self.shards(tmp_path)
        followed = [e.to_json() for _s, e in
                    follow_merged_traces([a], follow=False)]
        direct = [e.to_json() for e in read_trace_iter(a)]
        assert followed == direct

    def test_empty_and_missing_shards(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        missing = str(tmp_path / "never_created.jsonl")
        assert list(
            follow_merged_traces([str(empty), missing], follow=False)
        ) == []

    def test_should_stop_drains_buffered_heads_in_order(self, tmp_path):
        paths = self.shards(tmp_path)
        stop = threading.Event()
        stop.set()
        events = [
            event.t
            for _shard, event in follow_merged_traces(
                paths, follow=True, poll_interval_s=0.01,
                should_stop=stop.is_set,
            )
        ]
        assert events == sorted(events)

    def test_live_growth_feeds_tailer_with_parity(self, tmp_path):
        # Two shards written incrementally while a follower drives a
        # LiveTailer: totals at the end must equal the offline analyzer
        # over the concatenated shards.
        recorders = [TraceRecorder(), TraceRecorder()]
        events = [
            (0, "create", 1.0, {"msg": 0, "node": 0, "num_intended": 1}),
            (1, "create", 1.5, {"msg": 1, "node": 1, "num_intended": 1}),
            (0, "forward", 2.0,
             {"msg": 0, "kind": "direct", "src": 0, "dst": 2}),
            (1, "delivery", 2.5, {"msg": 1, "node": 3, "intended": True}),
            (0, "delivery", 3.0, {"msg": 0, "node": 2, "intended": True}),
        ]
        paths = [str(tmp_path / "w0.jsonl"), str(tmp_path / "w1.jsonl")]

        def writer():
            for shard, type_, t, fields in events:
                recorders[shard].emit(type_, t, **fields)
                recorders[shard].write_jsonl(paths[shard])
                time.sleep(0.05)
            for shard, recorder in enumerate(recorders):
                recorder.emit("sim_end", 9.0, messages=1)
                recorder.write_jsonl(paths[shard])

        thread = threading.Thread(target=writer)
        thread.start()
        tailer = LiveTailer()
        for _shard, event in follow_merged_traces(
            paths, follow=True, poll_interval_s=0.02
        ):
            tailer.feed(event)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        merged = str(tmp_path / "merged.jsonl")
        merge_traces(paths, merged)
        offline = TraceAnalyzer()
        for event in read_trace_iter(merged):
            offline.feed(event)
        assert tailer.parity_counters() == offline.parity_counters()
        assert tailer.parity_counters()["messages_created"] == 2
        assert tailer.parity_counters()["deliveries_intended"] == 2
        assert tailer.snapshot()["sim_ends_seen"] == 2


class TestReplay:
    def test_replay_preserves_events_and_paces_sleeps(self, tmp_path):
        path = write_shard(
            tmp_path / "t.jsonl",
            [(0.0, "contact", {"a": 1, "b": 2}),
             (60.0, "contact", {"a": 1, "b": 3})],
            sim_end=(120.0, {"contacts": 2}),
        )
        sleeps = []
        events = list(
            replay_trace_iter(path, speed=60.0, sleep=sleeps.append)
        )
        assert [e.t for e in events] == [0.0, 60.0, 120.0]
        # 60 trace seconds at speed 60 = 1 wall second per gap; the
        # injected sleep never advances the clock, so the anchored
        # pacing asks for the *cumulative* due times (1 s, then 2 s).
        assert len(sleeps) == 2
        assert 0.5 < sleeps[0] <= 1.0
        assert 1.5 < sleeps[1] <= 2.0

    def test_replay_caps_individual_sleeps(self, tmp_path):
        path = write_shard(
            tmp_path / "t.jsonl",
            [(0.0, "contact", {"a": 1, "b": 2}),
             (10_000.0, "contact", {"a": 1, "b": 3})],
        )
        sleeps = []
        list(replay_trace_iter(path, speed=1.0, sleep=sleeps.append,
                               max_sleep_s=2.0))
        assert sleeps and max(sleeps) <= 2.0

    def test_replay_rejects_nonpositive_speed(self, tmp_path):
        path = write_shard(
            tmp_path / "t.jsonl", [(0.0, "contact", {"a": 1, "b": 2})]
        )
        with pytest.raises(ValueError, match="speed"):
            list(replay_trace_iter(path, speed=0.0))


class TestRecorderBus:
    def test_subscribe_receives_emitted_events(self):
        recorder = TraceRecorder()
        seen = []
        recorder.subscribe(seen.append)
        recorder.emit("contact", 1.0, a=1, b=2)
        assert [e.type for e in seen] == ["contact"]

    def test_unsubscribe_stops_delivery_and_is_idempotent(self):
        recorder = TraceRecorder()
        seen = []
        recorder.subscribe(seen.append)
        recorder.unsubscribe(seen.append)
        recorder.unsubscribe(seen.append)  # no-op, no raise
        recorder.emit("contact", 1.0, a=1, b=2)
        assert seen == []

    def test_duplicate_subscribe_delivers_once(self):
        recorder = TraceRecorder()
        seen = []
        recorder.subscribe(seen.append)
        recorder.subscribe(seen.append)
        recorder.emit("contact", 1.0, a=1, b=2)
        assert len(seen) == 1


class TestWatchCli:
    def test_watch_once_renders_table_with_parity(self, mini_trace, capsys):
        path, analysis = mini_trace
        rc = main(["watch", path, "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "B-SUB live observability" in out
        deliveries = analysis.deliveries
        for label, value in (
            ("messages created", str(analysis.messages["created"])),
            (
                "deliveries (int/false)",
                f"{deliveries['total']} "
                f"({deliveries['intended']}/{deliveries['false']})",
            ),
        ):
            assert f"{label:<28}{value}" in out

    def test_watch_replay_mode(self, tmp_path, capsys):
        path = write_shard(
            tmp_path / "t.jsonl",
            [(0.0, "create", {"msg": 0, "node": 0, "num_intended": 1}),
             (1.0, "delivery", {"msg": 0, "node": 1, "intended": True})],
            sim_end=(2.0, {"messages": 1}),
        )
        rc = main(["watch", path, "--once", "--replay", "1000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "messages created" in out

    def test_format_watch_table_handles_empty_stream(self):
        table = format_watch_table(LiveTailer().snapshot())
        assert "events seen" in table
        assert "0" in table


class TestDashboard:
    def test_endpoints_serve_live_state(self, mini_trace):
        path, analysis = mini_trace
        registry = MetricsRegistry()
        tailer = LiveTailer(registry=registry)
        dash = DashboardServer(tailer, port=0).start()
        try:
            feeder = dash.feed_from(read_trace_iter(path))
            feeder.join(timeout=60.0)
            assert not feeder.is_alive()

            def get(route):
                with urllib.request.urlopen(dash.url + route) as reply:
                    return reply.status, reply.read()

            status, body = get("/data.json")
            assert status == 200
            snapshot = json.loads(body)
            assert (
                snapshot["totals"]["messages_created"]
                == analysis.messages["created"]
            )
            assert (
                snapshot["totals"]["deliveries"]["total"]
                == analysis.deliveries["total"]
            )
            status, body = get("/")
            assert status == 200
            assert b"data.json" in body
            status, body = get("/metrics")
            assert status == 200
            assert b"live_events_total" in body
            status, body = get("/healthz")
            assert status == 200
        finally:
            dash.stop()

    def test_unknown_route_is_404(self, tmp_path):
        dash = DashboardServer(LiveTailer(), port=0).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(dash.url + "/nope")
            assert excinfo.value.code == 404
        finally:
            dash.stop()

    def test_dash_cli_offline(self, tmp_path, capsys):
        path = write_shard(
            tmp_path / "t.jsonl",
            [(0.0, "create", {"msg": 0, "node": 0, "num_intended": 1}),
             (1.0, "delivery", {"msg": 0, "node": 1, "intended": True})],
            sim_end=(2.0, {"messages": 1}),
        )
        rc = main([
            "dash", path, "--dash-port", "0", "--duration", "0.3",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "dashboard: http://" in captured.err
        assert "B-SUB live observability" in captured.out
