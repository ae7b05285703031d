"""Metrics/ops HTTP endpoint: routing, healthz, and the live tailer.

The metrics responder historically answered any GET with the
Prometheus document; these tests pin the routed behaviour — exact
``/metrics`` and ``/healthz`` paths, 404 for everything else, 400 for
non-GET — plus the ``spec.live`` in-broker LiveTailer wiring end to
end over real sockets.
"""

import asyncio
import json

from repro.obs.registry import MetricsRegistry
from repro.serve import (
    BrokerFleet,
    BrokerServer,
    LoadDriver,
    LoadSpec,
    ServeSpec,
)
from repro.serve.broker import http_response, parse_request_path


async def http_get(host, port, path, method="GET"):
    """(status line, body bytes) of one raw HTTP exchange."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=10.0)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode(), body


class TestRequestParsing:
    def test_get_path_extracted(self):
        assert parse_request_path(b"GET /metrics HTTP/1.1") == "/metrics"

    def test_query_string_stripped(self):
        head = b"GET /healthz?verbose=1 HTTP/1.1"
        assert parse_request_path(head) == "/healthz"

    def test_non_get_rejected(self):
        assert parse_request_path(b"POST /metrics HTTP/1.1") is None

    def test_garbage_rejected(self):
        assert parse_request_path(b"\x00\x01\x02") is None
        assert parse_request_path(b"GET") is None

    def test_response_shape(self):
        blob = http_response(404, b"not found\n")
        assert blob.startswith(b"HTTP/1.1 404 Not Found\r\n")
        assert b"Connection: close\r\n" in blob
        assert b"Content-Length: 10\r\n" in blob
        assert blob.endswith(b"\r\n\r\nnot found\n")


class TestBrokerRouting:
    def run_routes(self, **spec_kwargs):
        async def main():
            spec = ServeSpec(port=0, metrics_port=0, idle_timeout_s=30.0,
                             **spec_kwargs)
            server = BrokerServer(spec, registry=MetricsRegistry())
            await server.start()
            try:
                host, port = spec.host, server.metrics_port
                results = {
                    "metrics": await http_get(host, port, "/metrics"),
                    "healthz": await http_get(host, port, "/healthz"),
                    "unknown": await http_get(host, port, "/nope"),
                    "post": await http_get(host, port, "/metrics",
                                           method="POST"),
                }
            finally:
                await server.stop()
            return results

        return asyncio.run(main())

    def test_routes(self):
        results = self.run_routes()
        status, body = results["metrics"]
        assert status == "HTTP/1.1 200 OK"
        assert b"serve_" in body
        status, body = results["healthz"]
        assert status == "HTTP/1.1 200 OK"
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["live"] is False
        assert doc["workers"] == [{"worker": 0, "alive": True}]
        status, _body = results["unknown"]
        assert status == "HTTP/1.1 404 Not Found"
        status, _body = results["post"]
        assert status == "HTTP/1.1 400 Bad Request"


class TestLiveBroker:
    def test_live_tailer_parity_and_metrics(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")

        async def main():
            spec = ServeSpec(
                port=0, metrics_port=0, idle_timeout_s=30.0,
                trace_path=trace_path, live=True,
            )
            server = BrokerServer(spec, registry=MetricsRegistry())
            await server.start()
            report = await LoadDriver(LoadSpec(
                port=server.port, sessions=20, publisher_fraction=0.25,
                duration_s=1.5, publish_rate_per_s=2.0,
                interests_per_node=2, seed=13,
            )).run()
            _status, prom = await http_get(
                spec.host, server.metrics_port, "/metrics"
            )
            _status, health = await http_get(
                spec.host, server.metrics_port, "/healthz"
            )
            summary = await server.stop()
            return report, prom, json.loads(health), summary

        report, prom, health, summary = asyncio.run(main())
        assert report.decode_errors == 0
        assert report.messages_published > 0
        # The registry mirror grows live_* series and window gauges.
        assert b"live_events_total" in prom
        assert b"live_deliveries_total" in prom
        assert b"live_window_delay_p95_s" in prom
        assert health["live"] is True
        # Shutdown runs the in-process parity checkpoint: the tailer fed
        # from the recorder bus must agree with the dispatcher counters.
        assert summary["live_parity_ok"] is True
        assert summary["live"]["totals"]["messages_created"] > 0

    def test_live_parity_mismatch_is_reported(self, tmp_path):
        # The tailer and the dispatcher count separately; a dispatcher
        # counter that drifts must fail the shutdown cross-check.
        async def main():
            spec = ServeSpec(
                port=0, idle_timeout_s=30.0, live=True,
                trace_path=str(tmp_path / "trace.jsonl"),
            )
            server = BrokerServer(spec, registry=MetricsRegistry())
            await server.start()
            server.registry.counter("serve_deliveries_total").inc()
            return await server.stop()

        summary = asyncio.run(main())
        assert summary["live_parity_ok"] is False
        [mismatch] = summary["live_parity_mismatches"]
        assert mismatch.startswith("deliveries_total:")

    def test_live_without_trace_recorder_is_inert(self):
        async def main():
            spec = ServeSpec(port=0, idle_timeout_s=30.0, live=True)
            server = BrokerServer(spec)
            await server.start()
            try:
                return server.tailer
            finally:
                await server.stop()

        assert asyncio.run(main()) is None


class TestFleetRouting:
    def test_fleet_metrics_healthz_and_live_parity(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")

        async def main():
            spec = ServeSpec(
                port=0, metrics_port=0, workers=2, idle_timeout_s=30.0,
                trace_path=trace_path, live=True,
            )
            fleet = BrokerFleet(spec)
            await fleet.start()
            report = await LoadDriver(LoadSpec(
                port=fleet.port, sessions=30, publisher_fraction=0.25,
                duration_s=2.0, publish_rate_per_s=2.0,
                interests_per_node=2, seed=13,
            )).run()
            host, port = spec.host, fleet.metrics_port
            results = {
                "metrics": await http_get(host, port, "/metrics"),
                "healthz": await http_get(host, port, "/healthz"),
                "unknown": await http_get(host, port, "/nope"),
            }
            summary = await fleet.stop()
            return report, results, summary

        report, results, summary = asyncio.run(main())
        assert report.decode_errors == 0
        status, body = results["metrics"]
        assert status == "HTTP/1.1 200 OK"
        assert b"serve_" in body  # merged across both workers
        # Each worker refreshes its live window gauges before it answers
        # the scrape, so the merged window has seen the deliveries.
        window = [
            line.split()[1]
            for line in body.decode().splitlines()
            if line.startswith("live_window_deliveries ")
        ]
        assert len(window) == 1 and float(window[0]) > 0
        status, body = results["healthz"]
        assert status == "HTTP/1.1 200 OK"
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert len(doc["workers"]) == 2
        assert all(w["alive"] for w in doc["workers"])
        assert {w["worker"] for w in doc["workers"]} == {0, 1}
        status, _body = results["unknown"]
        assert status == "HTTP/1.1 404 Not Found"
        # Every worker ran its own shutdown parity checkpoint.
        assert summary["live_parity_ok"] is True
