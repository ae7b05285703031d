"""Dependency-free web ops dashboard over a :class:`LiveTailer`.

``bsub dash`` serves three things from one stdlib
:class:`~http.server.ThreadingHTTPServer`:

* ``/`` — a single embedded HTML/JS page (no external assets, no
  frameworks) that polls the JSON endpoint and renders totals, rolling
  latency percentiles, attribution, and per-broker dwell;
* ``/data.json`` — :meth:`LiveTailer.snapshot
  <repro.obs.live.LiveTailer.snapshot>` as JSON, the machine-readable
  surface the page (and anything else) polls;
* ``/metrics`` — the attached registry's Prometheus exposition, and
  ``/healthz`` — a liveness document, mirroring the broker's own
  endpoints so one scrape config covers both.

The server owns no event source: callers attach the tailer to a live
broker trace (:func:`~repro.obs.live.follow_merged_traces`), an
offline replay (:func:`~repro.obs.live.replay_trace_iter`), or the
in-process recorder bus, typically via :meth:`DashboardServer.feed_from`
which drives the tailer on a daemon thread.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Optional

from .events import TraceEvent
from .live import LiveTailer

__all__ = ["DashboardServer", "DASH_HTML"]

#: The entire frontend: one page, zero external assets.
DASH_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>B-SUB live dashboard</title>
<style>
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       background: #101418; color: #d8dee4; margin: 2rem; }
h1 { font-size: 1.2rem; } h2 { font-size: 1rem; color: #8fa3b0; }
table { border-collapse: collapse; margin-bottom: 1.2rem; }
td, th { border: 1px solid #2c3640; padding: 0.25rem 0.7rem;
         text-align: right; }
th { color: #8fa3b0; font-weight: normal; }
td:first-child, th:first-child { text-align: left; }
#status { color: #6fc28a; } .stale { color: #d0a050; }
.grid { display: flex; flex-wrap: wrap; gap: 2rem; }
</style>
</head>
<body>
<h1>B-SUB live observability <span id="status">connecting…</span></h1>
<div class="grid">
<div><h2>Totals</h2><table id="totals"></table></div>
<div><h2>Rolling window</h2><table id="window"></table></div>
<div><h2>Attribution</h2><table id="attribution"></table></div>
<div><h2>Brokers by dwell</h2><table id="brokers"></table></div>
</div>
<script>
function row(k, v) {
  return "<tr><td>" + k + "</td><td>" + v + "</td></tr>";
}
function fmt(v, digits) {
  if (v === null || v === undefined) return "-";
  if (typeof v === "number" && !Number.isInteger(v))
    return v.toFixed(digits === undefined ? 3 : digits);
  return String(v);
}
function render(doc) {
  const t = doc.totals, w = doc.window;
  document.getElementById("totals").innerHTML =
    row("events", t.events) +
    row("trace time (s)", fmt(doc.last_event_t)) +
    row("messages created", t.messages_created) +
    row("messages live", t.messages_live) +
    row("completeness", fmt(t.completeness, 4)) +
    row("deliveries", t.deliveries.total) +
    row("&nbsp;&nbsp;intended", t.deliveries.intended) +
    row("&nbsp;&nbsp;false", t.deliveries.false) +
    row("false injections", t.false_injections);
  document.getElementById("window").innerHTML =
    row("horizon (s)", doc.window_s) +
    row("deliveries int/false",
        w.deliveries_intended + "/" + w.deliveries_false) +
    row("delay p50 (s)", fmt(w.delay_p50_s)) +
    row("delay p95 (s)", fmt(w.delay_p95_s)) +
    row("wait p95 (s)", fmt(w.wait_p95_s)) +
    row("carry p95 (s)", fmt(w.carry_p95_s)) +
    row("final hop p95 (s)", fmt(w.final_hop_p95_s));
  let att = "";
  for (const k of Object.keys(t.attribution).sort())
    att += row(k, t.attribution[k]);
  document.getElementById("attribution").innerHTML = att;
  let brokers = "<tr><th>node</th><th>dwell (s)</th><th>carried</th></tr>";
  for (const b of doc.brokers)
    brokers += "<tr><td>" + b.node + "</td><td>" + fmt(b.dwell_s) +
               "</td><td>" + b.deliveries_carried + "</td></tr>";
  document.getElementById("brokers").innerHTML = brokers;
}
async function poll() {
  const status = document.getElementById("status");
  try {
    const res = await fetch("data.json");
    render(await res.json());
    status.textContent = "live";
    status.className = "";
  } catch (err) {
    status.textContent = "disconnected";
    status.className = "stale";
  }
}
poll();
setInterval(poll, 2000);
</script>
</body>
</html>
"""

class DashboardServer:
    """Serve a live tailer over HTTP on a background thread.

    Parameters
    ----------
    tailer:
        The :class:`~repro.obs.live.LiveTailer` whose snapshots are
        exposed; its attached registry (if any) backs ``/metrics``.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port, readable via
        :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        tailer: LiveTailer,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.tailer = tailer
        self.host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._feeders: list = []
        self._stop = threading.Event()

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("dashboard not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    def start(self) -> "DashboardServer":
        dashboard = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:
                pass

            def _send(
                self, status: int, content_type: str, body: bytes
            ) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                if path in ("/", "/index.html"):
                    self._send(
                        200, "text/html; charset=utf-8",
                        DASH_HTML.encode("utf-8"),
                    )
                elif path == "/data.json":
                    body = json.dumps(
                        dashboard.tailer.snapshot(), sort_keys=True
                    ).encode("utf-8")
                    self._send(200, "application/json", body)
                elif path == "/metrics":
                    registry = dashboard.tailer.registry
                    if registry is None:
                        self._send(
                            404, "text/plain; charset=utf-8",
                            b"no registry attached\n",
                        )
                        return
                    dashboard.tailer.refresh_registry()
                    self._send(
                        200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        registry.to_prom().encode("utf-8"),
                    )
                elif path == "/healthz":
                    body = json.dumps(
                        {
                            "status": "ok",
                            "events": dashboard.tailer.totals()["events"],
                        },
                        sort_keys=True,
                    ).encode("utf-8")
                    self._send(200, "application/json", body)
                else:
                    self._send(
                        404, "text/plain; charset=utf-8", b"not found\n"
                    )

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="bsub-dash",
            daemon=True,
        )
        self._thread.start()
        return self

    def feed_from(self, source: Iterable[TraceEvent]) -> threading.Thread:
        """Drive the tailer from the events of *source* on a daemon thread.

        The thread ends when the source is exhausted or :meth:`stop` is
        called.
        """

        def run() -> None:
            for event in source:
                if self._stop.is_set():
                    break
                self.tailer.feed(event)

        thread = threading.Thread(target=run, name="bsub-dash-feed", daemon=True)
        self._feeders.append(thread)
        thread.start()
        return thread

    def stop(self) -> None:
        self._stop.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        for thread in self._feeders:
            thread.join(timeout=2.0)
        self._feeders.clear()
