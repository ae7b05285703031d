"""Protocol observability: metrics, event tracing, phase timings.

A B-SUB run instrumented with this package stops being a black box:
the :class:`~repro.obs.recorder.TraceRecorder` captures every
protocol-level event (contacts, A-/M-merges, decay ticks, forwards,
deliveries, false injections, broker role changes) as typed JSONL
records, the :class:`~repro.obs.registry.MetricsRegistry` aggregates
deterministic counters/gauges/histograms, and
:class:`~repro.obs.timers.PhaseTimers` attribute wall-clock to run
phases.

Everything defaults to **off**: the protocol, simulator, and election
are wired against :data:`~repro.obs.recorder.NULL_RECORDER`, whose
``enabled`` flag short-circuits every instrumentation site before any
event field is computed.  A seeded run with tracing enabled is
behaviourally identical to the same run with tracing disabled — the
recorder only *observes* — which is what makes the event trace a
replayable fingerprint for golden-trace regression tests
(:func:`~repro.obs.recorder.trace_digest`).

Typical use::

    from repro.api import run
    from repro.obs import Observability

    obs = Observability.enabled()
    result = run(trace, obs=obs)  # B-SUB, the paper's default settings
    obs.tracer.write_jsonl("run.trace.jsonl")
    obs.registry.write_json("run.metrics.json")
    print(obs.tracer.counts())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .analyze import (
    ANALYSIS_VERSION,
    PARITY_KEYS,
    TraceAnalysis,
    TraceAnalyzer,
    analyze_trace,
)
from .dash import DashboardServer
from .events import EVENT_TYPES, TRACE_SCHEMA_VERSION, TraceEvent
from .feedback import (
    AttributionFeedback,
    feedback_from_analysis,
    plan_retouch_from_analysis,
)
from .introspect import relay_max_counter, relay_set_bits
from .lineage import (
    DeliveryLeg,
    Hop,
    LatencyDecomposition,
    LineageBuilder,
    MessageLineage,
)
from .live import (
    LiveTailer,
    RollingWindow,
    follow_merged_traces,
    format_watch_table,
    nearest_rank,
    replay_trace_iter,
)
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    file_trace_digest,
    merge_traces,
    read_trace,
    read_trace_iter,
    read_trace_meta,
    trace_digest,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .timers import PhaseTimers

__all__ = [
    "EVENT_TYPES",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceRecorder",
    "trace_digest",
    "file_trace_digest",
    "merge_traces",
    "read_trace",
    "read_trace_iter",
    "read_trace_meta",
    "Hop",
    "DeliveryLeg",
    "LatencyDecomposition",
    "MessageLineage",
    "LineageBuilder",
    "TraceAnalysis",
    "TraceAnalyzer",
    "analyze_trace",
    "ANALYSIS_VERSION",
    "PARITY_KEYS",
    "RollingWindow",
    "LiveTailer",
    "DashboardServer",
    "follow_merged_traces",
    "format_watch_table",
    "nearest_rank",
    "replay_trace_iter",
    "AttributionFeedback",
    "feedback_from_analysis",
    "plan_retouch_from_analysis",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseTimers",
    "Observability",
    "relay_max_counter",
    "relay_set_bits",
]


@contextmanager
def _null_phase():
    yield


class Observability:
    """Bundle of tracer + metrics registry + phase timers for one run.

    The default construction is fully disabled (null tracer, no
    registry, no timers) and costs nothing; :meth:`enabled` switches
    everything on.  Components can also be mixed freely, e.g. a
    registry without event tracing.
    """

    def __init__(
        self,
        tracer=None,
        registry: Optional[MetricsRegistry] = None,
        timers: Optional[PhaseTimers] = None,
    ):
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        self.registry = registry
        self.timers = timers

    @classmethod
    def enabled(cls, sink=None) -> "Observability":
        """Everything on: in-memory tracer, registry, and timers."""
        return cls(
            tracer=TraceRecorder(sink=sink),
            registry=MetricsRegistry(),
            timers=PhaseTimers(),
        )

    @classmethod
    def disabled(cls) -> "Observability":
        """The explicit no-op bundle (same effect as not passing one)."""
        return cls()

    def phase(self, name: str):
        """Context manager timing *name* (no-op without timers)."""
        if self.timers is None:
            return _null_phase()
        return self.timers.phase(name)
