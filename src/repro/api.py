"""Typed public API: build a spec, hand it a trace, get results.

This facade is the supported way to run experiments::

    from repro import ExperimentSpec, FaultSpec, run

    spec = ExperimentSpec(protocol="B-SUB", ttl_min=600.0,
                          faults=FaultSpec(frame_loss=0.1))
    result = run(trace, spec)

One frozen :class:`ExperimentSpec` carries the protocol name, every
simulation knob, and an optional :class:`~repro.faults.FaultSpec`; the
entry points :func:`run`, :func:`sweep`, :func:`replicate`, and
:func:`resilience` each take (trace, spec) and are the experiment
harness's own implementations, re-exported here.  :func:`serve` and
:func:`load` run the live broker and its load driver from a
:class:`ServeSpec` / :class:`LoadSpec`.
"""

from __future__ import annotations

from typing import Optional

from .experiments.config import ExperimentSpec
from .experiments.replication import replicate
from .experiments.resilience import resilience
from .experiments.runner import run
from .experiments.sweeps import sweep
from .serve.spec import LoadSpec, ServeSpec

__all__ = [
    "ExperimentSpec",
    "LoadSpec",
    "ServeSpec",
    "load",
    "replicate",
    "resilience",
    "run",
    "serve",
    "sweep",
]


def serve(
    spec: Optional[ServeSpec] = None,
    *,
    duration_s: Optional[float] = None,
    registry=None,
) -> dict:
    """Run a live broker daemon per *spec*; blocks until done.

    Serves the :mod:`repro.pubsub.wire` binary format over TCP until
    *duration_s* elapses (forever when ``None``) or SIGTERM/SIGINT
    arrives, then drains gracefully and returns the run summary; its
    ``parity`` field holds the six counters the offline analyzer must
    reproduce, and ``workers`` the worker count.  With
    ``spec.trace_path`` set, the broker streams a schema-v2 trace whose
    :func:`repro.obs.analyze_trace` totals match the live registry
    exactly — same numbers online and offline.  With
    ``spec.state_dir`` set, durable subscriptions persist there and a
    restarted broker restores them before it accepts a connection.

    ``spec.workers > 1`` runs the multi-process SO_REUSEPORT fleet
    (:class:`repro.serve.BrokerFleet`) through the same lifecycle: N
    worker processes share the port and the durable store, each worker
    emits a trace shard, and the shards merge deterministically into
    ``spec.trace_path`` on shutdown — the analyzer over the merged
    trace equals the summary's ``parity``, the *sum* of the workers'
    counters.
    """
    from .serve.broker import run_broker

    return run_broker(spec or ServeSpec(), duration_s, registry=registry)


def load(spec: Optional[LoadSpec] = None, *, distribution=None):
    """Replay a synthetic workload against a live broker; blocks.

    Plans the whole workload deterministically from ``spec.seed``
    (Table-II key distribution, diurnal arrival profiles), runs
    ``spec.sessions`` concurrent socket sessions, and returns the
    client-side :class:`~repro.serve.load.LoadReport` with true
    end-to-end latency percentiles.
    """
    from .serve.load import run_load

    return run_load(spec or LoadSpec(), distribution=distribution)
