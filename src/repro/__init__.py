"""B-SUB: a Bloom-filter-based publish-subscribe system for human networks.

A complete reproduction of Zhao & Wu, "B-SUB: A Practical
Bloom-Filter-Based Publish-Subscribe System for Human Networks"
(ICDCS 2010), as a reusable Python library:

* :mod:`repro.core` — the Temporal Counting Bloom Filter (the paper's
  primary contribution), the classic BF/CBF, closed-form analysis, the
  optimal multi-filter allocation, and a compact wire encoding.
* :mod:`repro.pubsub` — the B-SUB protocol (broker election, interest
  propagation, preferential forwarding) and the PUSH/PULL baselines.
* :mod:`repro.dtn` — a trace-driven discrete-event DTN simulator with
  per-contact bandwidth budgeting.
* :mod:`repro.traces` — the contact-trace model, synthetic Haggle/MIT
  analogues, and real-trace loaders.
* :mod:`repro.social` — contact graph, centrality, community detection.
* :mod:`repro.workload` — the Table II Twitter-trend key set, interest
  assignment, centrality-scaled message generation.
* :mod:`repro.experiments` — the harness that regenerates every table
  and figure of the paper's evaluation.
* :mod:`repro.faults` — deterministic fault injection (frame loss,
  truncation, corruption, node churn) for resilience studies.
* :mod:`repro.serve` — a live asyncio TCP broker daemon speaking the
  binary wire format, plus the matching load driver.
* :mod:`repro.api` — the typed public entry points re-exported here.

Quickstart::

    from repro import TemporalCountingBloomFilter

    interests = TemporalCountingBloomFilter(decay_factor=0.1)
    interests.insert("NewMoon")
    assert "NewMoon" in interests
    interests.advance(now=600.0)          # decays the counters
    assert "NewMoon" not in interests     # temporal deletion

or run a full pub-sub simulation through the typed API::

    from repro import ExperimentSpec, run
    from repro.traces import haggle_like

    result = run(haggle_like(scale=0.1),
                 ExperimentSpec(protocol="B-SUB", ttl_min=600))
    print(result.summary.delivery_ratio)
"""

from .core import (
    BloomFilter,
    CountingBloomFilter,
    HashFamily,
    TCBFCollection,
    TemporalCountingBloomFilter,
)
from .pubsub import (
    BsubConfig,
    BsubProtocol,
    Message,
    MetricsCollector,
    PullProtocol,
    PushProtocol,
)

__version__ = "3.0.0"

__all__ = [
    "BloomFilter",
    "BsubConfig",
    "BsubProtocol",
    "CountingBloomFilter",
    "ExperimentSpec",
    "FaultSpec",
    "HashFamily",
    "LoadSpec",
    "Message",
    "MetricsCollector",
    "PullProtocol",
    "PushProtocol",
    "ServeSpec",
    "TCBFCollection",
    "TemporalCountingBloomFilter",
    "__version__",
    "load",
    "replicate",
    "resilience",
    "run",
    "serve",
    "sweep",
]

# The api/faults layers pull in the experiment harness (numpy-heavy);
# resolve them lazily so `import repro` stays cheap for filter-only use.
_LAZY_API = (
    "ExperimentSpec",
    "LoadSpec",
    "ServeSpec",
    "load",
    "replicate",
    "resilience",
    "run",
    "serve",
    "sweep",
)


def __getattr__(name: str):
    if name in _LAZY_API:
        from . import api

        return getattr(api, name)
    if name == "FaultSpec":
        from .faults.spec import FaultSpec

        return FaultSpec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
