"""Single-run experiment runner.

Wires together trace, workload, protocol, and metrics for one
simulation, including the Eq. 5 automatic decaying-factor derivation
the paper uses for its TTL sweeps ("we set τ the same as the TTL, and
calculate DFs using Eq. 5; a small constant is added to the resultant
DFs", Sec. VII-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from ..core.analysis import expected_unique_keys, recommended_decay_factor
from ..dtn.simulator import Simulation, SimulationReport
from ..faults.plan import FaultPlan
from ..obs import NULL_RECORDER, Observability
from ..pubsub.baselines import PullProtocol, PushProtocol
from ..pubsub.extra_baselines import SprayAndWaitProtocol
from ..pubsub.metrics import MetricsCollector, MetricsSummary
from ..pubsub.protocol import BsubConfig, BsubProtocol
from ..traces.model import ContactTrace
from ..workload.generator import WorkloadConfig, generate_message_events
from ..workload.interests import assign_interests
from ..workload.keys import KeyDistribution, twitter_trends_2009
from .config import ALL_PROTOCOLS, ExperimentSpec

__all__ = [
    "RunResult",
    "average_peers_met_within",
    "derive_decay_factor",
    "run",
]


@dataclass(frozen=True)
class RunResult:
    """Everything one simulation run produced."""

    protocol: str
    trace_name: str
    ttl_min: float
    decay_factor_per_min: float
    summary: MetricsSummary
    engine: SimulationReport
    broker_fraction: float
    #: Fault-injection tallies (``None`` for a fault-free run); see
    #: :class:`repro.faults.FaultAccounting` for the keys.
    fault_accounting: Optional[Dict[str, int]] = field(default=None)


def average_peers_met_within(trace: ContactTrace, window_s: float) -> float:
    """Mean distinct peers a node meets per *window_s* window.

    The paper obtains "the number of encountered nodes in τ … by
    analyzing the traces"; this is that analysis: tumbling windows of
    length ``window_s`` over each node's contact log, averaged over all
    non-empty windows of all nodes.
    """
    if window_s <= 0:
        raise ValueError(f"window must be positive, got {window_s}")
    origin = trace.start_time
    # node -> window index -> set of peers
    windows: Dict[int, Dict[int, set]] = {}
    for contact in trace:
        index = int((contact.start - origin) // window_s)
        for node, peer in ((contact.a, contact.b), (contact.b, contact.a)):
            windows.setdefault(node, {}).setdefault(index, set()).add(peer)
    counts = [
        len(peers)
        for per_node in windows.values()
        for peers in per_node.values()
    ]
    return sum(counts) / len(counts) if counts else 0.0


def derive_decay_factor(
    trace: ContactTrace,
    spec: ExperimentSpec,
    distribution: Optional[KeyDistribution] = None,
) -> float:
    """Eq. 5's DF (per minute) for ``τ = TTL`` on this trace.

    ℕ — the keys a broker collects within τ — is estimated as the
    number of *unique* interests (Eq. 6) among the interests of the
    nodes met within a τ-long window, each node contributing
    ``interests_per_node`` keys.
    """
    distribution = distribution or twitter_trends_2009()
    peers = average_peers_met_within(trace, spec.ttl_s)
    collected = peers * spec.interests_per_node
    unique = expected_unique_keys(collected, weights=distribution.weights)
    return recommended_decay_factor(
        delay_limit=spec.ttl_min,
        initial_value=spec.initial_value,
        num_keys=max(1, round(unique)),
        num_bits=spec.num_bits,
        num_hashes=spec.num_hashes,
        delta=spec.df_delta_per_min,
    )


def _build_protocol(
    interests: Dict[int, FrozenSet[str]],
    metrics: MetricsCollector,
    spec: ExperimentSpec,
    decay_factor_per_min: float,
    recorder=NULL_RECORDER,
    registry=None,
):
    name = spec.protocol
    if name == "PUSH":
        return PushProtocol(
            interests,
            metrics,
            buffer_capacity=spec.push_buffer_capacity,
            summary_exchange=spec.push_summary_exchange,
        )
    if name == "PULL":
        return PullProtocol(interests, metrics)
    if name == "SPRAY":
        return SprayAndWaitProtocol(
            interests, metrics, initial_copies=spec.spray_copies
        )
    if name == "B-SUB":
        return BsubProtocol(
            interests,
            metrics,
            BsubConfig(
                num_bits=spec.num_bits,
                num_hashes=spec.num_hashes,
                initial_value=spec.initial_value,
                decay_factor_per_min=decay_factor_per_min,
                copy_limit=spec.copy_limit,
                election_lower=spec.election_lower,
                election_upper=spec.election_upper,
                election_window_s=spec.election_window_s,
                broker_broker_additive_merge=spec.broker_broker_additive_merge,
                static_brokers=spec.static_brokers,
                relay_fill_threshold=spec.relay_fill_threshold,
                relay_max_filters=spec.relay_max_filters,
                adaptive_df=spec.adaptive_df,
                carried_capacity=spec.carried_capacity,
                eviction=spec.eviction,
                interest_encoding=spec.interest_encoding,
                filter_spec=spec.filter_spec,
            ),
            recorder=recorder,
            registry=registry,
        )
    raise ValueError(
        f"unknown protocol {name!r}; expected one of {ALL_PROTOCOLS}"
    )


def run(
    trace: ContactTrace,
    spec: Optional[ExperimentSpec] = None,
    *,
    distribution: Optional[KeyDistribution] = None,
    obs: Optional[Observability] = None,
) -> RunResult:
    """Run one simulation described by *spec* on *trace*.

    The default spec is B-SUB under the paper's Sec. VII-A settings.
    Interests and the message workload are derived deterministically
    from the spec seeds, so different protocols compared under the
    same settings see the *identical* workload.

    When an :class:`~repro.obs.Observability` bundle is passed, the
    run is traced/metered through it: protocol events go to
    ``obs.tracer``, end-of-run aggregates to ``obs.registry``, and
    wall-clock to ``obs.timers`` (phases ``setup`` / ``simulate`` /
    ``summarize``).  Observability never changes run behaviour — the
    same seed produces identical results with and without it.

    When ``spec.faults`` is an enabled :class:`repro.faults.FaultSpec`,
    a :class:`repro.faults.FaultPlan` is threaded through the simulator
    and the run's fault tallies land in ``RunResult.fault_accounting``;
    a ``None``/disabled spec takes the byte-identical fault-free path.
    """
    spec = spec or ExperimentSpec()
    distribution = distribution or twitter_trends_2009()
    obs = obs or Observability.disabled()

    with obs.phase("setup"):
        interests = assign_interests(
            trace.nodes,
            distribution,
            seed=spec.interest_seed,
            interests_per_node=spec.interests_per_node,
        )
        workload = WorkloadConfig(
            ttl_s=spec.ttl_s,
            min_rate_per_s=spec.min_rate_per_s,
            keys_per_message=spec.keys_per_message,
            seed=spec.workload_seed,
        )
        events = generate_message_events(trace, distribution, workload)

        if spec.protocol == "B-SUB" and spec.df_per_min is None:
            df_per_min = derive_decay_factor(trace, spec, distribution)
        else:
            df_per_min = spec.df_per_min or 0.0

        metrics = MetricsCollector(interests, spec.protocol)
        protocol = _build_protocol(
            interests, metrics, spec, df_per_min,
            recorder=obs.tracer, registry=obs.registry,
        )
        plan = None
        if spec.faults is not None and spec.faults.enabled:
            plan = FaultPlan(spec.faults, trace, recorder=obs.tracer)
        simulation = Simulation(
            trace, protocol, events, rate_bps=spec.rate_bps,
            recorder=obs.tracer, faults=plan,
        )

    with obs.phase("simulate"):
        engine_report = simulation.run()

    with obs.phase("summarize"):
        broker_fraction = (
            protocol.broker_fraction()
            if isinstance(protocol, BsubProtocol)
            else 0.0
        )
        summary = metrics.summary()
        if obs.registry is not None:
            _harvest_run(obs, engine_report, summary)
            if plan is not None:
                # Fault counters only exist for faulted runs, so the
                # metrics document of a fault-free run is unchanged.
                tallies = plan.accounting.as_dict()
                for name in sorted(tallies):
                    obs.registry.counter(f"faults_{name}_total").inc(
                        tallies[name]
                    )
    return RunResult(
        protocol=spec.protocol,
        trace_name=trace.name,
        ttl_min=spec.ttl_min,
        decay_factor_per_min=df_per_min,
        summary=summary,
        engine=engine_report,
        broker_fraction=broker_fraction,
        fault_accounting=(
            plan.accounting.as_dict() if plan is not None else None
        ),
    )


def _harvest_run(
    obs: Observability, engine: SimulationReport, summary
) -> None:
    """Fold engine accounting and headline results into the registry."""
    registry = obs.registry
    registry.counter("engine_contacts_total").inc(engine.num_contacts)
    registry.counter("engine_messages_created_total").inc(
        engine.num_messages_created
    )
    registry.counter("engine_bytes_transferred_total").inc(
        engine.bytes_transferred
    )
    registry.counter("engine_refused_transfers_total").inc(
        engine.refused_transfers
    )
    registry.counter("engine_channels_exhausted_total").inc(
        engine.channels_exhausted
    )
    registry.gauge("run_delivery_ratio").set(_finite(summary.delivery_ratio))
    registry.gauge("run_mean_delay_s").set(_finite(summary.mean_delay_s))
    registry.gauge("run_forwardings_per_delivered").set(
        _finite(summary.forwardings_per_delivered)
    )
    registry.gauge("run_false_positive_ratio").set(
        _finite(summary.false_positive_ratio)
    )
    registry.gauge("run_false_injection_ratio").set(
        _finite(summary.false_injection_ratio)
    )


def _finite(value: float) -> float:
    """NaN-free gauge value (canonical JSON forbids NaN)."""
    return 0.0 if math.isnan(value) else value
