"""Experiment specification (the paper's Sec. VII-A settings).

:class:`ExperimentSpec` is the one value every experiment entry point
takes: the protocol name plus every simulation parameter the paper
states, so each figure/table bench references one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..dtn.bandwidth import BLUETOOTH_EFFECTIVE_BPS
from ..faults.spec import FaultSpec
from ..pubsub.adaptive import AdaptiveDecayConfig

__all__ = [
    "ALL_PROTOCOLS",
    "PROTOCOL_NAMES",
    "PAPER_TTL_VALUES_MIN",
    "PAPER_DF_VALUES_PER_MIN",
    "DF_SWEEP_TTL_MIN",
    "ExperimentSpec",
]

#: The paper's three protocols; "SPRAY" (an extension baseline) is
#: also accepted as ``ExperimentSpec.protocol``.
PROTOCOL_NAMES = ("PUSH", "B-SUB", "PULL")
ALL_PROTOCOLS = ("PUSH", "B-SUB", "PULL", "SPRAY")

#: TTL sweep points in minutes (the paper's log-scaled 10…1000 axis).
PAPER_TTL_VALUES_MIN: Tuple[float, ...] = (10.0, 30.0, 100.0, 300.0, 1000.0)

#: DF sweep points in counter units per minute (Fig. 9 x-axis, [0, 2]).
#: 0.138 is the paper's computed DF for τ = 10 h.
PAPER_DF_VALUES_PER_MIN: Tuple[float, ...] = (
    0.0, 0.069, 0.138, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0,
)

#: The DF sweep fixes TTL at 20 hours (Sec. VII-B).
DF_SWEEP_TTL_MIN: float = 20.0 * 60.0


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one experiment needs, as a single typed value.

    Defaults are the paper's settings: B-SUB with 256-bit filters and
    4 hashes, C = 50, ℂ = 3, election thresholds 3/5 with a 5-hour
    window, 250 Kbps effective bandwidth, minimum message rate 1 per
    30 min, single-key messages of ≤ 140 bytes, one interest per node
    drawn from the Table II distribution.  ``df_per_min`` is the
    paper's DF; ``None`` derives it from Eq. 5.  Specs are frozen —
    derive variants with :func:`dataclasses.replace` or the ``with_*``
    helpers.
    """

    protocol: str = "B-SUB"
    ttl_min: float = 600.0
    df_per_min: Optional[float] = None  # None → derive via Eq. 5
    num_bits: int = 256
    num_hashes: int = 4
    initial_value: float = 50.0
    copy_limit: int = 3
    election_lower: int = 3
    election_upper: int = 5
    election_window_s: float = 5 * 3600.0
    rate_bps: Optional[float] = BLUETOOTH_EFFECTIVE_BPS
    min_rate_per_s: float = 1.0 / 1800.0
    interests_per_node: int = 1
    keys_per_message: int = 1
    workload_seed: int = 7
    interest_seed: int = 11
    df_delta_per_min: float = 0.01
    broker_broker_additive_merge: bool = False
    static_brokers: Optional[Tuple[int, ...]] = None
    relay_fill_threshold: Optional[float] = None
    relay_max_filters: Optional[int] = None
    adaptive_df: Optional[AdaptiveDecayConfig] = None
    carried_capacity: Optional[int] = None
    eviction: str = "oldest"
    push_buffer_capacity: Optional[int] = None
    push_summary_exchange: str = "free"
    spray_copies: int = 8
    interest_encoding: str = "tcbf"
    #: Relay filter backend spec (:mod:`repro.core.filter_zoo`), e.g.
    #: ``"multi:mem=384"`` or ``"retouched:clear=3+17"``; ``None``
    #: keeps the paper's single array-backed TCBF relay.
    filter_spec: Optional[str] = None
    #: Fault-injection model (:mod:`repro.faults`).  ``None`` — or a
    #: spec with every rate at zero — takes the exact fault-free path.
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if self.protocol not in ALL_PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"expected one of {ALL_PROTOCOLS}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise TypeError(
                f"faults must be a FaultSpec or None, "
                f"got {type(self.faults).__name__}"
            )

    @property
    def ttl_s(self) -> float:
        return self.ttl_min * 60.0

    def with_protocol(self, protocol: str) -> "ExperimentSpec":
        return replace(self, protocol=protocol)

    def with_ttl(self, ttl_min: float) -> "ExperimentSpec":
        return replace(self, ttl_min=ttl_min)

    def with_df(self, df_per_min: Optional[float]) -> "ExperimentSpec":
        return replace(self, df_per_min=df_per_min)

    def with_faults(self, faults: Optional[FaultSpec]) -> "ExperimentSpec":
        return replace(self, faults=faults)
