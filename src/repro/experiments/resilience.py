"""Degradation accounting: a faulted run vs. its fault-free twin.

A :class:`ResilienceReport` pairs one faulted run with a *twin* run of
the identical (trace, spec) cell with the fault layer removed.  Because
workload and interests derive deterministically from the spec seeds,
the two runs see the same messages and subscriptions — every metric
delta is attributable to the injected faults alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..obs import Observability
from ..traces.model import ContactTrace
from ..workload.keys import KeyDistribution
from .config import ExperimentSpec
from .runner import RunResult, run

__all__ = ["ResilienceReport", "resilience"]


def _ratio(faulted: float, baseline: float) -> float:
    """faulted/baseline, with 0/0 -> 1 (no degradation) and x/0 -> inf."""
    if baseline == 0.0:
        return 1.0 if faulted == 0.0 else math.inf
    return faulted / baseline


@dataclass(frozen=True)
class ResilienceReport:
    """One faulted run measured against its fault-free twin."""

    faulted: RunResult
    baseline: RunResult

    @property
    def delivery_ratio(self) -> float:
        return self.faulted.summary.delivery_ratio

    @property
    def baseline_delivery_ratio(self) -> float:
        return self.baseline.summary.delivery_ratio

    @property
    def delivery_retention(self) -> float:
        """Fraction of the fault-free delivery ratio retained (1 = unhurt)."""
        return _ratio(self.delivery_ratio, self.baseline_delivery_ratio)

    @property
    def delivery_degradation(self) -> float:
        """1 - retention: the delivery fraction the faults cost."""
        return 1.0 - min(1.0, self.delivery_retention)

    @property
    def cost_ratio(self) -> float:
        """Bytes transferred, relative to the fault-free twin.

        Can exceed 1 (lost frames burn airtime and recovery causes
        re-transfers) or fall below it (skipped contacts move nothing).
        """
        return _ratio(
            self.faulted.engine.bytes_transferred,
            self.baseline.engine.bytes_transferred,
        )

    @property
    def forwardings_ratio(self) -> float:
        """Message transmissions, relative to the fault-free twin."""
        return _ratio(
            float(self.faulted.summary.num_forwardings),
            float(self.baseline.summary.num_forwardings),
        )

    @property
    def fault_accounting(self) -> Dict[str, int]:
        return dict(self.faulted.fault_accounting or {})

    def rows(self) -> List[List[object]]:
        """Table rows for the CLI (metric, faulted, baseline)."""
        f, b = self.faulted.summary, self.baseline.summary
        rows: List[List[object]] = [
            ["delivery ratio", round(f.delivery_ratio, 4),
             round(b.delivery_ratio, 4)],
            ["delivery retention", round(self.delivery_retention, 4), 1.0],
            ["mean delay (min)", round(f.mean_delay_min, 1),
             round(b.mean_delay_min, 1)],
            ["forwardings", f.num_forwardings, b.num_forwardings],
            ["bytes transferred",
             round(self.faulted.engine.bytes_transferred),
             round(self.baseline.engine.bytes_transferred)],
            ["messages", f.num_messages, b.num_messages],
        ]
        for name, value in sorted(self.fault_accounting.items()):
            rows.append([name.replace("_", " "), value, 0])
        return rows


def resilience(
    trace: ContactTrace,
    spec: ExperimentSpec,
    *,
    distribution: Optional[KeyDistribution] = None,
    obs: Optional[Observability] = None,
) -> ResilienceReport:
    """Run *spec* (which must enable faults) plus its fault-free twin.

    Returns a :class:`ResilienceReport` comparing delivery and cost
    against the identical-workload twin.  The observability bundle,
    when given, traces only the faulted run — the twin is a reference
    measurement, not the experiment.
    """
    if spec.faults is None or not spec.faults.enabled:
        raise ValueError(
            "resilience() needs a spec with an enabled FaultSpec; "
            "use run() for fault-free experiments"
        )
    faulted = run(trace, spec, distribution=distribution, obs=obs)
    baseline = run(trace, spec.with_faults(None), distribution=distribution)
    return ResilienceReport(faulted=faulted, baseline=baseline)
