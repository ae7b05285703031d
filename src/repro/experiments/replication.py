"""Multi-seed replication of experiments.

Single trace-driven runs carry seed noise (trace realisation, interest
assignment, message arrivals).  This module re-runs an experiment over
several seeds — re-deriving the trace *and* the workload per seed — and
aggregates each metric into mean ± sample standard deviation, which is
what EXPERIMENTS.md reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..traces.model import ContactTrace
from ..workload.keys import KeyDistribution
from .config import ExperimentSpec
from .parallel import RunTask, execute_tasks
from .runner import RunResult

__all__ = ["MetricStats", "ReplicatedResult", "replicate"]


@dataclass(frozen=True)
class MetricStats:
    """Mean ± sample std of one metric over the replications."""

    mean: float
    std: float
    count: int

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.std:.2g} (n={self.count})"


def _stats(values: Sequence[float]) -> MetricStats:
    clean = [v for v in values if not math.isnan(v)]
    if not clean:
        return MetricStats(math.nan, math.nan, 0)
    mean = sum(clean) / len(clean)
    if len(clean) > 1:
        variance = sum((v - mean) ** 2 for v in clean) / (len(clean) - 1)
        std = math.sqrt(variance)
    else:
        std = 0.0
    return MetricStats(mean, std, len(clean))


@dataclass(frozen=True)
class ReplicatedResult:
    """Aggregated metrics of one (trace family, spec) cell."""

    protocol: str
    metrics: Dict[str, MetricStats]
    runs: List[RunResult]

    def __getitem__(self, metric: str) -> MetricStats:
        return self.metrics[metric]


def replicate(
    trace_factory: Callable[[int], ContactTrace],
    spec: Optional[ExperimentSpec] = None,
    *,
    seeds: Sequence[int] = (0, 1, 2),
    jobs: Optional[int] = None,
    distribution: Optional[KeyDistribution] = None,
) -> ReplicatedResult:
    """Run *spec* once per seed and aggregate into mean ± std.

    Each seed regenerates the trace via *trace_factory(seed)* and
    shifts the workload/interest seeds, so replications are fully
    independent realisations of the same configuration.  Traces and
    per-seed specs are derived in the parent process (in seed order)
    before any fan-out, so ``jobs`` never changes the results.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    spec = spec or ExperimentSpec()
    tasks: List[RunTask] = []
    for seed in seeds:
        seeded = replace(
            spec,
            workload_seed=spec.workload_seed + 1000 * seed,
            interest_seed=spec.interest_seed + 1000 * seed,
        )
        tasks.append(RunTask(trace_factory(seed), seeded, distribution))
    runs: List[RunResult] = execute_tasks(tasks, jobs=jobs)
    metrics = {
        "delivery_ratio": _stats([r.summary.delivery_ratio for r in runs]),
        "mean_delay_min": _stats([r.summary.mean_delay_min for r in runs]),
        "forwardings_per_delivered": _stats(
            [r.summary.forwardings_per_delivered for r in runs]
        ),
        "false_positive_ratio": _stats(
            [r.summary.false_positive_ratio for r in runs]
        ),
        "broker_fraction": _stats([r.broker_fraction for r in runs]),
    }
    return ReplicatedResult(protocol=spec.protocol, metrics=metrics, runs=runs)
