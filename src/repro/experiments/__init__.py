"""Experiment harness: the spec, runner, sweeps, and report formatting.

The entry points (``run``, ``sweep``, ``replicate``, ``resilience``)
live in this package's modules and are published by :mod:`repro.api`.
"""

from .config import (
    ALL_PROTOCOLS,
    DF_SWEEP_TTL_MIN,
    PAPER_DF_VALUES_PER_MIN,
    PAPER_TTL_VALUES_MIN,
    PROTOCOL_NAMES,
    ExperimentSpec,
)
from .parallel import RunTask, execute_tasks, resolve_jobs
from .replication import MetricStats, ReplicatedResult
from .resilience import ResilienceReport
from .report import (
    ascii_chart,
    figure_series,
    format_observability,
    format_table,
    metric_series,
    series_table,
)
from .runner import RunResult, average_peers_met_within, derive_decay_factor
from .tables import (
    PAPER_TABLE_I,
    format_table_i,
    format_table_ii,
    table_i_rows,
    table_ii_rows,
)

__all__ = [
    "DF_SWEEP_TTL_MIN",
    "ExperimentSpec",
    "PAPER_DF_VALUES_PER_MIN",
    "PAPER_TABLE_I",
    "PAPER_TTL_VALUES_MIN",
    "MetricStats",
    "PROTOCOL_NAMES",
    "ReplicatedResult",
    "ResilienceReport",
    "RunResult",
    "RunTask",
    "ALL_PROTOCOLS",
    "ascii_chart",
    "average_peers_met_within",
    "derive_decay_factor",
    "execute_tasks",
    "figure_series",
    "format_observability",
    "format_table",
    "format_table_i",
    "format_table_ii",
    "metric_series",
    "resolve_jobs",
    "series_table",
    "table_i_rows",
    "table_ii_rows",
]
