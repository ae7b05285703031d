"""Parallel execution of independent simulation runs.

Sweeps (Figs. 7–9) and multi-seed replications are embarrassingly
parallel: every (trace, spec) cell is an independent simulation whose
workload is derived deterministically from the spec seeds.  This
module fans those cells across a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping results
bit-identical to the serial path:

* tasks are materialised in the parent process in the same order the
  serial loops would visit them (including any per-seed spec
  derivation and trace construction), so scheduling cannot perturb the
  workload;
* ``ProcessPoolExecutor.map`` returns results in submission order, so
  the output lists line up with the serial ones;
* ``jobs=1`` (the default) bypasses the pool entirely.

``jobs <= 0`` means "one worker per CPU".

This module is also the process-pool home of the simulator's *shard*
fan-out (:func:`run_passive_shards`): a sharded passive replay of an
mmap trace dataset sends each worker only ``(dataset path, row range)``
— workers re-open the mapping themselves and reduce their window with
:func:`repro.dtn.simulator.passive_partial`, so no contact data ever
crosses a process boundary.  Because every run may now fan out twice
(``jobs`` runs × ``shards`` windows), :func:`resolve_jobs` clamps the
product to the machine's core count so nested pools cannot oversubscribe.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..traces.model import ContactTrace
from ..workload.keys import KeyDistribution
from .config import ExperimentSpec
from .runner import RunResult, run

__all__ = [
    "RunTask",
    "execute_tasks",
    "resolve_jobs",
    "run_passive_shards",
]


@dataclass(frozen=True)
class RunTask:
    """One fully specified simulation run, ready to ship to a worker.

    Everything here pickles: traces and specs are plain dataclasses
    and the distribution is a value object, so a task can cross a
    process boundary without losing determinism.
    """

    trace: ContactTrace
    spec: ExperimentSpec
    distribution: Optional[KeyDistribution] = field(default=None)


def resolve_jobs(jobs: Optional[int], shards: int = 1) -> int:
    """Normalise a ``jobs`` request: ``None``/1 -> serial, <=0 -> all CPUs.

    When runs are themselves sharded (``shards > 1``), each job may
    spawn up to *shards* worker processes of its own, so the job count
    is clamped to keep ``jobs × shards`` within ``os.cpu_count()``
    (with a warning) — nested pools can degrade a machine far below
    serial speed.
    """
    cpus = os.cpu_count() or 1
    if jobs is None:
        return 1
    resolved = cpus if jobs <= 0 else jobs
    if shards and shards > 1:
        allowed = max(1, cpus // int(shards))
        if resolved > allowed:
            warnings.warn(
                f"jobs={resolved} with shards={shards} would run "
                f"{resolved * shards} workers on {cpus} CPUs; "
                f"clamping jobs to {allowed}",
                RuntimeWarning,
                stacklevel=2,
            )
            resolved = allowed
    return resolved


def _execute(task: RunTask) -> RunResult:
    return run(task.trace, task.spec, distribution=task.distribution)


def _passive_shard(
    args: Tuple[str, int, int, Optional[float]]
) -> Dict[str, Any]:
    """Worker: re-open one row range of a dataset and reduce it."""
    from ..dtn.simulator import passive_partial
    from ..traces.backends import ColumnarContactStore

    source, lo, hi, rate_bps = args
    return passive_partial(ColumnarContactStore.open(source, lo, hi), rate_bps)


def run_passive_shards(
    source: str,
    bounds: Sequence[Tuple[int, int]],
    rate_bps: Optional[float],
    max_workers: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Reduce each (lo, hi) row window of the dataset at *source*.

    Windows are fanned across a :class:`ProcessPoolExecutor` (capped at
    the core count); the returned partials are ordered like *bounds*
    regardless of completion order, so the merge is deterministic.
    Falls back to in-process reduction on single-core machines.
    """
    tasks = [(source, lo, hi, rate_bps) for lo, hi in bounds]
    workers = min(
        len(tasks), max_workers or os.cpu_count() or 1
    )
    if workers <= 1:
        return [_passive_shard(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_passive_shard, tasks))


def execute_tasks(
    tasks: Sequence[RunTask], jobs: Optional[int] = None
) -> List[RunResult]:
    """Run every task, in order, optionally across worker processes.

    The returned list is ordered like *tasks* regardless of which
    worker finished first, so callers can zip results back onto the
    task list.
    """
    tasks = list(tasks)
    shards = max(
        ((task.spec.shards or 1) for task in tasks), default=1
    )
    jobs = resolve_jobs(jobs, shards)
    if jobs == 1 or len(tasks) <= 1:
        return [_execute(task) for task in tasks]
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute, tasks))
