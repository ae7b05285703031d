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
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..traces.model import ContactTrace
from ..workload.keys import KeyDistribution
from .config import ExperimentSpec
from .runner import RunResult, run

__all__ = [
    "RunTask",
    "execute_tasks",
    "resolve_jobs",
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


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request: ``None``/1 -> serial, <=0 -> all CPUs."""
    if jobs is None:
        return 1
    return (os.cpu_count() or 1) if jobs <= 0 else jobs


def _execute(task: RunTask) -> RunResult:
    return run(task.trace, task.spec, distribution=task.distribution)


def execute_tasks(
    tasks: Sequence[RunTask], jobs: Optional[int] = None
) -> List[RunResult]:
    """Run every task, in order, optionally across worker processes.

    The returned list is ordered like *tasks* regardless of which
    worker finished first, so callers can zip results back onto the
    task list.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(tasks) <= 1:
        return [_execute(task) for task in tasks]
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute, tasks))
