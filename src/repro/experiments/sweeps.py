"""Parameter sweeps: the TTL sweep (Figs. 7–8) and DF sweep (Fig. 9).

Every sweep cell is an independent simulation, so :func:`sweep`
accepts a ``jobs`` argument and fans across processes via
:mod:`repro.experiments.parallel`; results are identical to the serial
path for any ``jobs`` value.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..traces.model import ContactTrace
from ..workload.keys import KeyDistribution
from .config import PROTOCOL_NAMES, ExperimentSpec
from .parallel import RunTask, execute_tasks
from .runner import RunResult

__all__ = ["sweep"]


def sweep(
    trace: ContactTrace,
    spec: Optional[ExperimentSpec] = None,
    *,
    ttl_min: Optional[Sequence[float]] = None,
    df_per_min: Optional[Sequence[float]] = None,
    protocols: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    distribution: Optional[KeyDistribution] = None,
) -> Union[Dict[str, List[RunResult]], List[RunResult]]:
    """Sweep one axis: TTL (Figs. 7–8) or DF (Fig. 9).

    Exactly one of ``ttl_min`` / ``df_per_min`` must be given.

    * ``ttl_min=[...]`` runs every protocol in *protocols* (default:
      the paper's PUSH / B-SUB / PULL) at every TTL and returns
      ``{protocol: [RunResult, ...]}`` ordered like the sweep values.
      B-SUB's DF is re-derived from Eq. 5 at each TTL (``τ = TTL``),
      exactly as the paper does for this sweep.
    * ``df_per_min=[...]`` runs B-SUB at ``spec.ttl_min`` for each
      explicit DF and returns ``[RunResult, ...]``; *protocols* is not
      accepted on this axis (Fig. 9 is B-SUB only).  DF = 0 disables
      decay (interests flood, the Fig. 9 left endpoint); large DFs
      confine interests until B-SUB degenerates towards PULL.

    ``jobs`` fans the grid across processes (<=0 → all CPUs, default
    serial); results are identical to the serial path.
    """
    if (ttl_min is None) == (df_per_min is None):
        raise TypeError("pass exactly one of ttl_min=... or df_per_min=...")
    spec = spec or ExperimentSpec()
    if df_per_min is not None:
        if protocols is not None:
            raise TypeError(
                "protocols is only valid for a TTL sweep; "
                "the DF sweep runs B-SUB only"
            )
        bsub = spec.with_protocol("B-SUB")
        tasks = [
            RunTask(trace, bsub.with_df(df), distribution) for df in df_per_min
        ]
        return execute_tasks(tasks, jobs=jobs)
    protocols = tuple(protocols) if protocols else PROTOCOL_NAMES
    tasks = [
        RunTask(trace, spec.with_ttl(ttl).with_df(None).with_protocol(name),
                distribution)
        for ttl in ttl_min
        for name in protocols
    ]
    outcomes = execute_tasks(tasks, jobs=jobs)
    results: Dict[str, List[RunResult]] = {name: [] for name in protocols}
    for task, outcome in zip(tasks, outcomes):
        results[task.spec.protocol].append(outcome)
    return results
