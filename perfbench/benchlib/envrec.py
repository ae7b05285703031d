"""Per-run host record, so runs taken on a noisy host can be spotted.

Load average and CPU steal are sampled before and after the run; a
steal share of a few percent or a load above ``nproc`` means another
tenant competed for the CPUs while the run measured.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, Optional, Tuple


def _cpu_times() -> Optional[Tuple[int, int]]:
    """(total jiffies, steal jiffies) from the aggregate ``cpu`` line."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    return sum(values[:8]), steal


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> Optional[float]:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


class HostRecord:
    """Snapshot at construction; :meth:`finish` adds the after-run view."""

    def __init__(self):
        self._before = _cpu_times()
        self.record: Dict[str, object] = {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": sys.version.split()[0],
            "numpy": _numpy_version(),
            "event_loop": _event_loop(),
            "loadavg_1m_before": _loadavg(),
        }

    def finish(self) -> Dict[str, object]:
        after = _cpu_times()
        self.record["loadavg_1m_after"] = _loadavg()
        if self._before is not None and after is not None:
            total = after[0] - self._before[0]
            steal = after[1] - self._before[1]
            self.record["cpu_steal_share"] = steal / total if total > 0 else 0.0
        else:
            self.record["cpu_steal_share"] = None
        return self.record


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


def _event_loop() -> str:
    from repro.serve.eventloop import event_loop_name

    return event_loop_name()
