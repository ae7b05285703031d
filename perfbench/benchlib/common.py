"""What every workload returns, plus small shared helpers."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parents[2]
#: Run records and span dumps.
OUT_DIR = ROOT / ".bench_out"
#: A run measures on past ``--seconds`` while its estimate is slower than
#: this multiple of the fastest an earlier run in the checkout recorded,
SETTLE_WITHIN = 1.10
#: for at most this multiple of ``--seconds`` in all,
SETTLE_CAP = 4.0
#: while the checkout's runs together have measured past ``--seconds``
#: for less than this many seconds (so however long the host stays slow,
#: a checkout's runs end within a fixed time).
SETTLE_BUDGET_S = 800.0


@dataclass
class Outcome:
    """One workload run: metrics plus the output checks' verdict.

    ``attempted`` counts checked operations (a sim run, a broker
    delivery); every failed check adds to ``failed`` and a line to
    ``problems``.
    """

    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, problem: str, weight: int = 1) -> bool:
        """Record one output check; *weight* failures when it fails."""
        if not ok:
            self.failed += weight
            self.problems.append(problem)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def peak_rss_mb() -> float:
    """Peak resident set of this process image so far, in MiB.

    Read from ``VmHWM``: ``getrusage``'s ``ru_maxrss`` survives
    ``execve`` and so can report the peak of whatever process spawned
    this one.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Window:
    """How long one measurement goes on.

    At least *seconds*.  The host's slow stretches can last minutes,
    longer than a whole run, and no statistic over such a run recovers
    the program's speed.  So past *seconds* a settling window (*name*
    given) keeps measuring while its estimate is more than
    ``SETTLE_WITHIN`` times the fastest estimate an earlier run of the
    same workload recorded in this checkout, up to ``SETTLE_CAP`` times
    *seconds* in all, and within the checkout's ``SETTLE_BUDGET_S``.
    The first run of a checkout has nothing to compare with and stops at
    *seconds*.
    """

    def __init__(self, seconds: float, name: Optional[str] = None):
        self.seconds = seconds
        self.started = time.perf_counter()
        #: Seconds measured when :meth:`more` last answered.
        self.measured = 0.0
        self.path = OUT_DIR / f"fastest-{name}.json" if name else None
        self.settled_path = OUT_DIR / "settled.json"
        self.reference = self.settled = None
        if self.path is not None:
            self.reference = _recorded(self.path, "run_s")
            self.settled = _recorded(self.settled_path, "seconds") or 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def more(self, estimate: Optional[float]) -> bool:
        """Whether to measure another unit, given the estimate so far."""
        elapsed = self.measured = self.elapsed()
        if elapsed < self.seconds:
            return True
        if self.reference is None or estimate is None:
            return False
        return (elapsed < SETTLE_CAP * self.seconds
                and self.settled + elapsed - self.seconds < SETTLE_BUDGET_S
                and estimate > SETTLE_WITHIN * self.reference)

    def close(self, estimate: float) -> Dict[str, object]:
        """Records *estimate* for later runs; returns the window's facts
        for the run record."""
        if self.path is not None:
            OUT_DIR.mkdir(exist_ok=True)
            best = estimate if self.reference is None else min(self.reference, estimate)
            self.path.write_text(json.dumps({"run_s": best}))
            past = max(0.0, self.measured - self.seconds)
            self.settled_path.write_text(json.dumps({"seconds": self.settled + past}))
        return {"window_s": self.measured, "settle_reference_s": self.reference}


def _recorded(path: Path, key: str) -> Optional[float]:
    """The number an earlier run wrote under *key* in *path*, or None."""
    try:
        return float(json.loads(path.read_text())[key])
    except (OSError, ValueError, KeyError, TypeError):
        return None
