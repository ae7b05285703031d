"""Order statistics used by every workload and by the compare rule.

Percentiles are *nearest-rank*: the p-th percentile of n sorted samples
is the sample at 1-based rank ``ceil(p / 100 * n)``, so every reported
value is one that was actually measured.  A tail percentile is only
meaningful when enough samples lie beyond it; :func:`tail_percentile`
picks the highest candidate percentile that has at least
``MIN_BEYOND`` samples strictly after its rank.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: A tail percentile needs at least this many samples beyond its rank.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among *n* samples
    (rounded first, so 99.9% of 10,000 is rank 9,990, not 9,991)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank *p*-th percentile (0 < p <= 100) of *values*."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples lie strictly after the p-th rank."""
    return n - _rank(n, p)


def supports(n: int, p: float) -> bool:
    """True when *n* samples carry a trustworthy p-th percentile."""
    return n > 0 and samples_beyond(n, p) >= MIN_BEYOND


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and relative spread, as the acceptance check
    computes them (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        only = float(values[0]) if values else math.nan
        return {"n": len(values), "median": only, "q1": only, "q3": only,
                "iqr": 0.0, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    iqr = q3 - q1
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": iqr,
        "spread": iqr / abs(median) if median else math.inf,
    }
