"""The parent-vs-change rule for one (workload, metric).

* **improved** — the change wins at least nine tenths of the pairs (ties
  count for neither side) *and* the medians differ, in the better
  direction, by more than the parent's own interquartile range.
* **regressed** — the change's median is worse than the parent's by more
  than the metric's bound, and the spread does not hide it (or every
  change run is worse than every parent run).
* **unresolved** — the run-to-run spread of either side exceeds the
  bound, so "no worse than the bound" cannot be shown; unless every
  change run reads better than every parent run.
* **unchanged** — otherwise.
"""

from __future__ import annotations

from typing import Dict, Sequence

from . import stats

WIN_SHARE = 0.9
#: Pairs a comparison runs (the 9/10 rule needs ten), and the seed of
#: the first; the sims pin their output fingerprints for these seeds.
PAIRS = 10
FIRST_SEED = 100


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Dict[str, object]:
    """Classify *change* against *parent*; runs are paired by index."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    pairs = list(zip(parent, change))
    if not pairs:
        raise ValueError("no pairs to compare")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in pairs if (c - p) * sign > 0)
    losses = sum(1 for p, c in pairs if (c - p) * sign < 0)
    base, new = stats.summary(parent), stats.summary(change)
    gain = (new["median"] - base["median"]) * sign  # > 0: change is better
    worse_share = -gain / abs(base["median"]) if base["median"] else 0.0
    spread = max(base["spread"], new["spread"])
    all_better = min(c * sign for c in change) > max(p * sign for p in parent)
    all_worse = max(c * sign for c in change) < min(p * sign for p in parent)

    if wins >= WIN_SHARE * len(pairs) and gain > base["iqr"]:
        label = "improved"
    elif worse_share > bound and (spread <= bound or all_worse):
        label = "regressed"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "pairs": len(pairs),
        "win_share": wins / len(pairs),
        "loss_share": losses / len(pairs),
        "parent": base,
        "change": new,
        "worse_share": worse_share,
        "spread": spread,
        "bound": bound,
    }
