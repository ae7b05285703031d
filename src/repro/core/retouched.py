"""Retouched Bloom Filters over the TCBF (PAPERS.md: Donnet et al.,
"Retouched Bloom Filters: Allowing Networked Applications to Trade Off
Selected False Positives Against False Negatives").

A retouched filter deliberately *clears* a few chosen bit positions so
that specific troublesome false positives can never match again, at the
price of possibly losing the keys that legitimately used those bits.
In B-SUB terms: a relay filter false positive (``relay_filter_fp`` in
the PR-5 attribution taxonomy) happens exactly when an unwanted key's
bits are all covered by the union of announced-interest bits — so a
useful retouch must sacrifice *shared* bits, and the planner below
tracks precisely which interests it sacrifices.

Two pieces:

* :class:`RetouchedTCBF` — a drop-in
  :class:`~repro.core.tcbf.TemporalCountingBloomFilter` whose cleared
  positions are scrubbed back to zero after every mutation, so all
  query/merge/decay/serialisation paths behave as if those bits did not
  exist.
* :func:`plan_retouch` — the lineage-driven planner: given the keys
  that caused false injections and the keys the network actually wants,
  pick for each FP key the cheapest single bit to clear (the one shared
  with the fewest interests), subject to a sacrifice budget.

The end-to-end workflow (profile -> ``bsub analyze`` -> plan -> rerun
with ``--filter retouched:clear=...``) is documented in
``docs/filters.md`` and driven by :mod:`repro.obs.feedback`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from .hashing import HashFamily
from .tcbf import TemporalCountingBloomFilter

__all__ = ["RetouchedTCBF", "RetouchPlan", "plan_retouch"]


class RetouchedTCBF(TemporalCountingBloomFilter):
    """A TCBF with a fixed set of permanently-cleared bit positions.

    Behaves exactly like its parent except that the counters at
    ``cleared_bits`` are forced back to zero after every mutating
    operation (insert, refresh, merge, wire decode).  Decay and queries
    need no special handling: a scrubbed bit is simply an unset bit.

    Keys whose positions include a cleared bit can never produce an
    existential match — that removes the targeted false positives, and
    turns any *sacrificed* interest into a deliberate false negative on
    the relay path (direct consumer delivery is unaffected; consumers
    match on their own interest filters, not the relay).
    """

    __slots__ = ("cleared_bits",)

    def __init__(self, *args, cleared_bits: Iterable[int] = (), **kwargs):
        super().__init__(*args, **kwargs)
        cleared = frozenset(int(b) for b in cleared_bits)
        bad = [b for b in cleared if not 0 <= b < self.family.num_bits]
        if bad:
            raise ValueError(
                f"cleared bits out of range [0, {self.family.num_bits}): "
                f"{sorted(bad)}"
            )
        self.cleared_bits = cleared

    def _scrub(self) -> None:
        """Force every cleared position back to zero."""
        if not self.cleared_bits:
            return
        store = self._store
        for position in self.cleared_bits:
            store.set(position, 0.0)

    # Every mutator funnels through the parent then scrubs, so all
    # query paths (scalar, batch, preference, serialization) inherit
    # retouched semantics without reimplementation.

    def insert(self, key: str) -> None:
        """Insert *key*, then scrub the cleared positions."""
        super().insert(key)
        self._scrub()

    def insert_batch(self, keys) -> None:
        """Insert many keys, then scrub the cleared positions."""
        super().insert_batch(keys)
        self._scrub()

    def refresh(self, key: str) -> None:
        """Refresh *key*'s counters, then scrub the cleared positions."""
        super().refresh(key)
        self._scrub()

    def _combine(self, other, additive: bool) -> None:
        super()._combine(other, additive)
        self._scrub()

    def _set_counter(self, position: int, value: float) -> None:
        super()._set_counter(position, value)
        if position in self.cleared_bits:
            self._store.set(position, 0.0)

    def copy(self) -> "RetouchedTCBF":
        """An independent deep copy preserving the cleared set."""
        clone = super().copy()
        clone.cleared_bits = self.cleared_bits
        return clone

    def __repr__(self) -> str:
        base = super().__repr__()
        return f"{base[:-1]}, cleared={sorted(self.cleared_bits)})"


@dataclass(frozen=True)
class RetouchPlan:
    """The outcome of a lineage-driven retouching pass.

    Attributes
    ----------
    cleared_bits:
        Bit positions to clear (feed to ``RetouchedTCBF(cleared_bits=...)``
        or a ``retouched:clear=...`` filter spec).
    sacrificed_keys:
        Wanted keys that share a cleared bit — these become deliberate
        relay-path false negatives.
    neutralised_keys:
        FP keys that can no longer match once the bits are cleared.
    """

    cleared_bits: FrozenSet[int]
    sacrificed_keys: FrozenSet[str]
    neutralised_keys: FrozenSet[str]

    def spec_params(self) -> str:
        """The ``clear=...`` parameter string for a filter spec.

        Empty for an empty plan (check :meth:`is_empty` before building
        a ``retouched:...`` spec from it).
        """
        if not self.cleared_bits:
            return ""
        return "clear=" + "+".join(str(b) for b in sorted(self.cleared_bits))

    def is_empty(self) -> bool:
        """True when the plan clears nothing."""
        return not self.cleared_bits


def plan_retouch(
    fp_keys: Iterable[str],
    protected_keys: Iterable[str],
    family: HashFamily,
    max_sacrifice: int = 0,
    max_cleared: Optional[int] = None,
) -> RetouchPlan:
    """Choose bits to clear so *fp_keys* stop matching, greedily.

    For each FP key (processed in sorted order for determinism) the
    planner picks the key's bit shared with the *fewest* not-yet
    -sacrificed protected keys — ties broken by bit index — and clears
    it if doing so keeps the total number of sacrificed protected keys
    within ``max_sacrifice``.  FP keys already covered by an earlier
    cleared bit cost nothing.

    Note that an FP key which actually caused a relay false injection
    has *all* its bits covered by protected-key bits (that is why it
    matched), so with ``max_sacrifice=0`` such keys are skipped — a
    useful retouch for live FPs always trades away some interests.

    Parameters
    ----------
    fp_keys:
        Keys attributed as relay-filter false positives (or candidates).
    protected_keys:
        Keys the network wants delivered (announced interests).
    family:
        The relay filters' hash family (positions must match).
    max_sacrifice:
        Maximum number of protected keys the plan may sacrifice.
    max_cleared:
        Optional cap on how many bits may be cleared.
    """
    if max_sacrifice < 0:
        raise ValueError(f"max_sacrifice must be >= 0, got {max_sacrifice}")
    protected = sorted(set(protected_keys))
    targets = sorted(set(fp_keys) - set(protected))

    bit_users: dict = {}
    for key in protected:
        for bit in family.distinct_positions(key):
            bit_users.setdefault(bit, set()).add(key)

    cleared: set = set()
    sacrificed: set = set()
    neutralised: set = set()
    for key in targets:
        bits = family.distinct_positions(key)
        if any(b in cleared for b in bits):
            neutralised.add(key)
            continue
        if max_cleared is not None and len(cleared) >= max_cleared:
            break
        best_bit = min(
            bits,
            key=lambda b: (len(bit_users.get(b, set()) - sacrificed), b),
        )
        cost_keys = bit_users.get(best_bit, set()) - sacrificed
        if cost_keys and len(sacrificed) + len(cost_keys) > max_sacrifice:
            continue
        cleared.add(best_bit)
        sacrificed |= cost_keys
        neutralised.add(key)
    return RetouchPlan(
        cleared_bits=frozenset(cleared),
        sacrificed_keys=frozenset(sacrificed),
        neutralised_keys=frozenset(neutralised),
    )
