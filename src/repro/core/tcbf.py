"""Temporal Counting Bloom Filter (TCBF) — the paper's primary contribution.

The TCBF (Sec. IV) extends the counting Bloom filter with *temporal*
semantics:

* **Insertion** sets the counters of the key's hashed bits to a fixed
  initial value ``C``; counters that are already set are left unchanged
  ("the results of insertions are always a TCBF with identical counters
  of a value of C").
* **Decaying** constantly decrements every set counter at the *decaying
  factor* (DF); a bit whose counter reaches 0 is reset, so a key that is
  not re-inserted frequently enough is eventually removed.  This is the
  only deletion mechanism — the TCBF "only supports temporal deletion".
* **A-merge** (additive merge) ORs the bit-vectors and *sums* counters;
  used when a consumer reinforces its interests on a broker, so counter
  magnitude encodes contact frequency.
* **M-merge** (maximum merge) ORs the bit-vectors and takes the counter
  *maximum*; used between brokers to prevent the bogus-counter feedback
  loop of Fig. 6.
* **Existential query** — classic BF membership, same FPR as Eq. 1.
* **Preferential query** — for a key ``x`` and filters ``A``, ``B``,
  with ``a = min`` counter of ``x``'s bits in ``A`` and ``b`` likewise in
  ``B``, the preference of ``A`` over ``B`` for ``x`` is ``a - b`` when
  ``b != 0`` and ``a`` when ``b == 0``.  Brokers rank messages for
  forwarding by this value.

The paper's rule "we can only insert a key into a filter that has never
been merged before" is enforced: inserting into a merged filter raises,
and the documented workaround (insert into a fresh TCBF, then merge) is
provided by :meth:`TemporalCountingBloomFilter.with_keys`.

Decay is implemented *lazily*: the filter records the time of its last
synchronisation and applies ``DF × Δt`` on :meth:`advance`.  This is
observationally identical to the paper's continuous decrementing (the
equivalence is covered by tests and an ablation benchmark) but costs
O(set bits) per touch instead of O(set bits) per tick.

Counters live behind the :mod:`repro.core.backends` seam: the ``dict``
backend keeps the original sparse mapping, the ``array`` backend packs
them into a numpy vector so decay, merges, and the batch APIs
(:meth:`insert_batch`, :meth:`query_batch`, :meth:`min_counter_batch`,
:meth:`preference_batch`) run vectorized.  Both backends produce
bit-identical results.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .backends import make_counter_store, resolve_backend
from .bloom import BloomFilter
from .hashing import DEFAULT_SEED, HashFamily
from .params import resolve_param

__all__ = ["TemporalCountingBloomFilter", "DEFAULT_INITIAL_VALUE"]

DEFAULT_INITIAL_VALUE = 50.0  # the paper's C (Sec. VII-A: "C is set to 50")


class TemporalCountingBloomFilter:
    """A TCBF over an ``m``-bit vector with ``k`` hash functions.

    Parameters
    ----------
    num_bits, num_hashes, seed, family:
        Bit-vector geometry and hash family, as for
        :class:`~repro.core.bloom.BloomFilter`.
    initial_value:
        Counter value ``C`` assigned on insertion (paper: 50).
    decay_factor:
        DF — counter units removed per unit of time.  ``0`` disables
        decay (the Fig. 9 "DF = 0" configuration).
    time:
        The filter's notion of "now" at creation; :meth:`advance` moves
        it forward.
    backend:
        ``"dict"`` or ``"array"`` counter storage (``None`` -> the
        process default, see :mod:`repro.core.backends`).
    m, k, df:
        Keyword-only paper-notation aliases for ``num_bits`` /
        ``num_hashes`` / ``decay_factor``; passing both spellings of a
        parameter is a ``TypeError``.
    """

    __slots__ = (
        "family",
        "initial_value",
        "decay_factor",
        "backend",
        "_store",
        "_time",
        "_merged",
        "version",
    )

    def __init__(
        self,
        num_bits: Optional[int] = None,
        num_hashes: Optional[int] = None,
        seed: int = DEFAULT_SEED,
        family: Optional[HashFamily] = None,
        initial_value: float = DEFAULT_INITIAL_VALUE,
        decay_factor: Optional[float] = None,
        time: float = 0.0,
        backend: Optional[str] = None,
        *,
        m: Optional[int] = None,
        k: Optional[int] = None,
        df: Optional[float] = None,
    ):
        num_bits = resolve_param("num_bits", num_bits, "m", m, 256)
        num_hashes = resolve_param("num_hashes", num_hashes, "k", k, 4)
        decay_factor = resolve_param("decay_factor", decay_factor, "df", df, 0.0)
        if initial_value <= 0:
            raise ValueError(f"initial_value must be positive, got {initial_value}")
        if decay_factor < 0:
            raise ValueError(f"decay_factor must be >= 0, got {decay_factor}")
        self.family = family if family is not None else HashFamily(
            num_hashes, num_bits, seed
        )
        self.initial_value = float(initial_value)
        self.decay_factor = float(decay_factor)
        self.backend = resolve_backend(backend)
        self._store = make_counter_store(self.backend, self.family.num_bits)
        self._time = float(time)
        self._merged = False
        #: Mutation counter: bumped by every operation that may change
        #: the set bits or counters.  Lets derived quantities (e.g.
        #: encoded wire sizes) be memoised and invalidated cheaply.
        self.version = 0

    # -- basic properties --------------------------------------------------

    @property
    def num_bits(self) -> int:
        return self.family.num_bits

    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    @property
    def time(self) -> float:
        """The filter's current synchronisation time."""
        return self._time

    @property
    def merged(self) -> bool:
        """True once the filter has been the target of a merge."""
        return self._merged

    def counter(self, position: int) -> float:
        """Counter value at *position* (0.0 if the bit is unset)."""
        if not 0 <= position < self.num_bits:
            raise IndexError(f"bit position {position} out of range")
        return self._store.get(position)

    def counters(self) -> Dict[int, float]:
        """A snapshot {position: counter} of the set bits."""
        return self._store.as_dict()

    def bit(self, position: int) -> bool:
        """Whether the bit at *position* is set (counter > 0)."""
        return self.counter(position) > 0.0

    def fill_ratio(self) -> float:
        """FR = (# set bits) / m."""
        return self._store.count() / self.num_bits

    def __len__(self) -> int:
        return self._store.count()

    def __iter__(self) -> Iterator[int]:
        return iter(self._store.positions())

    def is_empty(self) -> bool:
        """True when no bit is set."""
        return self._store.is_empty()

    # -- decay ----------------------------------------------------------------

    def decay(self, amount: float) -> None:
        """Subtract *amount* from every set counter, resetting bits at 0.

        This is the paper's decaying primitive expressed as a single
        batched decrement.
        """
        if amount < 0:
            raise ValueError(f"decay amount must be >= 0, got {amount}")
        if amount == 0 or self._store.is_empty():
            return
        self.version += 1
        self._store.decay(amount)

    def advance(self, now: float) -> None:
        """Advance the filter's clock to *now*, applying lazy decay.

        Raises
        ------
        ValueError
            If *now* precedes the filter's current time (time cannot
            run backwards in the trace-driven simulation).
        """
        if now < self._time:
            raise ValueError(
                f"cannot advance backwards: filter at t={self._time}, got {now}"
            )
        elapsed = now - self._time
        self._time = now
        if self.decay_factor > 0 and elapsed > 0:
            self.decay(self.decay_factor * elapsed)

    # -- insertion ----------------------------------------------------------------

    def insert(self, key: str) -> None:
        """Insert *key*: set unset counters to ``C``; leave set ones alone.

        Raises
        ------
        RuntimeError
            If this filter has been merged — per Sec. IV-A, keys may
            only be inserted into a never-merged filter.  Insert into a
            fresh TCBF and merge instead (:meth:`with_keys`).
        """
        if self._merged:
            raise RuntimeError(
                "cannot insert into a merged TCBF; insert into a fresh "
                "filter and A-/M-merge it (paper Sec. IV-A)"
            )
        self.version += 1
        self._store.arm(self.family.distinct_positions(key), self.initial_value)

    def insert_all(self, keys: Iterable[str]) -> None:
        """Insert every key in *keys* (same rules as :meth:`insert`)."""
        for key in keys:
            self.insert(key)

    def insert_batch(self, keys: Sequence[str]) -> None:
        """Insert many keys with one batched hash + arm pass.

        Equivalent to :meth:`insert_all` (insertion is order-independent:
        every newly set counter gets the same ``C``), but hashes the
        keys as a batch and touches the counter storage once.
        """
        if self._merged:
            raise RuntimeError(
                "cannot insert into a merged TCBF; insert into a fresh "
                "filter and A-/M-merge it (paper Sec. IV-A)"
            )
        keys = list(keys)
        if not keys:
            return
        rows = self.family.positions_batch(keys)
        self.version += 1
        self._store.arm_rows(rows, self.initial_value)

    def refresh(self, key: str) -> None:
        """Re-arm *key*'s counters to ``C`` even if already set.

        The paper's consumers re-insert their interests on every broker
        contact; for the *genuine* filter (never merged) a plain insert
        would be a no-op on already-set bits, so refreshing models the
        periodic re-insertion that keeps interests alive under decay.
        """
        if self._merged:
            raise RuntimeError("cannot refresh a merged TCBF")
        self.version += 1
        self._store.assign(self.family.distinct_positions(key), self.initial_value)

    # -- merging ----------------------------------------------------------------

    def a_merge(self, other: "TemporalCountingBloomFilter") -> None:
        """Additive merge: OR bits, *sum* counters (consumer → broker)."""
        self._combine(other, additive=True)

    def m_merge(self, other: "TemporalCountingBloomFilter") -> None:
        """Maximum merge: OR bits, *max* counters (broker ↔ broker)."""
        self._combine(other, additive=False)

    def _combine(self, other: "TemporalCountingBloomFilter", additive: bool) -> None:
        self._check_compatible(other)
        # Bring both operands to a common "now" before combining so that
        # counters are on the same decay timeline.
        if other._time > self._time:
            self.advance(other._time)
        lag = other.decay_factor * (self._time - other._time)
        self.version += 1
        self._store.combine(other._store, lag, additive)
        self._merged = True

    def a_merged(
        self, other: "TemporalCountingBloomFilter"
    ) -> "TemporalCountingBloomFilter":
        """A new filter equal to ``self`` A-merged with *other*."""
        result = self.copy()
        result.a_merge(other)
        return result

    def m_merged(
        self, other: "TemporalCountingBloomFilter"
    ) -> "TemporalCountingBloomFilter":
        """A new filter equal to ``self`` M-merged with *other*."""
        result = self.copy()
        result.m_merge(other)
        return result

    # -- queries ----------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self.query(key)

    def query(self, key: str) -> bool:
        """Existential query: all of *key*'s bits set (FPR as Eq. 1)."""
        return self._store.query(self.family.positions(key))

    def query_all(self, keys: Iterable[str]) -> List[str]:
        """The subset of *keys* whose existential query returns True."""
        keys = list(keys)
        hits = self.query_batch(keys)
        return [key for key, hit in zip(keys, hits) if hit]

    def query_batch(self, keys: Sequence[str]) -> np.ndarray:
        """Existential queries for many keys as one boolean vector."""
        return self._store.query_rows(self.family.positions_batch(list(keys)))

    def min_counter(self, key: str) -> float:
        """Minimum counter among *key*'s hashed bits.

        Zero if any bit is unset — i.e. the key is (definitely) absent.
        This is the quantity the preferential query compares.
        """
        return self._store.min(self.family.positions(key))

    def min_counter_batch(self, keys: Sequence[str]) -> np.ndarray:
        """Minimum counters for many keys as one float vector."""
        return self._store.min_rows(self.family.positions_batch(list(keys)))

    def preference(
        self, key: str, other: "TemporalCountingBloomFilter"
    ) -> float:
        """Preferential query P_{self,other}(key) (Sec. IV-A).

        ``a - b`` where ``a``/``b`` are the minimum counters of *key* in
        ``self``/*other*; when ``b == 0`` the preference is ``a`` (the
        other filter knows nothing about the key, so self's evidence
        stands alone).  Positive values mean *self* is the better
        forwarder for the key.
        """
        self._check_compatible(other)
        a = self.min_counter(key)
        b = other.min_counter(key)
        return a if b == 0.0 else a - b

    def preference_batch(self, keys: Sequence[str], other) -> np.ndarray:
        """Preferential queries for many keys as one float vector.

        *other* may be any object exposing ``min_counter_batch`` (a
        TCBF, a :class:`~repro.core.allocation.TCBFCollection`, …).
        """
        if isinstance(other, TemporalCountingBloomFilter):
            self._check_compatible(other)
        keys = list(keys)
        a = self.min_counter_batch(keys)
        b = np.asarray(other.min_counter_batch(keys), dtype=np.float64)
        return np.where(b == 0.0, a, a - b)

    # -- conversion / construction ------------------------------------------------

    def to_bloom(self) -> BloomFilter:
        """Strip the counters, leaving the plain BF wire format (Sec. VI-C)."""
        return BloomFilter.from_bits(
            self._store.positions(), self.family, backend=self.backend
        )

    @classmethod
    def of(
        cls,
        keys: Iterable[str],
        num_bits: Optional[int] = None,
        num_hashes: Optional[int] = None,
        seed: int = DEFAULT_SEED,
        family: Optional[HashFamily] = None,
        initial_value: float = DEFAULT_INITIAL_VALUE,
        decay_factor: Optional[float] = None,
        time: float = 0.0,
        backend: Optional[str] = None,
        *,
        m: Optional[int] = None,
        k: Optional[int] = None,
        df: Optional[float] = None,
    ) -> "TemporalCountingBloomFilter":
        """A fresh TCBF containing every key in *keys*."""
        tcbf = cls(
            num_bits,
            num_hashes,
            seed,
            family=family,
            initial_value=initial_value,
            decay_factor=decay_factor,
            time=time,
            backend=backend,
            m=m,
            k=k,
            df=df,
        )
        tcbf.insert_batch(list(keys))
        return tcbf

    def with_keys(self, keys: Iterable[str], additive: bool = True) -> None:
        """Insert *keys* into this (possibly merged) filter.

        Implements the paper's documented workaround: the keys go into a
        fresh empty TCBF which is then A-merged (default) or M-merged in.
        """
        fresh = TemporalCountingBloomFilter(
            family=self.family,
            initial_value=self.initial_value,
            decay_factor=self.decay_factor,
            time=self._time,
            backend=self.backend,
        )
        fresh.insert_batch(list(keys))
        if additive:
            self.a_merge(fresh)
        else:
            self.m_merge(fresh)

    def copy(self) -> "TemporalCountingBloomFilter":
        """An independent deep copy (same family, counters, clock),
        cloned slot by slot rather than through the constructor."""
        clone = object.__new__(type(self))
        clone.family = self.family
        clone.initial_value = self.initial_value
        clone.decay_factor = self.decay_factor
        clone.backend = self.backend
        clone._time = float(self._time)
        clone._store = self._store.copy()
        clone._merged = self._merged
        clone.version = self.version
        return clone

    # -- internals ----------------------------------------------------------------

    def _set_counter(self, position: int, value: float) -> None:
        """Directly set one counter (wire decoding only — not a public op)."""
        self.version += 1
        self._store.set(position, value)

    def _check_compatible(self, other: "TemporalCountingBloomFilter") -> None:
        if not self.family.compatible_with(other.family):
            raise ValueError(
                "cannot combine TCBFs with different hash families: "
                f"{self.family!r} vs {other.family!r}"
            )

    def items(self) -> List[Tuple[int, float]]:
        """(position, counter) pairs sorted by position."""
        return self._store.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalCountingBloomFilter):
            return NotImplemented
        return (
            self.family == other.family
            and self._store.as_dict() == other._store.as_dict()
        )

    def __repr__(self) -> str:
        return (
            f"TemporalCountingBloomFilter(m={self.num_bits}, "
            f"k={self.num_hashes}, C={self.initial_value}, "
            f"DF={self.decay_factor}, set_bits={len(self)}, "
            f"t={self._time})"
        )
