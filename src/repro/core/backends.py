"""Storage backends for the filter implementations.

The filter classes (:class:`~repro.core.bloom.BloomFilter`,
:class:`~repro.core.counting_bloom.CountingBloomFilter`,
:class:`~repro.core.tcbf.TemporalCountingBloomFilter`) describe the
paper's *semantics*; this module provides the *storage* behind them
through a common seam:

* ``dict`` — the original sparse mapping ``position -> counter``
  (or a ``set`` of positions for the plain BF).  Cheap for single-key
  operations on mostly-empty filters; every bulk operation is a Python
  loop.
* ``array`` — a dense :mod:`numpy` vector of length ``m``.  Decay is a
  single subtract-and-clip, merges are elementwise add/max, and the
  batch APIs answer many keys with one fancy-indexing pass over an
  ``(n_keys, k)`` position matrix.

Both backends are **observationally identical**: they perform the same
IEEE-754 arithmetic in the same per-position order, so existential and
preferential queries, counters, and serialised forms agree bit for bit
(a property-based test pins this down).  Select the default backend
process-wide with the ``BSUB_FILTER_BACKEND`` environment variable or
per filter with the ``backend=`` constructor argument.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "BACKENDS",
    "default_backend",
    "resolve_backend",
    "make_counter_store",
    "make_bit_store",
    "DictCounterStore",
    "ArrayCounterStore",
    "SetBitStore",
    "ArrayBitStore",
]

#: Environment variable overriding the process-wide default backend.
BACKEND_ENV_VAR = "BSUB_FILTER_BACKEND"

#: The recognised backend names.
BACKENDS = ("dict", "array")


def default_backend() -> str:
    """The process-wide default backend (``array`` unless overridden)."""
    backend = os.environ.get(BACKEND_ENV_VAR, "array")
    if backend not in BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV_VAR}={backend!r} is not a valid backend; "
            f"expected one of {BACKENDS}"
        )
    return backend


def resolve_backend(backend: Union[str, None]) -> str:
    """Normalise a ``backend=`` argument (``None`` -> the default)."""
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


# ---------------------------------------------------------------------------
# Counter stores (CBF integer counts, TCBF float lifetimes)
# ---------------------------------------------------------------------------


class DictCounterStore:
    """Sparse ``position -> value`` counters; absent means zero.

    Invariant: only strictly positive values are stored, exactly as the
    original filter implementations kept their dicts.
    """

    __slots__ = ("num_bits", "_map")

    backend = "dict"

    def __init__(self, num_bits: int, integer: bool = False):
        self.num_bits = num_bits
        self._map: Dict[int, float] = {}

    # -- single-position access -------------------------------------------

    def get(self, position: int) -> float:
        return self._map.get(position, 0.0)

    def set(self, position: int, value: float) -> None:
        if value > 0.0:
            self._map[position] = value
        else:
            self._map.pop(position, None)

    # -- bulk mutation ------------------------------------------------------

    def arm(self, positions: Iterable[int], value: float) -> None:
        """Set *value* at every position whose counter is not positive."""
        counters = self._map
        for position in positions:
            if counters.get(position, 0.0) <= 0.0:
                counters[position] = value

    def arm_rows(self, rows: np.ndarray, value: float) -> None:
        counters = self._map
        for row in rows.tolist():
            for position in row:
                if counters.get(position, 0.0) <= 0.0:
                    counters[position] = value

    def assign(self, positions: Iterable[int], value: float) -> None:
        """Unconditionally set *value* at every position (refresh)."""
        for position in positions:
            self._map[position] = value

    def add_at(self, positions: Iterable[int], delta: float) -> None:
        """Add *delta* at every position, dropping entries at zero (CBF)."""
        counters = self._map
        for position in positions:
            updated = counters.get(position, 0) + delta
            if updated:
                counters[position] = updated
            else:
                counters.pop(position, None)

    def decay(self, amount: float) -> None:
        self._map = {
            position: value - amount
            for position, value in self._map.items()
            if value > amount
        }

    def combine(self, other: "CounterStore", lag: float, additive: bool) -> None:
        """Fold *other*'s counters (each reduced by *lag*) into self."""
        mine = self._map
        for position, value in other.nonzero_items():
            decayed = value - lag
            if decayed <= 0.0:
                continue
            if additive:
                mine[position] = mine.get(position, 0.0) + decayed
            else:
                mine[position] = max(mine.get(position, 0.0), decayed)

    def clear(self) -> None:
        self._map.clear()

    # -- queries ------------------------------------------------------------

    def query(self, positions: Sequence[int]) -> bool:
        counters = self._map
        return all(counters.get(p, 0.0) > 0.0 for p in positions)

    def min(self, positions: Sequence[int]) -> float:
        counters = self._map
        return min(counters.get(p, 0.0) for p in positions)

    def query_rows(self, rows: np.ndarray) -> np.ndarray:
        counters = self._map
        return np.fromiter(
            (
                all(counters.get(p, 0.0) > 0.0 for p in row)
                for row in rows.tolist()
            ),
            dtype=bool,
            count=len(rows),
        )

    def min_rows(self, rows: np.ndarray) -> np.ndarray:
        counters = self._map
        return np.fromiter(
            (min(counters.get(p, 0.0) for p in row) for row in rows.tolist()),
            dtype=np.float64,
            count=len(rows),
        )

    # -- introspection -----------------------------------------------------

    def nonzero_items(self) -> Iterable[Tuple[int, float]]:
        return self._map.items()

    def items(self) -> List[Tuple[int, float]]:
        return sorted(self._map.items())

    def as_dict(self) -> Dict[int, float]:
        return dict(self._map)

    def positions(self) -> List[int]:
        return sorted(self._map)

    def count(self) -> int:
        return len(self._map)

    def is_empty(self) -> bool:
        return not self._map

    def copy(self) -> "DictCounterStore":
        clone = DictCounterStore(self.num_bits)
        clone._map = dict(self._map)
        return clone


class ArrayCounterStore:
    """Dense numpy counters; a bit is set while its counter is positive.

    The counter vector never holds negative values, mirroring the dict
    store's only-positive-entries invariant at the arithmetic level.
    """

    __slots__ = ("num_bits", "_integer", "_array")

    backend = "array"

    def __init__(self, num_bits: int, integer: bool = False):
        self.num_bits = num_bits
        self._integer = integer
        self._array = np.zeros(
            num_bits, dtype=np.int64 if integer else np.float64
        )

    def _scalar(self, value) -> float:
        return int(value) if self._integer else float(value)

    # -- single-position access -------------------------------------------

    def get(self, position: int) -> float:
        return self._scalar(self._array[position])

    def set(self, position: int, value: float) -> None:
        self._array[position] = value if value > 0.0 else 0.0

    # -- bulk mutation ------------------------------------------------------

    def arm(self, positions: Sequence[int], value: float) -> None:
        array = self._array
        index = np.asarray(positions, dtype=np.int64)
        unset = array[index] <= 0.0
        if unset.any():
            array[index[unset]] = value

    def arm_rows(self, rows: np.ndarray, value: float) -> None:
        array = self._array
        index = rows.reshape(-1)
        unset = array[index] <= 0.0
        if unset.any():
            array[index[unset]] = value

    def assign(self, positions: Sequence[int], value: float) -> None:
        self._array[np.asarray(positions, dtype=np.int64)] = value

    def add_at(self, positions: Sequence[int], delta: float) -> None:
        np.add.at(self._array, np.asarray(positions, dtype=np.int64), delta)

    # Float-only kernels (integer CBF stores never decay or combine).
    # Counters are never negative, so clamping at +0.0 instead of masking
    # yields the same bits: x - x is +0.0, and x + 0.0 and max(x, 0.0)
    # are x for every counter x.
    def decay(self, amount: float) -> None:
        array = self._array
        np.subtract(array, amount, out=array)
        np.maximum(array, 0.0, out=array)

    def combine(self, other: "CounterStore", lag: float, additive: bool) -> None:
        array = self._array
        if isinstance(other, ArrayCounterStore):
            contribution = other._array - lag
            np.maximum(contribution, 0.0, out=contribution)
            if additive:
                np.add(array, contribution, out=array)
            else:
                np.maximum(array, contribution, out=array)
            return
        for position, value in other.nonzero_items():
            decayed = value - lag
            if decayed <= 0.0:
                continue
            if additive:
                array[position] += decayed
            else:
                array[position] = max(self._scalar(array[position]), decayed)

    def clear(self) -> None:
        self._array[:] = 0

    # -- queries ------------------------------------------------------------

    def query(self, positions: Sequence[int]) -> bool:
        return bool((self._array[positions] > 0.0).all())

    def min(self, positions: Sequence[int]) -> float:
        return self._scalar(self._array[positions].min())

    def query_rows(self, rows: np.ndarray) -> np.ndarray:
        return (self._array[rows] > 0.0).all(axis=1)

    def min_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._array[rows].min(axis=1)

    # -- introspection -----------------------------------------------------

    def nonzero_items(self) -> Iterable[Tuple[int, float]]:
        positions = np.flatnonzero(self._array > 0.0)
        values = self._array[positions]
        return [
            (int(p), self._scalar(v)) for p, v in zip(positions, values)
        ]

    def items(self) -> List[Tuple[int, float]]:
        return list(self.nonzero_items())  # flatnonzero is already sorted

    def as_dict(self) -> Dict[int, float]:
        return dict(self.nonzero_items())

    def positions(self) -> List[int]:
        return [int(p) for p in np.flatnonzero(self._array > 0.0)]

    def count(self) -> int:
        return int(np.count_nonzero(self._array))

    def is_empty(self) -> bool:
        return not self._array.any()

    def copy(self) -> "ArrayCounterStore":
        clone = ArrayCounterStore(self.num_bits, integer=self._integer)
        clone._array = self._array.copy()
        return clone


CounterStore = Union[DictCounterStore, ArrayCounterStore]


def make_counter_store(
    backend: Union[str, None], num_bits: int, integer: bool = False
) -> CounterStore:
    """Build a counter store for *backend* (``None`` -> default)."""
    if resolve_backend(backend) == "array":
        return ArrayCounterStore(num_bits, integer=integer)
    return DictCounterStore(num_bits, integer=integer)


# ---------------------------------------------------------------------------
# Bit stores (plain Bloom filter)
# ---------------------------------------------------------------------------


class SetBitStore:
    """The original ``set``-of-positions bit-vector."""

    __slots__ = ("num_bits", "_bits")

    backend = "dict"

    def __init__(self, num_bits: int):
        self.num_bits = num_bits
        self._bits: set = set()

    def add(self, positions: Iterable[int]) -> None:
        self._bits.update(positions)

    def add_rows(self, rows: np.ndarray) -> None:
        self._bits.update(rows.reshape(-1).tolist())

    def contains(self, position: int) -> bool:
        return position in self._bits

    def test_all(self, positions: Sequence[int]) -> bool:
        bits = self._bits
        return all(p in bits for p in positions)

    def test_rows(self, rows: np.ndarray) -> np.ndarray:
        bits = self._bits
        return np.fromiter(
            (all(p in bits for p in row) for row in rows.tolist()),
            dtype=bool,
            count=len(rows),
        )

    def update_from(self, other: "BitStore") -> None:
        self._bits.update(other.positions())

    def positions(self) -> List[int]:
        return sorted(self._bits)

    def count(self) -> int:
        return len(self._bits)

    def is_empty(self) -> bool:
        return not self._bits

    def clear(self) -> None:
        self._bits.clear()

    def copy(self) -> "SetBitStore":
        clone = SetBitStore(self.num_bits)
        clone._bits = set(self._bits)
        return clone


class ArrayBitStore:
    """Dense boolean bit-vector with vectorized membership tests."""

    __slots__ = ("num_bits", "_mask")

    backend = "array"

    def __init__(self, num_bits: int):
        self.num_bits = num_bits
        self._mask = np.zeros(num_bits, dtype=bool)

    def add(self, positions: Sequence[int]) -> None:
        self._mask[np.asarray(positions, dtype=np.int64)] = True

    def add_rows(self, rows: np.ndarray) -> None:
        self._mask[rows.reshape(-1)] = True

    def contains(self, position: int) -> bool:
        return bool(self._mask[position])

    def test_all(self, positions: Sequence[int]) -> bool:
        return bool(self._mask[positions].all())

    def test_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._mask[rows].all(axis=1)

    def update_from(self, other: "BitStore") -> None:
        if isinstance(other, ArrayBitStore):
            self._mask |= other._mask
        else:
            positions = other.positions()
            if positions:
                self._mask[np.asarray(positions, dtype=np.int64)] = True

    def positions(self) -> List[int]:
        return [int(p) for p in np.flatnonzero(self._mask)]

    def count(self) -> int:
        return int(np.count_nonzero(self._mask))

    def is_empty(self) -> bool:
        return not self._mask.any()

    def clear(self) -> None:
        self._mask[:] = False

    def copy(self) -> "ArrayBitStore":
        clone = ArrayBitStore(self.num_bits)
        clone._mask = self._mask.copy()
        return clone


BitStore = Union[SetBitStore, ArrayBitStore]


def make_bit_store(backend: Union[str, None], num_bits: int) -> BitStore:
    """Build a bit store for *backend* (``None`` -> default)."""
    if resolve_backend(backend) == "array":
        return ArrayBitStore(num_bits)
    return SetBitStore(num_bits)
