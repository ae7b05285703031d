"""Hash-function families for Bloom filters.

The paper (Sec. III) assumes ``k`` independent hash functions, each
mapping a key uniformly into ``[0, m - 1]``.  We implement the standard
Kirsch--Mitzenmacher double-hashing construction: two base hashes
``h1, h2`` derived from a single keyed blake2b digest, combined as
``h1 + i * h2 (mod m)`` for the *i*-th function.  This preserves the
asymptotic false-positive behaviour of ``k`` independent functions while
hashing each key only once, which matters because B-SUB hashes keys on
every contact event.

All functions are deterministic for a given ``seed`` so that two nodes
in a simulated network (or two devices in a deployment) agree on bit
locations without any coordination beyond the shared seed.

Batched hashing (:meth:`HashFamily.positions_batch`) maps many keys at
once into a single ``(n_keys, k)`` position matrix: the per-key blake2b
digests are unavoidable, but the double-hashing combination is one
vectorized broadcast, and the matrix feeds the filters' batch query and
merge paths directly.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["HashFamily", "DEFAULT_SEED"]

DEFAULT_SEED = 0x5B5B  # arbitrary but fixed: "B-SUB" nodes must agree on it


class HashFamily:
    """A family of ``k`` hash functions onto ``[0, num_bits - 1]``.

    Parameters
    ----------
    num_hashes:
        Number of hash functions ``k`` (the paper uses 4).
    num_bits:
        Size of the target bit-vector ``m`` (the paper uses 256).
    seed:
        Integer seed shared by all parties; different seeds give
        independent families.
    """

    __slots__ = ("num_hashes", "num_bits", "seed", "_salt", "_cache", "_rows")

    #: Upper bound on the per-family memoisation cache.  Pub-sub
    #: workloads reuse a small universe of keys on every contact event,
    #: so caching turns the dominant hashing cost into a dict lookup.
    #: The cache is LRU: once full, the least-recently-used key is
    #: evicted so long-running workloads with churning key universes
    #: keep their hit rate instead of silently freezing the cache.
    _CACHE_LIMIT = 65_536

    #: Initial row capacity of the position matrix (doubles on demand).
    _INITIAL_ROWS = 256

    def __init__(self, num_hashes: int, num_bits: int, seed: int = DEFAULT_SEED):
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        if num_bits < 2:
            raise ValueError(f"num_bits must be >= 2, got {num_bits}")
        self.num_hashes = num_hashes
        self.num_bits = num_bits
        self.seed = seed
        self._salt = seed.to_bytes(8, "little", signed=False)
        # Cached positions live as rows of one shared int64 matrix;
        # ``_cache`` maps key -> row index, and its insertion order
        # doubles as recency order (hits re-append).  Rows are
        # allocated densely, so an evicted key's row is handed
        # straight to its replacement.
        self._cache: dict = {}
        self._rows = np.empty((self._INITIAL_ROWS, num_hashes), dtype=np.int64)

    def _base_hashes(self, key: str) -> Tuple[int, int]:
        """Return the two 64-bit base hashes for *key*."""
        digest = hashlib.blake2b(
            key.encode("utf-8"), digest_size=16, salt=self._salt
        ).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little")
        # h2 must be odd so that, for power-of-two m, the probe sequence
        # cycles through distinct offsets.
        return h1, h2 | 1

    def _cache_get(self, key: str):
        """Row index for *key*, refreshing its recency; None on a miss."""
        cache = self._cache
        row = cache.pop(key, None)
        if row is not None:
            cache[key] = row
        return row

    def _cache_put(self, key: str, positions) -> int:
        """Store *positions* for *key*, evicting the LRU entry if full."""
        cache = self._cache
        row = cache.get(key)
        if row is None:
            if len(cache) >= self._CACHE_LIMIT:
                # Evict the least recently used key and take its row.
                row = cache.pop(next(iter(cache)))
            else:
                row = len(cache)
                if row >= len(self._rows):
                    grown = np.empty(
                        (2 * len(self._rows), self.num_hashes), dtype=np.int64
                    )
                    grown[: len(self._rows)] = self._rows
                    self._rows = grown
        self._rows[row] = positions
        cache[key] = row
        return row

    def positions(self, key: str) -> List[int]:
        """Bit positions that *key* hashes to (length ``num_hashes``).

        Positions may repeat for small ``m`` — exactly as with truly
        independent functions; the paper explicitly "omit[s] the
        probability that multiple hash functions return the same
        location" in its analysis, and the filter implementations
        handle repeats correctly regardless.
        """
        row = self._cache_get(key)
        if row is not None:
            return self._rows[row].tolist()
        h1, h2 = self._base_hashes(key)
        m = self.num_bits
        result = [(h1 + i * h2) % m for i in range(self.num_hashes)]
        self._cache_put(key, result)
        return result

    def positions_batch(self, keys: Sequence[str]) -> np.ndarray:
        """Positions for many keys as one ``(len(keys), k)`` int64 matrix.

        Row *i* equals ``positions(keys[i])`` exactly.  When every key
        is cached, their rows are gathered from the memoisation matrix
        with one fancy index built from plain dict lookups (without
        refreshing their LRU recency — a deliberate trade so the hot
        all-cached path stays a single gather).  Otherwise cached keys
        are gathered, uncached keys are hashed once each, then combined
        in a single vectorized double-hashing broadcast.  All keys end
        up cached.  The result is always a fresh matrix.
        """
        cache = self._cache
        try:
            return self._rows[[cache[key] for key in keys]]
        except KeyError:
            pass
        k = self.num_hashes
        n = len(keys)
        cache_get = cache.get
        index = np.fromiter(
            (cache_get(key, -1) for key in keys), dtype=np.int64, count=n
        )
        miss_mask = index < 0
        out = np.empty((n, k), dtype=np.int64)
        hit_mask = ~miss_mask
        out[hit_mask] = self._rows[index[hit_mask]]
        misses = np.nonzero(miss_mask)[0]
        m = self.num_bits
        r1 = np.empty(len(misses), dtype=np.int64)
        r2 = np.empty(len(misses), dtype=np.int64)
        for j, i in enumerate(misses):
            h1, h2 = self._base_hashes(keys[i])
            # Reduce mod m while still in arbitrary-precision ints:
            # (h1 + i*h2) % m == ((h1 % m) + i*(h2 % m)) % m, and the
            # reduced form cannot overflow int64 for any real m.
            r1[j] = h1 % m
            r2[j] = h2 % m
        probes = (
            r1[:, None] + np.arange(k, dtype=np.int64)[None, :] * r2[:, None]
        ) % m
        out[misses] = probes
        for j, i in enumerate(misses):
            self._cache_put(keys[i], probes[j])
        return out

    def distinct_positions(self, key: str) -> List[int]:
        """Sorted, de-duplicated bit positions for *key*."""
        return sorted(set(self.positions(key)))

    def positions_for(self, keys: Iterable[str]) -> List[List[int]]:
        """Positions for each key in *keys*, in order."""
        return [self.positions(key) for key in keys]

    def compatible_with(self, other: "HashFamily") -> bool:
        """True if two families produce identical positions for any key."""
        return (
            self.num_hashes == other.num_hashes
            and self.num_bits == other.num_bits
            and self.seed == other.seed
        )

    def spawn(self, num_bits: int) -> "HashFamily":
        """A family with the same ``k`` and seed but a different ``m``.

        Used by the dynamic TCBF allocation (Sec. VI-D) when re-sizing
        filters.
        """
        return HashFamily(self.num_hashes, num_bits, self.seed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return self.compatible_with(other)

    def __hash__(self) -> int:
        return hash((self.num_hashes, self.num_bits, self.seed))

    def __repr__(self) -> str:
        return (
            f"HashFamily(num_hashes={self.num_hashes}, "
            f"num_bits={self.num_bits}, seed={self.seed:#x})"
        )


def positions_cover(positions: Sequence[int], bit_getter) -> bool:
    """True if every position in *positions* satisfies *bit_getter*.

    Helper shared by the filter implementations: ``bit_getter`` is a
    callable ``int -> bool`` reporting whether a bit is set.
    """
    return all(bit_getter(p) for p in positions)
