"""Storage backends for :class:`~repro.traces.model.ContactTrace`.

The trace model describes *what* a contact sequence is; this module
provides the *storage* behind it through a seam that mirrors
:mod:`repro.core.backends`:

* ``object`` — the original representation: a time-sorted Python list
  of frozen :class:`~repro.traces.model.Contact` dataclasses.  Cheap
  for small traces and maximally debuggable, but costs a few hundred
  bytes and a couple of microseconds *per contact*.
* ``columnar`` — a struct-of-arrays layout: four parallel numpy
  vectors (``start``, ``duration``, ``a``, ``b``).  Storage is 32
  bytes per contact, time slicing is a zero-copy ``searchsorted``
  view, and bulk consumers (the simulator's vectorised accounting
  path, trace statistics) operate on the columns directly.
  :class:`Contact` objects are materialised lazily, one at a time,
  only when somebody actually indexes or iterates the trace.
* ``mmap`` — the same columnar store, but with its columns
  memory-mapped from ``.npy`` sidecar files (one per column) instead
  of resident arrays.  The operating system pages contact data in on
  demand and may drop clean pages under pressure, so a trace far
  larger than RAM replays in bounded memory.  Time slices stay
  zero-copy (they are views into the same mapping).

All backends are **observationally identical**: they hold the same
contacts in the same order with the same IEEE-754 start/duration
values, so slices, statistics, and full simulation runs agree exactly
(a Hypothesis property test pins this down).  Select the default
backend process-wide with the ``BSUB_TRACE_BACKEND`` environment
variable or per trace with the ``backend=`` constructor argument.

A trace *constructed in memory* under the ``mmap`` backend is spilled
to a scratch dataset first (under ``BSUB_TRACE_MMAP_DIR`` when set,
else a temporary directory that is removed when the store is garbage
collected).  Traces that are already on disk open without any copy via
:func:`repro.traces.loaders.open_trace_dataset`.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

__all__ = [
    "TRACE_BACKENDS",
    "TRACE_BACKEND_ENV_VAR",
    "TRACE_MMAP_DIR_ENV_VAR",
    "TRACE_COLUMN_NAMES",
    "default_trace_backend",
    "resolve_trace_backend",
    "make_contact_store",
    "store_from_arrays",
    "ObjectContactStore",
    "ColumnarContactStore",
    "spill_columns_to_mmap",
]

#: Environment variable overriding the process-wide default backend.
TRACE_BACKEND_ENV_VAR = "BSUB_TRACE_BACKEND"

#: Environment variable pointing mmap spills at a persistent directory
#: (default: a per-store temporary directory, removed on collection).
TRACE_MMAP_DIR_ENV_VAR = "BSUB_TRACE_MMAP_DIR"

#: The recognised trace-backend names.
TRACE_BACKENDS = ("object", "columnar", "mmap")

#: The four dataset columns, in canonical order.
TRACE_COLUMN_NAMES = ("start", "duration", "a", "b")

#: numpy dtypes per column (little-endian, fixed for the disk format).
TRACE_COLUMN_DTYPES = {
    "start": np.dtype("<f8"),
    "duration": np.dtype("<f8"),
    "a": np.dtype("<i8"),
    "b": np.dtype("<i8"),
}

#: Rows per block for chunked bulk scans (end_time, node_ids, __iter__)
#: so whole-column temporaries never materialise for mmap traces.
SCAN_CHUNK_ROWS = 1 << 20


def default_trace_backend() -> str:
    """The process-wide default backend (``columnar`` unless overridden)."""
    backend = os.environ.get(TRACE_BACKEND_ENV_VAR, "columnar")
    if backend not in TRACE_BACKENDS:
        raise ValueError(
            f"{TRACE_BACKEND_ENV_VAR}={backend!r} is not a valid trace "
            f"backend; expected one of {TRACE_BACKENDS}"
        )
    return backend


def resolve_trace_backend(backend: Union[str, None]) -> str:
    """Normalise a ``backend=`` argument (``None`` -> the default)."""
    if backend is None:
        return default_trace_backend()
    if backend not in TRACE_BACKENDS:
        raise ValueError(
            f"unknown trace backend {backend!r}; "
            f"expected one of {TRACE_BACKENDS}"
        )
    return backend


def _as_columns(
    start, duration, a, b
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coerce the four column inputs to the canonical dtypes."""
    return (
        np.ascontiguousarray(start, dtype=np.float64),
        np.ascontiguousarray(duration, dtype=np.float64),
        np.ascontiguousarray(a, dtype=np.int64),
        np.ascontiguousarray(b, dtype=np.int64),
    )


class ObjectContactStore:
    """The original list-of-:class:`Contact` storage.

    The list must already be sorted by start time (stable); the store
    never re-sorts.

    Stores are immutable once built, so the per-node contact index and
    the ``end_time``/``node_ids`` aggregates are computed lazily on
    first use and cached forever — no invalidation is ever needed.
    """

    __slots__ = ("_contacts", "_columns", "_by_node", "_end_time", "_node_ids")

    backend = "object"

    def __init__(self, contacts: List):
        self._contacts = contacts
        self._columns = None
        self._by_node: Optional[Dict[int, List[int]]] = None
        self._end_time: Optional[float] = None
        self._node_ids: Optional[Set[int]] = None

    @classmethod
    def from_arrays(cls, start, duration, a, b) -> "ObjectContactStore":
        """Materialise one :class:`Contact` per row (rows pre-sorted)."""
        from .model import Contact  # circular at import time only

        return cls(
            [
                Contact(s, d, na, nb)
                for s, d, na, nb in zip(
                    start.tolist(), duration.tolist(), a.tolist(), b.tolist()
                )
            ]
        )

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._contacts)

    def __getitem__(self, index):
        return self._contacts[index]

    def __iter__(self) -> Iterator:
        return iter(self._contacts)

    # -- bulk views ---------------------------------------------------------

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(start, duration, a, b) numpy columns (built once, cached)."""
        if self._columns is None:
            contacts = self._contacts
            n = len(contacts)
            self._columns = (
                np.fromiter((c.start for c in contacts), np.float64, count=n),
                np.fromiter((c.duration for c in contacts), np.float64, count=n),
                np.fromiter((c.a for c in contacts), np.int64, count=n),
                np.fromiter((c.b for c in contacts), np.int64, count=n),
            )
        return self._columns

    def start_times(self) -> List[float]:
        return [c.start for c in self._contacts]

    def end_time(self) -> float:
        if self._end_time is None:
            self._end_time = max(
                (c.end for c in self._contacts), default=0.0
            )
        return self._end_time

    def node_ids(self) -> Set[int]:
        if self._node_ids is None:
            seen: Set[int] = set()
            for c in self._contacts:
                seen.add(c.a)
                seen.add(c.b)
            self._node_ids = seen
        return set(self._node_ids)

    # -- transforms -----------------------------------------------------------

    def time_slice(self, start: float, end: float) -> "ObjectContactStore":
        """Contacts *starting* within [start, end)."""
        return ObjectContactStore(
            [c for c in self._contacts if start <= c.start < end]
        )

    def upto(self, horizon: float) -> "ObjectContactStore":
        return ObjectContactStore(
            [c for c in self._contacts if c.start < horizon]
        )

    def shifted(self, offset: float) -> "ObjectContactStore":
        from .model import Contact

        return ObjectContactStore(
            [
                Contact(c.start + offset, c.duration, c.a, c.b)
                for c in self._contacts
            ]
        )

    # -- per-node views -------------------------------------------------------

    def _node_index(self) -> Dict[int, List[int]]:
        """node -> time-ordered row indices, built once on first use."""
        if self._by_node is None:
            by_node: Dict[int, List[int]] = {}
            for i, c in enumerate(self._contacts):
                by_node.setdefault(c.a, []).append(i)
                by_node.setdefault(c.b, []).append(i)
            self._by_node = by_node
        return self._by_node

    def contacts_of(self, node: int) -> List:
        contacts = self._contacts
        return [contacts[i] for i in self._node_index().get(node, ())]

    def neighbour_ids(self, node: int) -> Set[int]:
        contacts = self._contacts
        return {
            contacts[i].peer_of(node)
            for i in self._node_index().get(node, ())
        }

    def pair_counts(self) -> Dict[Tuple[int, int], int]:
        counts: Dict[Tuple[int, int], int] = {}
        for c in self._contacts:
            counts[c.pair] = counts.get(c.pair, 0) + 1
        return counts


class ColumnarContactStore:
    """Struct-of-arrays contact storage, sorted by start time.

    Rows are identified by position; a :class:`Contact` is only built
    when a row is individually addressed.  All four columns may be
    views into a parent store's arrays (time slices are zero-copy).

    Columns given as ``np.memmap`` (as :meth:`open` does) make a
    mapped store, ``backend == "mmap"``: the resident set is whatever
    the OS keeps paged in, not the trace size, and zero-copy views stay
    mapped.
    """

    __slots__ = ("start", "duration", "a", "b", "backend", "__weakref__")

    def __init__(
        self,
        start: np.ndarray,
        duration: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
    ):
        self.backend = "mmap" if isinstance(start, np.memmap) else "columnar"
        self.start, self.duration, self.a, self.b = _as_columns(
            start, duration, a, b
        )
        if not (
            len(self.start) == len(self.duration) == len(self.a) == len(self.b)
        ):
            raise ValueError("trace columns must have equal lengths")

    @classmethod
    def open(cls, path: Union[str, Path]) -> "ColumnarContactStore":
        """Memory-map the column files under *path*.

        The mapping is read-only; opening costs four small reads (the
        ``.npy`` headers), never the trace size.
        """
        path = Path(path)
        columns = []
        for name in TRACE_COLUMN_NAMES:
            column_path = path / f"{name}.npy"
            if not column_path.is_file():
                raise FileNotFoundError(
                    f"{path} is not a trace dataset: missing {name}.npy"
                )
            column = np.load(column_path, mmap_mode="r")
            expected = TRACE_COLUMN_DTYPES[name]
            if column.dtype != expected or column.ndim != 1:
                raise ValueError(
                    f"{column_path}: expected 1-D {expected}, "
                    f"got {column.dtype} with shape {column.shape}"
                )
            columns.append(column)
        return cls(*columns)

    @classmethod
    def from_contacts(cls, contacts: List) -> "ColumnarContactStore":
        """Pack a pre-sorted :class:`Contact` list into columns."""
        n = len(contacts)
        return cls(
            np.fromiter((c.start for c in contacts), np.float64, count=n),
            np.fromiter((c.duration for c in contacts), np.float64, count=n),
            np.fromiter((c.a for c in contacts), np.int64, count=n),
            np.fromiter((c.b for c in contacts), np.int64, count=n),
        )

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def _materialise(self, i: int):
        from .model import Contact

        return Contact(
            float(self.start[i]),
            float(self.duration[i]),
            int(self.a[i]),
            int(self.b[i]),
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._materialise(i) for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"contact index {index} out of range")
        return self._materialise(index)

    def __iter__(self) -> Iterator:
        from .model import Contact

        # Chunked so iterating an out-of-core trace never materialises
        # whole-column Python lists.
        for lo in range(0, len(self.start), SCAN_CHUNK_ROWS):
            hi = lo + SCAN_CHUNK_ROWS
            for row in zip(
                self.start[lo:hi].tolist(),
                self.duration[lo:hi].tolist(),
                self.a[lo:hi].tolist(),
                self.b[lo:hi].tolist(),
            ):
                yield Contact(*row)

    # -- bulk views ---------------------------------------------------------

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The (start, duration, a, b) columns themselves (no copy)."""
        return (self.start, self.duration, self.a, self.b)

    def start_times(self) -> List[float]:
        return self.start.tolist()

    def end_time(self) -> float:
        n = len(self.start)
        if not n:
            return 0.0
        # Chunked max so no whole-column (start + duration) temporary
        # is built; float max is associative, so the result is
        # bit-identical to the single-pass expression.
        best = -np.inf
        for lo in range(0, n, SCAN_CHUNK_ROWS):
            hi = lo + SCAN_CHUNK_ROWS
            best = max(
                best, float(np.max(self.start[lo:hi] + self.duration[lo:hi]))
            )
        return best

    def node_ids(self) -> Set[int]:
        if not len(self.a):
            return set()
        seen: Set[int] = set()
        for lo in range(0, len(self.a), SCAN_CHUNK_ROWS):
            hi = lo + SCAN_CHUNK_ROWS
            seen.update(np.unique(self.a[lo:hi]).tolist())
            seen.update(np.unique(self.b[lo:hi]).tolist())
        return seen

    # -- transforms -----------------------------------------------------------

    def _view(self, lo: int, hi: int) -> "ColumnarContactStore":
        """Zero-copy row-range view; a mapped store's views stay mapped."""
        clone = object.__new__(ColumnarContactStore)
        clone.start = self.start[lo:hi]
        clone.duration = self.duration[lo:hi]
        clone.a = self.a[lo:hi]
        clone.b = self.b[lo:hi]
        clone.backend = self.backend
        return clone

    def time_slice(self, start: float, end: float) -> "ColumnarContactStore":
        """Zero-copy view of the contacts *starting* within [start, end)."""
        lo = int(np.searchsorted(self.start, start, side="left"))
        hi = int(np.searchsorted(self.start, end, side="left"))
        return self._view(lo, hi)

    def upto(self, horizon: float) -> "ColumnarContactStore":
        hi = int(np.searchsorted(self.start, horizon, side="left"))
        return self._view(0, hi)

    def shifted(self, offset: float) -> "ColumnarContactStore":
        # Shifting materialises a new start column, so a mapped store
        # shifts into an honest in-memory one.
        return ColumnarContactStore(
            self.start + offset, self.duration, self.a, self.b
        )

    def materialised(self) -> "ColumnarContactStore":
        """An in-memory copy of the columns (detaches from any mmap)."""
        return ColumnarContactStore(
            np.array(self.start), np.array(self.duration),
            np.array(self.a), np.array(self.b),
        )

    # -- per-node views -------------------------------------------------------

    def contacts_of(self, node: int) -> List:
        mask = (self.a == node) | (self.b == node)
        indices = np.flatnonzero(mask)
        return [self._materialise(int(i)) for i in indices]

    def neighbour_ids(self, node: int) -> Set[int]:
        peers = np.concatenate(
            (self.b[self.a == node], self.a[self.b == node])
        )
        return set(np.unique(peers).tolist())

    def pair_counts(self) -> Dict[Tuple[int, int], int]:
        if not len(self.a):
            return {}
        pairs = np.stack((self.a, self.b), axis=1)
        unique, counts = np.unique(pairs, axis=0, return_counts=True)
        return {
            (int(pa), int(pb)): int(count)
            for (pa, pb), count in zip(unique.tolist(), counts.tolist())
        }


#: Spill directories created for anonymous in-memory -> mmap
#: conversions; removed at interpreter exit as a backstop (the
#: per-store weakref finalizer usually gets there first).
_SPILL_DIRS: Set[str] = set()


def _cleanup_spill_dirs() -> None:
    while _SPILL_DIRS:
        shutil.rmtree(_SPILL_DIRS.pop(), ignore_errors=True)


atexit.register(_cleanup_spill_dirs)


def _release_spill_dir(path: str) -> None:
    _SPILL_DIRS.discard(path)
    shutil.rmtree(path, ignore_errors=True)


def spill_columns_to_mmap(
    start: np.ndarray,
    duration: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> ColumnarContactStore:
    """Write in-memory columns to a scratch dataset and mmap them back.

    The scratch directory lives under ``BSUB_TRACE_MMAP_DIR`` when that
    is set (and is then left on disk for reuse/inspection), else under
    the system temp dir with removal tied to the returned store's
    lifetime.  Mapped pages of an unlinked file stay readable on POSIX,
    so views that outlive the store keep working.
    """
    root = os.environ.get(TRACE_MMAP_DIR_ENV_VAR) or None
    if root:
        Path(root).mkdir(parents=True, exist_ok=True)
    spill_dir = tempfile.mkdtemp(prefix="bsub-trace-", dir=root)
    persistent = root is not None
    for name, column in zip(
        TRACE_COLUMN_NAMES, (start, duration, a, b)
    ):
        mapped = np.lib.format.open_memmap(
            Path(spill_dir) / f"{name}.npy",
            mode="w+",
            dtype=TRACE_COLUMN_DTYPES[name],
            shape=(len(column),),
        )
        mapped[:] = column
        mapped.flush()
        del mapped
    store = ColumnarContactStore.open(spill_dir)
    if not persistent:
        _SPILL_DIRS.add(spill_dir)
        weakref.finalize(store, _release_spill_dir, spill_dir)
    return store


ContactStore = Union[ObjectContactStore, ColumnarContactStore]


def make_contact_store(
    backend: Union[str, None], sorted_contacts: List
) -> ContactStore:
    """Build a store from an already-sorted :class:`Contact` list."""
    backend = resolve_trace_backend(backend)
    if backend == "object":
        return ObjectContactStore(sorted_contacts)
    store = ColumnarContactStore.from_contacts(sorted_contacts)
    if backend == "mmap":
        return spill_columns_to_mmap(
            store.start, store.duration, store.a, store.b
        )
    return store


def store_from_arrays(
    backend: Union[str, None],
    start: Sequence[float],
    duration: Sequence[float],
    a: Sequence[int],
    b: Sequence[int],
    validate: bool = True,
    assume_sorted: bool = False,
) -> ContactStore:
    """Build a store directly from columns, never touching Contact objects
    on the columnar path.

    ``validate`` applies the :meth:`Contact.make` rules vectorised:
    positive durations, distinct endpoints, canonical (min, max) node
    order.  ``assume_sorted`` skips the stable sort by start time.
    """
    start, duration, a, b = _as_columns(start, duration, a, b)
    if not (len(start) == len(duration) == len(a) == len(b)):
        raise ValueError("trace columns must have equal lengths")
    if validate and len(start):
        if not (duration > 0).all():
            bad = float(duration[np.argmin(duration)])
            raise ValueError(f"contact duration must be > 0, got {bad}")
        equal = a == b
        if equal.any():
            node = int(a[np.argmax(equal)])
            raise ValueError(
                f"contact endpoints must differ, got {node} == {node}"
            )
        swap = a > b
        if swap.any():
            a, b = np.where(swap, b, a), np.where(swap, a, b)
    if not assume_sorted and len(start):
        order = np.argsort(start, kind="stable")
        start = start[order]
        duration = duration[order]
        a = a[order]
        b = b[order]
    backend = resolve_trace_backend(backend)
    if backend == "object":
        return ObjectContactStore.from_arrays(start, duration, a, b)
    if backend == "mmap":
        return spill_columns_to_mmap(start, duration, a, b)
    return ColumnarContactStore(start, duration, a, b)
