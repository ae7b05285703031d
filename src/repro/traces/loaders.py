"""Streaming loaders for real contact-trace files.

Users who have registered for CRAWDAD access can run every experiment
on the paper's actual traces.  Two on-disk formats are supported:

* **CSV** — one contact per line, ``node_a,node_b,start,end`` (times in
  seconds; a header line is skipped automatically).  This is the common
  interchange format for the Haggle iMote sightings once flattened.
* **Reality-Mining proximity dumps** — whitespace-separated
  ``node_a node_b start end`` lines, ``#`` comments allowed.

Both produce :class:`~repro.traces.model.ContactTrace` objects that
plug straight into the simulator.

The loaders are *streaming*: rows are validated one at a time and
appended to compact ``array.array`` columns, so a million-contact file
costs ~32 bytes of resident memory per contact while loading and never
builds a Python :class:`Contact` per row.  The finished columns are
handed to :meth:`ContactTrace.from_arrays`, which sorts them once and
wraps them in the configured trace backend.

This module also defines the **trace dataset** on-disk format backing
the out-of-core ``mmap`` backend: a directory holding one ``.npy``
file per column (``start.npy``, ``duration.npy``, ``a.npy``,
``b.npy``) plus a ``meta.json`` with the contact count and node
population.  :class:`ChunkedTraceWriter` streams sorted contact chunks
into such a directory without ever holding the full trace in memory
(the ``.npy`` headers are back-patched with the final row count on
close), :func:`save_trace_dataset` spills an existing trace, and
:func:`open_trace_dataset` maps a dataset back as a
:class:`~repro.traces.model.ContactTrace` in O(1) memory.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import csv

import numpy as np

from .backends import (
    TRACE_COLUMN_DTYPES,
    TRACE_COLUMN_NAMES,
    ColumnarContactStore,
    resolve_trace_backend,
)
from .model import ContactTrace

__all__ = [
    "load_csv_trace",
    "load_whitespace_trace",
    "NodeRelabeller",
    "ChunkedTraceWriter",
    "save_trace_dataset",
    "open_trace_dataset",
    "TRACE_DATASET_META",
]


class NodeRelabeller:
    """Maps arbitrary node labels onto dense integer ids.

    Trace files label nodes with MAC addresses or arbitrary ids; the
    simulator wants dense ``0..n-1`` ints so per-node state can live in
    lists.
    """

    def __init__(self):
        self._mapping: Dict[str, int] = {}

    def __getitem__(self, label: str) -> int:
        label = label.strip()
        if label not in self._mapping:
            self._mapping[label] = len(self._mapping)
        return self._mapping[label]

    @property
    def mapping(self) -> Dict[str, int]:
        """label -> dense id (insertion order)."""
        return dict(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)


def _build_trace(
    rows: Iterable[List[str]],
    name: str,
    backend: Optional[str] = None,
) -> ContactTrace:
    """Stream rows into columnar storage, one validated row at a time."""
    relabel = NodeRelabeller()
    starts = array("d")
    durations = array("d")
    a_ids = array("q")
    b_ids = array("q")
    for lineno, row in enumerate(rows, start=1):
        if len(row) != 4:
            raise ValueError(
                f"line {lineno}: expected 4 fields (a, b, start, end), "
                f"got {len(row)}"
            )
        a_label, b_label, start_s, end_s = row
        start, end = float(start_s), float(end_s)
        if end <= start:
            # Zero/negative-length sightings occur in real logs; give
            # them a nominal 1-second duration rather than dropping the
            # meeting entirely.
            end = start + 1.0
        a, b = relabel[a_label], relabel[b_label]
        if a == b:
            raise ValueError(f"contact endpoints must differ, got {a} == {b}")
        if a > b:
            a, b = b, a
        starts.append(start)
        durations.append(end - start)
        a_ids.append(a)
        b_ids.append(b)
    # Rows already satisfy the Contact.make invariants (positive
    # duration, distinct canonical endpoints), so skip re-validation.
    return ContactTrace.from_arrays(
        starts, durations, a_ids, b_ids, name=name,
        backend=backend, validate=False,
    )


def _csv_rows(path: Path) -> Iterator[List[str]]:
    """Non-blank CSV rows with an optional header row dropped."""
    with path.open(newline="") as fh:
        first = True
        for row in csv.reader(fh):
            if not row:
                continue
            if first:
                first = False
                # A first line whose time fields do not parse as
                # numbers is a header.
                if len(row) == 4:
                    try:
                        float(row[2]), float(row[3])
                    except ValueError:
                        continue
            yield row


def load_csv_trace(
    path: Union[str, Path],
    name: str = "",
    backend: Optional[str] = None,
) -> ContactTrace:
    """Load a ``a,b,start,end`` CSV contact trace (streamed).

    A first line whose time fields do not parse as numbers is treated
    as a header and skipped.
    """
    path = Path(path)
    return _build_trace(_csv_rows(path), name or path.stem, backend)


def _whitespace_rows(path: Path) -> Iterator[List[str]]:
    with path.open() as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield stripped.split()


def load_whitespace_trace(
    path: Union[str, Path],
    name: str = "",
    backend: Optional[str] = None,
) -> ContactTrace:
    """Load a whitespace-separated ``a b start end`` contact trace
    (streamed).

    Lines starting with ``#`` and blank lines are ignored.
    """
    path = Path(path)
    return _build_trace(_whitespace_rows(path), name or path.stem, backend)


# ---------------------------------------------------------------------------
# Trace datasets: the on-disk format behind the mmap backend
# ---------------------------------------------------------------------------

#: Metadata filename inside a trace dataset directory.
TRACE_DATASET_META = "meta.json"

#: Fixed total ``.npy`` header size (magic + length word + padded
#: dict).  Reserving a constant size lets the writer stream data first
#: and back-patch the final row count without moving any bytes; 128 is
#: a multiple of the required 64-byte alignment and leaves ample room
#: for any 64-bit row count.
_NPY_HEADER_SIZE = 128


def _npy_header_bytes(dtype: np.dtype, count: int) -> bytes:
    """A version-1.0 ``.npy`` header padded to ``_NPY_HEADER_SIZE``."""
    header = (
        "{'descr': %r, 'fortran_order': False, 'shape': (%d,), }"
        % (np.lib.format.dtype_to_descr(dtype), count)
    ).encode("latin1")
    magic = np.lib.format.magic(1, 0)
    pad = _NPY_HEADER_SIZE - len(magic) - 2 - len(header) - 1
    if pad < 0:
        raise ValueError(f"npy header overflows {_NPY_HEADER_SIZE} bytes")
    body = header + b" " * pad + b"\n"
    return magic + len(body).to_bytes(2, "little") + body


class ChunkedTraceWriter:
    """Stream time-sorted contact chunks into a trace dataset directory.

    Chunks are appended column-wise straight to the four ``.npy``
    files, so peak memory is one chunk regardless of trace size.  Rows
    must arrive globally sorted by start time (checked); endpoint
    canonicalisation (``a < b``) and positive durations are validated
    per chunk unless ``validate=False`` declares the producer trusted.

    Use as a context manager; the final contact count is back-patched
    into the ``.npy`` headers and ``meta.json`` is written on
    :meth:`close`.  *nodes* fixes the population explicitly (an
    ``int`` means the dense population ``0..nodes-1``); when omitted it
    is derived from the contact endpoints at open time.
    """

    def __init__(
        self,
        path: Union[str, Path],
        nodes: Union[int, Iterable[int], None] = None,
        name: Optional[str] = None,
        validate: bool = True,
    ):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.name = name or self.path.name
        self.validate = validate
        if nodes is None or isinstance(nodes, int):
            self._nodes: Union[int, List[int], None] = nodes
        else:
            self._nodes = sorted(set(nodes))
        self.num_contacts = 0
        self.end_time = 0.0
        self._last_start = -np.inf
        self._files = {
            column: (self.path / f"{column}.npy").open("wb")
            for column in TRACE_COLUMN_NAMES
        }
        for column, fh in self._files.items():
            fh.write(_npy_header_bytes(TRACE_COLUMN_DTYPES[column], 0))
        self._closed = False

    def append(self, start, duration, a, b) -> None:
        """Append one chunk of rows (four parallel 1-D sequences)."""
        if self._closed:
            raise ValueError("writer is closed")
        start = np.ascontiguousarray(start, dtype=np.float64)
        duration = np.ascontiguousarray(duration, dtype=np.float64)
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        if not (len(start) == len(duration) == len(a) == len(b)):
            raise ValueError("trace columns must have equal lengths")
        if not len(start):
            return
        if self.validate:
            if not (duration > 0).all():
                bad = float(duration[np.argmin(duration)])
                raise ValueError(f"contact duration must be > 0, got {bad}")
            if (a == b).any():
                node = int(a[np.argmax(a == b)])
                raise ValueError(
                    f"contact endpoints must differ, got {node} == {node}"
                )
            swap = a > b
            if swap.any():
                a, b = np.where(swap, b, a), np.where(swap, a, b)
        first = float(start[0])
        if first < self._last_start or (
            len(start) > 1 and (np.diff(start) < 0).any()
        ):
            raise ValueError(
                "chunks must be appended in global start-time order"
            )
        for column, data in zip(
            TRACE_COLUMN_NAMES, (start, duration, a, b)
        ):
            self._files[column].write(data.tobytes())
        self.num_contacts += len(start)
        self._last_start = float(start[-1])
        self.end_time = max(self.end_time, float(np.max(start + duration)))

    def close(self) -> None:
        """Back-patch the headers and write ``meta.json``."""
        if self._closed:
            return
        self._closed = True
        for column, fh in self._files.items():
            fh.seek(0)
            fh.write(
                _npy_header_bytes(
                    TRACE_COLUMN_DTYPES[column], self.num_contacts
                )
            )
            fh.close()
        meta = {
            "format": "bsub-trace",
            "version": 1,
            "name": self.name,
            "num_contacts": self.num_contacts,
            "end_time": self.end_time,
        }
        if isinstance(self._nodes, int):
            meta["num_nodes"] = self._nodes
        elif self._nodes is not None:
            meta["nodes"] = self._nodes
        with (self.path / TRACE_DATASET_META).open("w") as fh:
            json.dump(meta, fh)
            fh.write("\n")

    def __enter__(self) -> "ChunkedTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # leave no half-written dataset behind on error
            self._closed = True
            for fh in self._files.values():
                fh.close()

    def __del__(self):
        if not getattr(self, "_closed", True):
            self.close()


def save_trace_dataset(
    trace: ContactTrace,
    path: Union[str, Path],
    chunk_size: int = 1 << 20,
) -> Path:
    """Spill *trace* to a dataset directory, one chunk at a time."""
    path = Path(path)
    with ChunkedTraceWriter(
        path, nodes=trace.nodes, name=trace.name, validate=False
    ) as writer:
        store = trace.store
        start, duration, a, b = store.columns()
        for lo in range(0, len(store), chunk_size):
            hi = lo + chunk_size
            writer.append(
                start[lo:hi], duration[lo:hi], a[lo:hi], b[lo:hi]
            )
    return path


def _read_dataset_meta(path: Path) -> Dict:
    meta_path = path / TRACE_DATASET_META
    if not meta_path.is_file():
        return {}
    with meta_path.open() as fh:
        meta = json.load(fh)
    if meta.get("format") != "bsub-trace":
        raise ValueError(f"{meta_path}: not a bsub trace dataset")
    return meta


def open_trace_dataset(
    path: Union[str, Path],
    backend: Optional[str] = "mmap",
    name: Optional[str] = None,
) -> ContactTrace:
    """Open a trace dataset directory as a :class:`ContactTrace`.

    With the default ``mmap`` backend this is O(1) in memory and time:
    the columns are memory-mapped, not read.  ``backend="columnar"``
    or ``"object"`` materialises the columns in RAM instead.
    """
    path = Path(path)
    meta = _read_dataset_meta(path)
    store = ColumnarContactStore.open(path)
    backend = resolve_trace_backend(backend)
    if backend == "columnar":
        store = store.materialised()
    elif backend == "object":
        from .backends import ObjectContactStore

        store = ObjectContactStore.from_arrays(*store.columns())
    if "num_nodes" in meta:
        nodes = tuple(range(int(meta["num_nodes"])))
    elif "nodes" in meta:
        nodes = tuple(int(n) for n in meta["nodes"])
    else:
        nodes = tuple(sorted(store.node_ids()))
    return ContactTrace._wrap(
        store, nodes, name or meta.get("name") or path.name
    )
