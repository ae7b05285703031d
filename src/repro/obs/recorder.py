"""Event recorders: the no-op default and the in-memory tracer.

The instrumented hot paths all follow the same pattern::

    if recorder.enabled:
        recorder.emit("forward", t=now, msg=..., src=..., dst=...)

With the :data:`NULL_RECORDER` (the default everywhere) the guard is a
single attribute load on a shared singleton, so the instrumentation
costs nothing when observability is off — in particular, no event
field is even computed.  A :class:`TraceRecorder` collects
:class:`~repro.obs.events.TraceEvent` records in memory, can stream
them to JSONL, and exposes a SHA-256 digest of the canonical encoding
for golden-trace pinning.

Trace files start with one meta header line carrying the schema
version (:data:`~repro.obs.events.TRACE_SCHEMA_VERSION`); the readers
(:func:`read_trace_iter` / :func:`read_trace`) skip it and accept
headerless version-1 files unchanged.  Digests always cover the events
only, never the header, so a digest is a function of protocol
behaviour alone.

:meth:`TraceRecorder.subscribe` feeds the live-observability layer
(:mod:`repro.obs.live`): it registers an in-process listener invoked
with every event at emit time (no file round-trip).  Tailing a trace
file that is still being written is
:func:`repro.obs.live.follow_merged_traces`.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from .events import (
    EVENT_TYPES,
    TRACE_META_TYPE,
    TraceEvent,
    trace_meta_line,
)

__all__ = [
    "NullRecorder",
    "NULL_RECORDER",
    "TraceRecorder",
    "trace_digest",
    "file_trace_digest",
    "merge_traces",
    "read_trace",
    "read_trace_iter",
    "read_trace_meta",
]


class NullRecorder:
    """The do-nothing recorder (observability disabled).

    ``enabled`` is a class attribute so call sites can guard on it
    without any per-call overhead beyond one attribute load.
    """

    enabled = False

    def emit(self, type: str, t: float, **fields) -> None:  # pragma: no cover
        """Discard the event (never called behind an ``enabled`` guard)."""


#: Shared process-wide null recorder — the default for every component.
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Collects structured protocol events in memory.

    Parameters
    ----------
    sink:
        Optional writable text file object; when set, the meta header
        line is written immediately and each event is additionally
        written as one JSONL line at emit time (streaming mode for runs
        too large to buffer).

    Listeners registered via :meth:`subscribe` are called synchronously
    with every :class:`TraceEvent` at emit time — the in-process event
    bus that lets a live consumer (:class:`repro.obs.live.LiveTailer`)
    observe a run with zero file round-trip.  With no listeners the
    cost is a single truthiness check per emit.
    """

    enabled = True

    def __init__(self, sink=None):
        self.events: List[TraceEvent] = []
        self._seq = 0
        self._sink = sink
        self._listeners: List[Callable[[TraceEvent], None]] = []
        if sink is not None:
            sink.write(trace_meta_line() + "\n")

    def subscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        """Register *listener* to receive every future event at emit time.

        Listeners run synchronously on the emitting thread, in
        registration order; a slow listener slows the hot path, so
        live consumers should do O(1) work per event.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        """Remove a previously registered listener (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def emit(self, type: str, t: float, **fields) -> None:
        """Record one event, assigning the next sequence number."""
        event = TraceEvent(seq=self._seq, t=float(t), type=type, fields=fields)
        self._seq += 1
        self.events.append(event)
        if self._sink is not None:
            self._sink.write(event.to_json() + "\n")
        if self._listeners:
            for listener in list(self._listeners):
                listener(event)

    def __len__(self) -> int:
        return len(self.events)

    def events_of(self, type: str) -> List[TraceEvent]:
        """All recorded events of one type, in emit order."""
        if type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {type!r}; expected one of {EVENT_TYPES}"
            )
        return [e for e in self.events if e.type == type]

    def counts(self) -> Dict[str, int]:
        """type -> number of events (every type present, zeros included)."""
        counts = {t: 0 for t in EVENT_TYPES}
        for event in self.events:
            counts[event.type] += 1
        return counts

    def to_jsonl(self) -> str:
        """The events as canonical JSONL (one per line, no meta header)."""
        return "".join(event.to_json() + "\n" for event in self.events)

    def write_jsonl(self, path: str) -> int:
        """Write the trace (meta header + events) to *path*.

        Returns the number of events (the header is not an event).
        """
        with open(path, "w") as fh:
            fh.write(trace_meta_line() + "\n")
            fh.write(self.to_jsonl())
        return len(self.events)

    def digest(self) -> str:
        """SHA-256 hex digest of the canonical JSONL encoding."""
        return trace_digest(self.events)


def trace_digest(events: Iterable[TraceEvent]) -> str:
    """SHA-256 hex digest over the canonical JSONL lines of *events*.

    Two runs with identical protocol behaviour produce identical
    digests; any behavioural drift — an extra merge, a reordered
    forward, a changed counter — changes it.
    """
    hasher = hashlib.sha256()
    for event in events:
        hasher.update(event.to_json().encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def file_trace_digest(path: str) -> str:
    """Streaming :func:`trace_digest` of a JSONL trace file.

    Events are re-encoded canonically line by line (never materialised
    as a list), so the digest of a written trace equals the digest of
    the recorder that produced it, meta header and schema version
    notwithstanding.
    """
    return trace_digest(read_trace_iter(path))


def merge_traces(shard_paths: Sequence[str], out_path: str) -> int:
    """Deterministically merge per-worker trace shards into one trace.

    The fleet broker (:mod:`repro.serve.supervisor`) gives every worker
    its own trace shard; this stitches them back into a single
    schema-v2 trace the analyzer consumes as if one process had
    emitted it:

    * Events are merged in ``(t, seq, worker)`` order — all workers
      share one monotonic clock origin, so ``t`` is a fleet-wide
      timeline, per-shard ``seq`` breaks ties within a worker, and the
      worker index (the shard's position in *shard_paths*) breaks
      cross-worker ties.  The same shards always merge to the same
      bytes.
    * Each shard ends with its own ``sim_end``; those are dropped and
      replaced by one synthesized trailing ``sim_end`` whose
      ``contacts``/``messages`` are the per-shard sums and whose ``t``
      is the latest shard end — so the merged trace has exactly one
      end-of-run anchor, at the end, like a single-process trace.
    * Sequence numbers are reassigned contiguously from 0.

    Memory is O(shards): one pending event per shard via
    :func:`heapq.merge` over the streaming readers.  Returns the
    number of events written (excluding the meta header).
    """

    def _keyed(worker: int, path: str):
        for event in read_trace_iter(path):
            yield (event.t, event.seq, worker), event

    streams = [_keyed(w, p) for w, p in enumerate(shard_paths)]
    end_contacts = 0
    end_messages = 0
    end_time: Optional[float] = None
    seq = 0
    with open(out_path, "w") as fh:
        fh.write(trace_meta_line() + "\n")
        for _key, event in heapq.merge(*streams, key=lambda kv: kv[0]):
            if event.type == "sim_end":
                end_contacts += int(event.fields.get("contacts", 0))
                end_messages += int(event.fields.get("messages", 0))
                end_time = (
                    event.t if end_time is None else max(end_time, event.t)
                )
                continue
            fh.write(
                TraceEvent(
                    seq=seq, t=event.t, type=event.type, fields=event.fields
                ).to_json() + "\n"
            )
            seq += 1
        if end_time is not None:
            fh.write(
                TraceEvent(
                    seq=seq, t=end_time, type="sim_end",
                    fields={
                        "contacts": end_contacts, "messages": end_messages
                    },
                ).to_json() + "\n"
            )
            seq += 1
    return seq


def read_trace_meta(path: str) -> Dict[str, object]:
    """The trace file's meta header, or ``{"schema": 1}`` if absent.

    Schema-1 traces (written before the header existed) start directly
    with an event line; they remain fully readable.
    """
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == TRACE_META_TYPE:
                return record
            break
    return {"schema": 1}


def _parse_trace_line(line: str) -> Optional[TraceEvent]:
    """One JSONL line -> event, or ``None`` for blanks / meta headers."""
    line = line.strip()
    if not line:
        return None
    record = json.loads(line)
    if record.get("type") == TRACE_META_TYPE:
        return None
    return TraceEvent.from_dict(record)


def read_trace_iter(
    path: str, type: Optional[str] = None
) -> Iterator[TraceEvent]:
    """Stream the events of a JSONL trace file, one at a time.

    This is the bounded-memory primitive every trace consumer builds
    on: one line is parsed per step and nothing is retained, so
    million-event traces cost O(1) reader memory.  Meta header lines
    and blanks are skipped; optionally filters to one event *type*.
    """
    with open(path) as fh:
        for line in fh:
            event = _parse_trace_line(line)
            if event is None:
                continue
            if type is None or event.type == type:
                yield event


def read_trace(path: str, type: Optional[str] = None) -> Iterator[TraceEvent]:
    """Iterate the events stored in a JSONL trace file.

    Optionally filters to one event *type*.  Alias of
    :func:`read_trace_iter` (kept as the long-standing public name).
    """
    return read_trace_iter(path, type=type)
