"""Span tracing from outside the program.

The benchmark never edits ``src/``: it wraps the public callables of
each layer (module functions, class methods) with :meth:`Tracer.install`
and records one span per call.  Spans of synchronous calls nest on a
stack, so a span's *self time* is its duration minus the time its
children cover.  Coroutine functions are wrapped as *detached* spans:
they record how long the awaited call took (a wait), but other tasks
run during that wait, so they take no part in the nesting.

Per-name totals (calls, busy time, self time) are kept exactly for
every call.  Individual spans ``(name, start, end, parent, run_id)``
are kept in memory up to ``keep`` of them and written out when the
run ends; calls past the cap still count in the totals.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: (name, start_s, end_s, parent index or -1, run id)
Span = Tuple[str, float, float, int, str]


class Tracer:
    """Collects spans and per-name totals for one traced run."""

    def __init__(self, run_id: str, keep: int = 200_000,
                 clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.keep = keep
        self.clock = clock
        self.spans: List[Span] = []
        self.dropped = 0
        #: name -> [calls, busy_s, self_s]
        self.totals: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        # Open synchronous spans: [name, start, child_s, span index].
        # A span's slot is reserved when it opens, so its children can
        # name it as their parent before it closes.
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self) -> int:
        """Reserve the next span slot (-1 once ``keep`` is reached)."""
        if len(self.spans) < self.keep:
            self.spans.append(None)
            return len(self.spans) - 1
        self.dropped += 1
        return -1

    def _close(self, name: str, start: float, end: float, child_s: float,
               parent: int, index: int) -> None:
        duration = end - start
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if index >= 0:
            self.spans[index] = (name, start, end, parent, self.run_id)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped in a span named *name*.

        A call made while a span of the same name is already innermost
        folds into it (a batch method delegating to its scalar twin
        counts once).
        """
        clock = self.clock
        stack = self._stack
        open_ = self._open
        close = self._close

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def detached(*args, **kwargs):
                index = open_()
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    close(name, start, clock(), 0.0, -1, index)

            return detached

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            frame = [name, 0.0, 0.0, open_()]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                close(name, frame[1], end, frame[2], parent, frame[3])

        return spanned

    def counting(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped in a bare call counter (no span, no timing)."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def install(self, owner: object, attr: str, name: str,
                count_only: bool = False) -> None:
        """Replace ``owner.attr`` by a traced wrapper (undone by
        :meth:`restore`).  *owner* is a module or a class."""
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        fn = original.__func__ if isinstance(original, staticmethod) else original
        wrapped = self.counting(name, fn) if count_only else self.wrap(name, fn)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Undo every :meth:`install`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def layer_metrics(self, names: Iterable[str]) -> Dict[str, float]:
        """``<name>.{calls,busy_s,self_s}`` for each of *names* (zeros
        for layers this run never entered)."""
        out: Dict[str, float] = {}
        for name in names:
            calls, busy, own = self.totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = int(calls)
            out[f"{name}.busy_s"] = busy
            out[f"{name}.self_s"] = own
        return out

    def write_jsonl(self, path: str) -> None:
        """Write the kept spans, one JSON object per line (a span still
        open, such as an await cut off by shutdown, is left out)."""
        with open(path, "w") as sink:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, run_id = span
                sink.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent if parent >= 0 else None, "run": run_id,
                }) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span from the span list alone.

    A span's self time is its duration minus the union of the intervals
    its direct children cover (clipped to the span), so overlapping or
    out-of-bounds children are never double-subtracted.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for index, (_name, start, end, _parent, _run) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[index] = (end - start) - covered
    return result


def overhead(traced_s: float, untraced_s: float) -> float:
    """Tracing overhead as a share of the untraced time."""
    return traced_s / untraced_s - 1.0 if untraced_s > 0 else float("nan")
