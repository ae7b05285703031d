"""Trace-driven discrete-event DTN simulator.

The engine replays a contact trace in time order, interleaving
workload events (message creations), and hands each event to a
:class:`Protocol`.  Store-carry-forward semantics live entirely in the
protocol implementations (:mod:`repro.pubsub`); the engine owns time,
event ordering, and per-contact bandwidth budgets.

This mirrors the paper's evaluation methodology (Sec. VII-A): "The
durations of all the contacts are already recorded in the trace" and
transfers are bounded by the 250 Kbps effective Bluetooth rate.

The replay loop is written for throughput *and* bounded memory:
contact columns are consumed in fixed-size chunks (so an mmap-backed
trace far larger than RAM replays without ever materialising a whole
column), per-node byte accounting uses ``defaultdict`` instead of
repeated ``dict.get``, and attribute lookups are bound to locals
outside the loop.  A protocol that opts in with ``passive = True`` (no
per-contact handler work, no workload, no recorder, no faults) is
replayed on a fully vectorised accounting path that never materialises
a :class:`Contact` at all — the two paths produce identical reports.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from ..obs.recorder import NULL_RECORDER
from ..traces.model import Contact, ContactTrace
from .bandwidth import BLUETOOTH_EFFECTIVE_BPS, ContactChannel
from .events import MessageEvent

__all__ = [
    "PassiveProtocol",
    "Protocol",
    "Simulation",
    "SimulationReport",
]

#: Contact rows per replay chunk.  Bounds the transient footprint of
#: both replay paths to a few tens of MB no matter how large the trace
#: is.
REPLAY_CHUNK_SIZE = 1 << 18


class Protocol(abc.ABC):
    """Interface a routing/pub-sub protocol implements to be simulated.

    One protocol instance manages the state of *all* nodes (a
    per-node-object design would be truer to deployment but an order of
    magnitude slower in Python for zero analytic benefit; per-node state
    is still strictly partitioned inside the implementations).
    """

    #: Human-readable protocol name, used in reports.
    name: str = "protocol"

    #: A passive protocol declares its handlers side-effect free, which
    #: lets the engine replay pure accounting runs on a vectorised fast
    #: path (see :class:`PassiveProtocol`).
    passive: bool = False

    def setup(self, trace: ContactTrace) -> None:
        """Called once before the first event, with the full trace."""

    @abc.abstractmethod
    def on_message_created(self, node: int, message: Any, now: float) -> None:
        """A producer *node* creates *message* at time *now*."""

    @abc.abstractmethod
    def on_contact(
        self, contact: Contact, channel: ContactChannel, now: float
    ) -> None:
        """Nodes ``contact.a`` and ``contact.b`` meet at time *now*.

        All transfers must be charged to *channel*; when it refuses, the
        transfer did not happen.
        """

    def finish(self, now: float) -> None:
        """Called once after the last event (trace end time)."""

    def on_node_crashed(self, node: int, now: float, mode: str = "wipe") -> None:
        """Fault injection: *node* crashed at *now*, losing volatile state.

        ``mode="wipe"`` loses everything; ``mode="age"`` may keep
        state that plausibly survives on flash (protocol-defined).
        Default: no-op, for protocols that carry no volatile state
        worth modelling.
        """

    def on_node_recovered(self, node: int, now: float) -> None:
        """Fault injection: *node* came back online at *now*.  Default no-op."""


class PassiveProtocol(Protocol):
    """A protocol that transfers nothing — pure trace-replay accounting.

    Useful for measuring engine throughput and for workloads that only
    need the :class:`SimulationReport` contact statistics (contact
    counts per node, exhausted channels, trace end time).  Because it
    declares ``passive = True``, the engine replays it on the
    vectorised fast path whenever no workload, recorder, or fault plan
    is attached.
    """

    name = "PASSIVE"
    passive = True

    def on_message_created(self, node: int, message: Any, now: float) -> None:
        pass

    def on_contact(
        self, contact: Contact, channel: ContactChannel, now: float
    ) -> None:
        pass


@dataclass
class SimulationReport:
    """Engine-level accounting for one run."""

    num_contacts: int = 0
    num_messages_created: int = 0
    end_time: float = 0.0
    bytes_transferred: float = 0.0
    refused_transfers: int = 0
    channels_exhausted: int = 0
    #: node -> bytes transmitted / received (populated when the
    #: protocol attributes transfers; used by the energy model).
    tx_bytes_by_node: dict = field(default_factory=lambda: defaultdict(float))
    rx_bytes_by_node: dict = field(default_factory=lambda: defaultdict(float))
    #: node -> number of contacts the node took part in.
    contacts_by_node: dict = field(default_factory=lambda: defaultdict(int))
    extra: dict = field(default_factory=dict)


class Simulation:
    """One protocol run over one trace.

    Parameters
    ----------
    trace:
        The contact trace to replay.
    protocol:
        The protocol under test.
    message_events:
        Workload events (any order; sorted internally).
    rate_bps:
        Effective per-contact link rate; ``None`` for infinite
        bandwidth.
    recorder:
        Observability recorder (:mod:`repro.obs`); when enabled, every
        contact is emitted as a ``contact`` event *before* the protocol
        handles it, so per-contact protocol events nest after their
        announcing contact in the trace.
    faults:
        Optional fault plan (duck-typed — see
        :class:`repro.faults.FaultPlan`): supplies churn via
        ``advance(now, protocol)`` / ``is_down(node)``, per-contact
        channels via ``make_channel(contact, index, rate_bps)``, and
        degradation tallies via ``accounting``.  ``None`` (the default)
        takes the exact fault-free code path.
    """

    def __init__(
        self,
        trace: ContactTrace,
        protocol: Protocol,
        message_events: Iterable[MessageEvent] = (),
        rate_bps: Optional[float] = BLUETOOTH_EFFECTIVE_BPS,
        recorder=NULL_RECORDER,
        faults=None,
    ):
        self.trace = trace
        self.protocol = protocol
        self.message_events: List[MessageEvent] = sorted(
            message_events, key=lambda e: e.time
        )
        self.rate_bps = rate_bps
        self.recorder = recorder
        self.faults = faults
        self.report = SimulationReport()
        self._ran = False

    def run(self) -> SimulationReport:
        """Replay the trace once; returns the engine report.

        A Simulation is single-shot: protocols accumulate state, so
        re-running the same instance would silently double-count.
        """
        if self._ran:
            raise RuntimeError("Simulation instances are single-shot; build a new one")
        self._ran = True

        protocol = self.protocol
        protocol.setup(self.trace)
        if (
            getattr(protocol, "passive", False)
            and self.faults is None
            and not self.message_events
            and not self.recorder.enabled
        ):
            return self._run_passive()
        return self._run_general()

    def _run_passive(self) -> SimulationReport:
        """Vectorised replay for passive protocols.

        No handler can transfer bytes, no workload or fault plan
        perturbs the timeline, and no recorder observes it — so the
        report reduces to column arithmetic, one ``REPLAY_CHUNK_SIZE``
        chunk at a time so an mmap trace never materialises a whole
        column.  Produces a report identical to :meth:`_run_general`
        (pinned by an equivalence test).
        """
        report = self.report
        trace = self.trace
        rate_bps = self.rate_bps
        starts, durations, a, b = trace.contacts.columns()
        n = len(starts)
        exhausted = 0
        end_max = -np.inf
        counts = np.zeros(0, dtype=np.int64)
        oddball: Dict[int, int] = {}  # negative node ids: bincount can't
        for lo in range(0, n, REPLAY_CHUNK_SIZE):
            hi = lo + REPLAY_CHUNK_SIZE
            d = durations[lo:hi]
            if rate_bps is not None:
                # Same expression ContactChannel evaluates per contact:
                # exhausted() <=> budget - 0 spent < 1 byte.
                exhausted += int(np.count_nonzero((d * rate_bps) / 8.0 < 1.0))
            end_max = max(end_max, float(np.max(starts[lo:hi] + d)))
            ca, cb = a[lo:hi], b[lo:hi]
            if int(ca.min()) >= 0 and int(cb.min()) >= 0:
                length = int(max(ca.max(), cb.max())) + 1
                chunk_counts = np.bincount(ca, minlength=length) + np.bincount(
                    cb, minlength=length
                )
                if length > len(counts):
                    counts = np.concatenate(
                        (counts, np.zeros(length - len(counts), dtype=np.int64))
                    )
                counts[: len(chunk_counts)] += chunk_counts
            else:
                for arr in (ca, cb):
                    nodes, node_counts = np.unique(arr, return_counts=True)
                    for node, count in zip(
                        nodes.tolist(), node_counts.tolist()
                    ):
                        oddball[node] = oddball.get(node, 0) + count
        if oddball:
            # Mixed/negative ids: fold the bincount counts into the map
            # and sort once, matching one global np.unique reduction.
            for node in counts.nonzero()[0].tolist():
                oddball[node] = oddball.get(node, 0) + int(counts[node])
            by_node = dict(sorted(oddball.items()))
        else:
            nodes = np.flatnonzero(counts)
            by_node = dict(zip(nodes.tolist(), counts[nodes].tolist()))
        report.num_contacts = n
        report.channels_exhausted = exhausted
        report.contacts_by_node.update(by_node)
        if n:
            now = max(0.0, float(starts[n - 1]))
            end_time = max(now, end_max)
        else:
            end_time = max(0.0, trace.end_time)
        self.protocol.finish(end_time)
        report.end_time = end_time
        return report

    def _run_general(self) -> SimulationReport:
        protocol = self.protocol
        trace = self.trace
        store = trace.contacts
        events = self.message_events
        report = self.report
        faults = self.faults
        rate_bps = self.rate_bps
        recorder = self.recorder

        # Bind the hot-path lookups once: handler methods, recorder
        # state (fixed for the lifetime of a run), accounting dicts.
        on_contact = protocol.on_contact
        on_message_created = protocol.on_message_created
        rec_enabled = recorder.enabled
        rec_emit = recorder.emit
        tx_by_node = report.tx_bytes_by_node
        rx_by_node = report.rx_bytes_by_node
        contacts_by_node = report.contacts_by_node

        # Contacts are consumed chunk by chunk: per chunk, the columns
        # are pulled out as plain Python lists (the merge loop then
        # touches only list indexing and float compares) and Contact
        # objects are built one at a time, transiently.  Chunking
        # bounds peak memory on out-of-core traces; the event order is
        # exactly that of one global merge loop because chunks are
        # consecutive row ranges of the time-sorted trace.
        if getattr(store, "backend", "object") == "object":
            contact_list = list(store)
            columns = None
            num_contacts = len(contact_list)
        else:
            contact_list = None
            columns = store.columns()
            num_contacts = len(columns[0])
        num_events = len(events)

        num_messages_created = 0
        contacts_seen = 0
        bytes_transferred = 0.0
        refused_transfers = 0
        channels_exhausted = 0

        mi = 0
        now = 0.0
        for lo in range(0, num_contacts, REPLAY_CHUNK_SIZE):
            hi = lo + REPLAY_CHUNK_SIZE
            if columns is not None:
                c_start = columns[0][lo:hi].tolist()
                c_duration = columns[1][lo:hi].tolist()
                c_a = columns[2][lo:hi].tolist()
                c_b = columns[3][lo:hi].tolist()
            else:
                chunk = contact_list[lo:hi]
                c_start = [c.start for c in chunk]
                c_duration = [c.duration for c in chunk]
                c_a = [c.a for c in chunk]
                c_b = [c.b for c in chunk]
            n_chunk = len(c_start)
            # Fault-quiet chunk: no churn event is due before the last
            # contact of this chunk, so every ``advance`` call inside
            # it would be a no-op and the down-set is constant — the
            # endpoint checks collapse to one vectorised mask (or
            # nothing at all when every node is up).
            quiet = down = None
            if faults is not None and n_chunk and columns is not None:
                if faults.next_event_time() > c_start[n_chunk - 1]:
                    quiet = True
                    down = faults.down_mask(
                        columns[2][lo:hi], columns[3][lo:hi]
                    )
                    if down is not None:
                        down = down.tolist()
            ci = 0
            while ci < n_chunk:
                if mi < num_events and events[mi].time <= c_start[ci]:
                    event = events[mi]
                    mi += 1
                    if event.time > now:
                        now = event.time
                    if faults is not None:
                        if not quiet:
                            faults.advance(event.time, protocol)
                        if faults.is_down(event.node):
                            # The producer's device is off: the message
                            # is never created (it still shrinks the
                            # intended workload, which is the point).
                            faults.accounting.messages_skipped += 1
                            continue
                    on_message_created(event.node, event.message, event.time)
                    num_messages_created += 1
                    continue
                index = lo + ci
                start = c_start[ci]
                duration = c_duration[ci]
                a = c_a[ci]
                b = c_b[ci]
                ci += 1
                if start > now:
                    now = start
                if faults is not None:
                    if quiet:
                        skip = down is not None and down[ci - 1]
                    else:
                        faults.advance(start, protocol)
                        skip = faults.is_down(a) or faults.is_down(b)
                    if skip:
                        # A crashed endpoint cannot communicate; the
                        # contact never happens at the protocol level.
                        faults.accounting.contacts_skipped += 1
                        contacts_seen += 1
                        continue
                if contact_list is None:
                    contact = Contact(start, duration, a, b)
                else:
                    contact = contact_list[index]
                if faults is not None:
                    channel = faults.make_channel(contact, index, rate_bps)
                else:
                    channel = ContactChannel(duration, rate_bps)
                if rec_enabled:
                    rec_emit(
                        "contact", t=start, a=a, b=b, duration=float(duration),
                    )
                on_contact(contact, channel, start)
                contacts_seen += 1
                bytes_transferred += channel.spent_bytes
                refused_transfers += channel.refused_transfers
                if channel.exhausted():
                    channels_exhausted += 1
                for node, amount in channel.tx_bytes.items():
                    tx_by_node[node] += amount
                for node, amount in channel.rx_bytes.items():
                    rx_by_node[node] += amount
                contacts_by_node[a] += 1
                contacts_by_node[b] += 1
        # Workload events after the final contact.
        while mi < num_events:
            event = events[mi]
            mi += 1
            if event.time > now:
                now = event.time
            if faults is not None:
                faults.advance(event.time, protocol)
                if faults.is_down(event.node):
                    faults.accounting.messages_skipped += 1
                    continue
            on_message_created(event.node, event.message, event.time)
            num_messages_created += 1

        report.num_messages_created = num_messages_created
        report.num_contacts = contacts_seen
        report.bytes_transferred = bytes_transferred
        report.refused_transfers = refused_transfers
        report.channels_exhausted = channels_exhausted

        end_time = max(now, trace.end_time)
        if faults is not None:
            # Drain churn events due before the end so recoveries are
            # accounted and the protocol sees a consistent final state.
            faults.advance(end_time, protocol)
            report.extra["faults"] = faults.accounting.as_dict()
        protocol.finish(end_time)
        if rec_enabled:
            # End-of-run anchor: lets offline analyzers finalise every
            # still-live message lineage and cross-check engine totals
            # without re-running the simulation.
            rec_emit(
                "sim_end", t=end_time,
                contacts=contacts_seen, messages=num_messages_created,
            )
        report.end_time = end_time
        return report
