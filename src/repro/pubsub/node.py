"""Per-node state for B-SUB.

Every node simultaneously plays up to three roles (Sec. V-A):
*producer* (messages it created and may still replicate), *consumer*
(its genuine interest filter), and — while elected — *broker* (a relay
filter plus a buffer of carried messages).

Buffers are kept per-role because the forwarding rules differ: own
messages obey the copy limit ``ℂ``, carried messages obey the
preferential-query rule and leave the buffer after broker-to-broker
forwarding.  Both buffers are additionally indexed by content key so a
contact costs O(distinct keys) filter queries instead of O(buffered
messages) — with the paper's 38-key universe this is what keeps full
trace replays fast.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.allocation import TCBFCollection
from .exact import ExactInterestRelay
from ..core.bloom import BloomFilter
from ..core.filter_zoo import make_relay_filter
from ..core.hashing import HashFamily
from ..core.tcbf import TemporalCountingBloomFilter
from .messages import Message

__all__ = ["KeyedBuffer", "BsubNodeState"]


class KeyedBuffer:
    """A message buffer with a content-key index.

    Supports O(1) add/remove and iteration of the messages under one
    key.  Multi-key messages are indexed under every key; consumers of
    the per-key view must deduplicate (the protocol does so via its
    has-already-received checks).
    """

    __slots__ = ("messages", "_by_key")

    def __init__(self):
        self.messages: Dict[int, Message] = {}
        self._by_key: Dict[str, Set[int]] = {}

    def add(self, message: Message) -> None:
        if message.id in self.messages:
            return
        self.messages[message.id] = message
        for key in message.keys:
            self._by_key.setdefault(key, set()).add(message.id)

    def remove(self, message_id: int) -> bool:
        message = self.messages.pop(message_id, None)
        if message is None:
            return False
        for key in message.keys:
            bucket = self._by_key.get(key)
            if bucket is not None:
                bucket.discard(message_id)
                if not bucket:
                    del self._by_key[key]
        return True

    def keys(self) -> Iterable[str]:
        """The distinct content keys currently buffered."""
        return self._by_key.keys()

    def ids_for(self, key: str) -> Tuple[int, ...]:
        """Message ids buffered under *key* (snapshot, sorted for determinism)."""
        return tuple(sorted(self._by_key.get(key, ())))

    def buckets(self) -> Iterable[Tuple[str, Set[int]]]:
        """The live key index: (key, id set) pairs in insertion order.

        No snapshot is taken, so the buffer must not change while the
        view is walked; callers that remove messages use :meth:`ids_for`.
        """
        return self._by_key.items()

    def __contains__(self, message_id: int) -> bool:
        return message_id in self.messages

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages.values())


class GenuineMatches(dict):
    """Memoised answers of a node's genuine Bloom filter, key -> hit.

    A lookup of a new key queries the filter once and keeps the answer,
    false positives included.  The genuine filter never changes, so no
    answer goes stale.
    """

    __slots__ = ("bloom",)

    def __init__(self, bloom: BloomFilter):
        super().__init__()
        self.bloom = bloom

    def __missing__(self, key: str) -> bool:
        hit = self[key] = self.bloom.query(key)
        return hit


class BsubNodeState:
    """All state one B-SUB node carries.

    Parameters
    ----------
    node_id:
        The node's identifier.
    interests:
        The node's ground-truth interest keys.
    family:
        Shared hash family for every filter in the network.
    initial_value:
        TCBF counter initial value ``C``.
    decay_factor:
        DF applied to the relay filter (per second).  The genuine
        filter does not decay — a user's own subscription list is exact
        local state, re-announced (with full counters) on every broker
        contact.
    copy_limit:
        ℂ — replicas of each own message handed to brokers.
    relay_fill_threshold:
        When set, the relay is a Sec. VI-D :class:`TCBFCollection`
        growing a new filter each time the current one's fill ratio
        exceeds this threshold (``relay_max_filters`` caps the growth);
        when ``None`` (default) the relay is a single TCBF, as in the
        paper's main protocol description.
    filter_spec:
        A :mod:`repro.core.filter_zoo` spec string (e.g. ``"multi"``,
        ``"retouched:clear=3+17"``, ``"countbf"``) selecting the relay
        filter implementation.  Mutually exclusive with
        ``relay_fill_threshold`` and the ``"raw"`` interest encoding;
        ``None`` (default) keeps the legacy construction paths
        byte-identical.
    carried_capacity:
        Maximum number of *carried* (relayed) messages a broker
        buffers; ``None`` (default) means unbounded, the paper's
        implicit setting.  The paper motivates the limit ("the memory
        capacity of the nodes in HUNETs is also limited", Sec. I) but
        never hits it because messages are tiny.
    eviction:
        What happens when a carry would exceed the capacity:
        ``"oldest"`` evicts the earliest-expiring carried message
        (it had the least remaining usefulness); ``"reject"`` refuses
        the incoming message instead.
    """

    __slots__ = (
        "node_id",
        "interests",
        "genuine",
        "genuine_bloom",
        "genuine_matches",
        "relay",
        "interest_encoding",
        "copy_limit",
        "carried_capacity",
        "eviction",
        "evictions",
        "rejected_carries",
        "purged",
        "own",
        "copies_left",
        "carried",
        "received",
        "wire_cache",
        "_expiry_heap",
    )

    def __init__(
        self,
        node_id: int,
        interests: FrozenSet[str],
        family: HashFamily,
        initial_value: float,
        decay_factor: float,
        copy_limit: int,
        start_time: float = 0.0,
        relay_fill_threshold: Optional[float] = None,
        relay_max_filters: Optional[int] = None,
        carried_capacity: Optional[int] = None,
        eviction: str = "oldest",
        interest_encoding: str = "tcbf",
        filter_spec: Optional[str] = None,
    ):
        if copy_limit < 0:
            raise ValueError(f"copy_limit must be >= 0, got {copy_limit}")
        if interest_encoding not in ("tcbf", "raw"):
            raise ValueError(
                f"interest_encoding must be 'tcbf' or 'raw', got "
                f"{interest_encoding!r}"
            )
        if interest_encoding == "raw" and relay_fill_threshold is not None:
            raise ValueError(
                "relay_fill_threshold only applies to the TCBF encoding"
            )
        if filter_spec is not None and interest_encoding == "raw":
            raise ValueError(
                "filter_spec only applies to the TCBF encoding"
            )
        if filter_spec is not None and relay_fill_threshold is not None:
            raise ValueError(
                "filter_spec and relay_fill_threshold are mutually "
                "exclusive relay selectors"
            )
        if carried_capacity is not None and carried_capacity < 1:
            raise ValueError(
                f"carried_capacity must be >= 1, got {carried_capacity}"
            )
        if eviction not in ("oldest", "reject"):
            raise ValueError(
                f"eviction must be 'oldest' or 'reject', got {eviction!r}"
            )
        self.node_id = node_id
        self.interests = interests
        self.genuine = TemporalCountingBloomFilter(
            family=family,
            initial_value=initial_value,
            decay_factor=0.0,
            time=start_time,
        )
        self.genuine.insert_batch(list(interests))
        self.genuine_bloom: BloomFilter = self.genuine.to_bloom()
        self.genuine_matches = GenuineMatches(self.genuine_bloom)
        self.interest_encoding = interest_encoding
        if interest_encoding == "raw":
            self.relay = ExactInterestRelay(
                initial_value=initial_value,
                decay_factor=decay_factor,
                time=start_time,
            )
        elif filter_spec is not None:
            self.relay = make_relay_filter(
                filter_spec,
                family=family,
                initial_value=initial_value,
                decay_factor=decay_factor,
                time=start_time,
            )
        elif relay_fill_threshold is None:
            self.relay = TemporalCountingBloomFilter(
                family=family,
                initial_value=initial_value,
                decay_factor=decay_factor,
                time=start_time,
            )
        else:
            collection = TCBFCollection(
                fill_ratio_threshold=relay_fill_threshold,
                family=family,
                initial_value=initial_value,
                decay_factor=decay_factor,
                max_filters=relay_max_filters,
            )
            collection.advance(start_time)
            self.relay = collection
        self.copy_limit = copy_limit
        self.carried_capacity = carried_capacity
        self.eviction = eviction
        self.evictions = 0
        self.rejected_carries = 0
        self.purged = 0
        self.own = KeyedBuffer()
        self.copies_left: Dict[int, int] = {}
        self.carried = KeyedBuffer()
        self.received: Set[int] = set()
        #: Memoised wire sizes of this node's filters, maintained by the
        #: protocol layer: cache key -> (filter object, filter version,
        #: size in bytes).  Invalidation is by filter version counter,
        #: so unchanged filters are never re-measured contact after
        #: contact.
        self.wire_cache: Dict[tuple, tuple] = {}
        self._expiry_heap: List[Tuple[float, int]] = []

    # -- message bookkeeping ----------------------------------------------------

    def produce(self, message: Message) -> None:
        """Store a self-produced message with a fresh copy budget.

        The id also goes into ``received`` permanently: a producer must
        never accept its own message back from the network, even after
        the local copy is gone (copies spent or TTL expired).
        """
        self.own.add(message)
        self.copies_left[message.id] = self.copy_limit
        self.received.add(message.id)
        heapq.heappush(self._expiry_heap, (message.expires_at, message.id))

    def can_accept_carry(self, message_id: int) -> bool:
        """Whether a carry of *message_id* would be accepted right now.

        Lets the sender skip the transmission entirely when the
        receiver would reject it (a real receiver refuses before the
        transfer, not after paying for it).
        """
        if self.carried_capacity is None or message_id in self.carried:
            return True
        if len(self.carried) < self.carried_capacity:
            return True
        return self.eviction == "oldest"

    def carry(self, message: Message) -> bool:
        """Buffer a relayed message (broker role).

        Returns False when the capacity policy rejected the message
        (``eviction="reject"`` and the buffer is full).
        """
        if (
            self.carried_capacity is not None
            and message.id not in self.carried
            and len(self.carried) >= self.carried_capacity
        ):
            if self.eviction == "reject":
                self.rejected_carries += 1
                return False
            victim = min(self.carried, key=lambda m: (m.expires_at, m.id))
            self.carried.remove(victim.id)
            self.evictions += 1
        self.carried.add(message)
        heapq.heappush(self._expiry_heap, (message.expires_at, message.id))
        return True

    def has(self, message_id: int) -> bool:
        """True if this node holds or has already received the message."""
        return (
            message_id in self.own
            or message_id in self.carried
            or message_id in self.received
        )

    def mark_received(self, message_id: int) -> None:
        self.received.add(message_id)

    def consume_copy(self, message_id: int) -> None:
        """Spend one replica of an own message; drop it at zero.

        "The message is removed from the producer's memory after its
        copy number reaches the limit" (Sec. V-D).
        """
        remaining = self.copies_left.get(message_id, 0) - 1
        if remaining > 0:
            self.copies_left[message_id] = remaining
        else:
            self.copies_left.pop(message_id, None)
            self.own.remove(message_id)

    def drop_carried(self, message_id: int) -> None:
        """Remove a carried message (after broker-to-broker forwarding)."""
        self.carried.remove(message_id)

    def purge_expired(self, now: float) -> int:
        """Drop all buffered messages past their TTL; returns drop count."""
        dropped = 0
        heap = self._expiry_heap
        while heap and heap[0][0] < now:
            _, message_id = heapq.heappop(heap)
            if self.own.remove(message_id):
                self.copies_left.pop(message_id, None)
                dropped += 1
            if self.carried.remove(message_id):
                dropped += 1
        self.purged += dropped
        return dropped

    def buffered_messages(self) -> Iterator[Message]:
        """Own then carried messages (a message is never in both)."""
        yield from self.own
        yield from self.carried

    def buffered_keys(self) -> Set[str]:
        """Distinct content keys across both buffers."""
        return set(self.own.keys()) | set(self.carried.keys())

    def interested_in(self, message: Message) -> bool:
        """Ground-truth interest check (exact local matching)."""
        return bool(message.keys & self.interests)

    def obs_stats(self) -> Dict[str, float]:
        """Lifetime per-node counters for the observability harvest.

        Read once at the end of a run (never on the hot path); the
        underlying integers are maintained unconditionally because a
        bare ``+= 1`` on contact-level operations is free compared to
        the filter work around it.
        """
        relay_fill = getattr(self.relay, "fill_ratio", None)
        if relay_fill is None:
            ratios_fn = getattr(self.relay, "fill_ratios", None)
            if ratios_fn is not None:  # TCBFCollection: mean over filters
                ratios = ratios_fn()

                def relay_fill():
                    return sum(ratios) / len(ratios) if ratios else 0.0
        return {
            "own_buffered": len(self.own),
            "carried_buffered": len(self.carried),
            "received": len(self.received),
            "purged": self.purged,
            "evictions": self.evictions,
            "rejected_carries": self.rejected_carries,
            "relay_set_bits": len(self.relay),
            "relay_fill_ratio": float(relay_fill()) if relay_fill else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"BsubNodeState(node={self.node_id}, own={len(self.own)}, "
            f"carried={len(self.carried)}, received={len(self.received)})"
        )
