"""Durable subscription store, sharded by node-id hash.

A broker keeps its session/matching state in memory, but the *durable*
part — each node's exact subscription key set — must survive a
restart, so the restarted broker can rebuild its index and a
reconnecting session keeps its subscriptions without resubscribing.
This module is that durability layer: one small JSON record per node,
grouped into ``shard_NN/`` directories by node-id hash so a directory
never grows beyond ``nodes / num_shards`` entries.

Every :class:`~repro.serve.broker.BrokerServer` whose spec sets
``state_dir`` opens a store there, whatever the worker count: a single
broker restarted on the same directory, and each worker of a fleet
(:mod:`repro.serve.supervisor`, which shares one directory between
all workers and makes a temporary one when none is configured),
restore every record before accepting a connection.  Without a
``state_dir`` a single broker keeps durable state in memory only.

Writes are atomic (``tmp`` + ``os.replace``) and last-writer-wins,
which matches the broker's own latest-wins session semantics: two
workers racing on the same node id can only happen across a reconnect,
and the newer subscription is the one that must stick.

The record format deliberately stores the raw key set rather than a
serialized filter: the dispatcher's index and Bloom filters are cheap
to rebuild from keys (it does exactly that on every ``Subscribe``), and
keys survive geometry changes where a serialized Bloom image would
not.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple

__all__ = ["StateShardStore", "SubscriptionRecord", "DEFAULT_NUM_SHARDS"]

logger = logging.getLogger(__name__)

#: Default shard-directory fan-out; 64 keeps directories small up to
#: ~1M nodes while staying trivial to `ls` by hand.
DEFAULT_NUM_SHARDS = 64


@dataclass(frozen=True)
class SubscriptionRecord:
    """One node's durable subscription state, as persisted."""

    node_id: int
    keys: Tuple[str, ...]
    updated_at: float

    def as_dict(self) -> dict:
        return {
            "node": self.node_id,
            "keys": list(self.keys),
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SubscriptionRecord":
        return cls(
            node_id=int(doc["node"]),
            keys=tuple(str(k) for k in doc["keys"]),
            updated_at=float(doc["updated_at"]),
        )


class StateShardStore:
    """On-disk per-node subscription records under ``root/shard_NN/``.

    Parameters
    ----------
    root:
        Store directory (created on first use).
    num_shards:
        Hash-shard fan-out; must match across every process sharing
        the store (it is part of the on-disk layout, so the supervisor
        passes one value to all workers).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  Corrupt
        records found during recovery are still treated as absent (the
        client resubscribes on reconnect) but are no longer silent:
        each one bumps the ``state_shard_corrupt_records`` counter and
        logs a warning, so operators can see recovery data loss.
    """

    def __init__(
        self,
        root: os.PathLike,
        num_shards: int = DEFAULT_NUM_SHARDS,
        registry=None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.root = Path(root)
        self.num_shards = num_shards
        self.registry = registry
        self.corrupt_records = 0

    def _note_corrupt(self, path: Path, error: Exception) -> None:
        """Account one unreadable record (data loss an operator should see)."""
        self.corrupt_records += 1
        if self.registry is not None:
            self.registry.counter("state_shard_corrupt_records").inc()
        logger.warning(
            "state shard record %s is corrupt (%s: %s); treating as absent "
            "— the node must resubscribe on reconnect",
            path, type(error).__name__, error,
        )

    # -- layout -------------------------------------------------------------

    def shard_of(self, node_id: int) -> int:
        """Deterministic shard index for a node (stable across runs:
        plain modulo, not the salted built-in ``hash``)."""
        return node_id % self.num_shards

    def _record_path(self, node_id: int) -> Path:
        shard = self.shard_of(node_id)
        return self.root / f"shard_{shard:02d}" / f"node_{node_id}.json"

    # -- io -----------------------------------------------------------------

    def save(
        self, node_id: int, keys, updated_at: float
    ) -> SubscriptionRecord:
        """Persist one node's subscription set atomically.

        The tmp name embeds the pid so two workers racing on the same
        node never scribble over each other's half-written tmp file;
        ``os.replace`` makes the final rename atomic (last writer
        wins).
        """
        record = SubscriptionRecord(
            node_id=node_id,
            keys=tuple(sorted(keys)),
            updated_at=updated_at,
        )
        path = self._record_path(node_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(record.as_dict(), sort_keys=True))
        os.replace(tmp, path)
        return record

    def load(self, node_id: int) -> Optional[SubscriptionRecord]:
        """The node's record, or ``None`` if it was never saved.

        A record caught mid-crash (unreadable JSON, wrong shape) is
        treated as absent — counted and logged via
        ``state_shard_corrupt_records``, never raised.
        """
        path = self._record_path(node_id)
        try:
            doc = json.loads(path.read_text())
            return SubscriptionRecord.from_dict(doc)
        except FileNotFoundError:
            return None
        except (
            json.JSONDecodeError, OSError, KeyError, TypeError, ValueError,
        ) as error:
            self._note_corrupt(path, error)
            return None

    def delete(self, node_id: int) -> bool:
        """Remove a node's record; ``True`` if one existed."""
        try:
            os.unlink(self._record_path(node_id))
            return True
        except FileNotFoundError:
            return False

    def load_all(self) -> Iterator[SubscriptionRecord]:
        """Every readable record, ordered by node id.

        Used by a restarted worker to rebuild its key index before
        accepting traffic; corrupt or half-written files are skipped
        exactly as in :meth:`load` — counted and logged, never raised.
        """
        records = []
        if not self.root.is_dir():
            return iter(())
        for shard_dir in sorted(self.root.glob("shard_*")):
            for path in shard_dir.glob("node_*.json"):
                try:
                    records.append(
                        SubscriptionRecord.from_dict(
                            json.loads(path.read_text())
                        )
                    )
                except (
                    json.JSONDecodeError, OSError, KeyError, TypeError,
                    ValueError,
                ) as error:
                    self._note_corrupt(path, error)
                    continue
        records.sort(key=lambda r: r.node_id)
        return iter(records)

    def __len__(self) -> int:
        return sum(1 for _ in self.load_all())
