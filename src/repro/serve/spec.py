"""Typed specs for the live broker (`bsub serve`) and load driver (`bsub load`).

:class:`ServeSpec` and :class:`LoadSpec` follow the
:class:`repro.api.ExperimentSpec` conventions exactly: frozen
dataclasses validated in ``__post_init__``, a compact
``key=value,key=value`` :meth:`parse` grammar for the CLI, a
human-readable :meth:`describe`, and ``with_*`` derivation helpers.
The ``filter_spec`` field (a :mod:`repro.core.filter_zoo` spec string)
and the ``faults`` field (a :class:`repro.faults.FaultSpec`) are reused
verbatim from the experiment facade, and the paper-style geometry
aliases (``m``/``k``/``df``) resolve through
:data:`repro.core.params.SPEC_KEY_ALIASES` — the same spellings mean
the same thing in every spec string the project accepts.

Inside a ``parse()`` string the nested fault spec uses ``:`` for ``=``
and ``+`` for ``,`` (the outer grammar owns those characters), e.g.
``ServeSpec.parse("port=0,faults=loss:0.1+seed:3")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional

from ..core.params import canonical_spec_key
from ..faults.spec import FaultSpec

__all__ = ["ServeSpec", "LoadSpec", "ARRIVAL_PROFILES", "MATCHING_MODES"]

#: Delivery-matching modes for the broker.  ``exact`` keeps a
#: key -> subscribers index over the durable exact subscriptions
#: (the ``interest_encoding="raw"`` model — O(message keys) per
#: publish, no false positives, the mode that scales to 10k+
#: sessions); ``bloom`` queries every connected consumer's genuine
#: Bloom filter per publish (the paper-faithful Sec. V matching,
#: complete with Bloom false-positive deliveries).
MATCHING_MODES = ("exact", "bloom")

#: Arrival-pattern names accepted by :class:`LoadSpec`, mapping onto
#: the diurnal profiles of :mod:`repro.traces.synthetic`.
ARRIVAL_PROFILES = ("flat", "conference", "campus")


def _parse_fault_value(raw: str) -> FaultSpec:
    """Decode the nested fault grammar (``loss:0.1+crash:2``)."""
    return FaultSpec.parse(raw.replace("+", ",").replace(":", "="))


def _parse_kv(cls, text: str) -> Dict[str, object]:
    """Shared ``key=value,key=value`` scanner for both spec classes."""
    converters = cls._PARSE_FIELDS
    kwargs: Dict[str, object] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad spec item {part!r}: expected key=value")
        key, _, raw = part.partition("=")
        field_name = canonical_spec_key(key.strip())
        convert = converters.get(field_name)
        if convert is None:
            raise ValueError(
                f"unknown {cls.__name__} key {key.strip()!r}; expected one "
                f"of {sorted(converters)} (or aliases m/k/df)"
            )
        kwargs[field_name] = convert(raw.strip())
    return kwargs


def _opt_int(raw: str) -> Optional[int]:
    return None if raw.lower() in ("none", "off") else int(raw)


def _opt_str(raw: str) -> Optional[str]:
    return None if raw.lower() in ("none", "off") else raw


def _opt_float(raw: str) -> Optional[float]:
    return None if raw.lower() in ("none", "off") else float(raw)


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


@dataclass(frozen=True)
class ServeSpec:
    """Everything one broker daemon needs, as a single typed value.

    Attributes
    ----------
    host / port:
        TCP listen address; port 0 binds an ephemeral port (the bound
        port is reported by the running broker).
    metrics_port:
        When set, a plain-HTTP Prometheus exposition endpoint is served
        on this port (0 = ephemeral); ``None`` disables it.
    num_bits / num_hashes / initial_value / df_per_min:
        Filter geometry shared with every client — the TCBF frames on
        the wire only decode against the same
        :class:`~repro.core.hashing.HashFamily`.  ``df_per_min`` is the
        broker relay filter's decay factor (0 = no decay).
    matching:
        Delivery matching mode — see :data:`MATCHING_MODES`.
    filter_spec:
        :mod:`repro.core.filter_zoo` spec string selecting the broker's
        relay filter implementation (``None`` = the paper's single
        TCBF), reused verbatim from :class:`repro.api.ExperimentSpec`.
    faults:
        Optional :class:`~repro.faults.FaultSpec`.  The broker honours
        the channel-fault family — ``frame_loss`` / ``corruption``
        drop inbound frames after decode, deterministically seeded —
        for chaos-testing live clients; churn fields are inert here
        (the broker process is the node).
    idle_timeout_s:
        A session that stays silent this long is closed (clients keep
        sessions alive by re-sending ``Hello``, which doubles as the
        keepalive frame).
    max_frame_bytes:
        Per-session bound on a frame's declared body length; larger
        declarations are rejected as ``oversized_body`` and the
        session is dropped without buffering the claimed bytes.
    max_sessions:
        Accept limit; further connections are closed immediately
        (``None`` = unbounded).
    trace_path:
        When set, the broker streams its schema-v2 event trace to this
        JSONL file; ``bsub analyze`` on that file reproduces the
        broker's own registry counters exactly (the online/offline
        observability-parity guarantee).  With ``workers > 1`` each
        worker streams its own shard (``<path>.wN``) and the fleet
        supervisor merges them deterministically into ``trace_path``
        at shutdown.
    workers:
        Broker processes sharing the listen port via ``SO_REUSEPORT``.
        The default ``1`` keeps today's single-process asyncio broker
        byte-for-byte; ``N > 1`` runs an N-worker fleet under
        :class:`~repro.serve.supervisor.BrokerFleet` (one event loop
        and one :class:`~repro.serve.dispatcher.BrokerCore` per
        worker, durable state shared through ``state_dir``, publishes
        relayed worker-to-worker so fan-out spans the whole fleet).
    state_dir:
        Directory for the durable subscription store, sharded by
        node-id hash (see :mod:`repro.serve.state_shard`), used
        whatever the worker count: every ``Subscribe`` is persisted
        there, and a broker (or fleet worker) started on it restores
        every record before accepting a connection.  ``None`` keeps a
        single broker's durable state in memory only; a fleet without
        an explicit ``state_dir`` gets a supervisor-managed temporary
        directory so a restarted worker can rebuild its subscription
        index.
    live:
        Attach a :class:`~repro.obs.live.LiveTailer` to the broker's
        trace recorder (requires ``trace_path``): the ``/metrics``
        exposition grows ``live_*`` rolling series, and shutdown
        cross-checks the tailer's running totals against the
        dispatcher's parity counters (``live_parity_ok`` in the
        summary).  Default off — the tailer costs one callback per
        event on the emit path.
    """

    host: str = "127.0.0.1"
    port: int = 7410
    metrics_port: Optional[int] = None
    num_bits: int = 256
    num_hashes: int = 4
    initial_value: float = 50.0
    df_per_min: float = 0.0
    matching: str = "exact"
    filter_spec: Optional[str] = None
    faults: Optional[FaultSpec] = None
    idle_timeout_s: float = 300.0
    max_frame_bytes: int = 1 << 20
    max_sessions: Optional[int] = None
    trace_path: Optional[str] = None
    workers: int = 1
    state_dir: Optional[str] = None
    live: bool = False

    _PARSE_FIELDS = {
        "host": str,
        "port": int,
        "metrics_port": _opt_int,
        "num_bits": int,
        "num_hashes": int,
        "initial_value": float,
        "df_per_min": float,
        "matching": str,
        "filter_spec": _opt_str,
        "faults": _parse_fault_value,
        "idle_timeout_s": float,
        "max_frame_bytes": int,
        "max_sessions": _opt_int,
        "trace_path": _opt_str,
        "workers": int,
        "state_dir": _opt_str,
        "live": _parse_bool,
    }

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ValueError(
                f"metrics_port must be in [0, 65535], got {self.metrics_port}"
            )
        if self.num_bits < 2:
            raise ValueError(f"num_bits must be >= 2, got {self.num_bits}")
        if self.num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {self.num_hashes}")
        if not (math.isfinite(self.initial_value) and self.initial_value > 0):
            raise ValueError(
                f"initial_value must be positive, got {self.initial_value}"
            )
        if not (math.isfinite(self.df_per_min) and self.df_per_min >= 0):
            raise ValueError(
                f"df_per_min must be >= 0, got {self.df_per_min}"
            )
        if self.matching not in MATCHING_MODES:
            raise ValueError(
                f"matching must be one of {MATCHING_MODES}, "
                f"got {self.matching!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise TypeError(
                f"faults must be a FaultSpec or None, "
                f"got {type(self.faults).__name__}"
            )
        if not (math.isfinite(self.idle_timeout_s) and self.idle_timeout_s > 0):
            raise ValueError(
                f"idle_timeout_s must be positive, got {self.idle_timeout_s}"
            )
        if self.max_frame_bytes < 64:
            raise ValueError(
                f"max_frame_bytes must be >= 64, got {self.max_frame_bytes}"
            )
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ServeSpec":
        """Build a spec from ``key=value,key=value`` (the CLI surface).

        Field names and the ``m``/``k``/``df`` aliases are accepted;
        a nested fault spec uses ``:``/``+``, e.g.
        ``"port=0,matching=bloom,faults=loss:0.1"``.
        """
        return cls(**_parse_kv(cls, text))

    # -- derivation helpers -------------------------------------------------

    def with_port(self, port: int) -> "ServeSpec":
        return replace(self, port=port)

    def with_metrics_port(self, metrics_port: Optional[int]) -> "ServeSpec":
        return replace(self, metrics_port=metrics_port)

    def with_matching(self, matching: str) -> "ServeSpec":
        return replace(self, matching=matching)

    def with_faults(self, faults: Optional[FaultSpec]) -> "ServeSpec":
        return replace(self, faults=faults)

    def with_filter(self, filter_spec: Optional[str]) -> "ServeSpec":
        return replace(self, filter_spec=filter_spec)

    def with_trace(self, trace_path: Optional[str]) -> "ServeSpec":
        return replace(self, trace_path=trace_path)

    def with_workers(
        self, workers: int, state_dir: Optional[str] = None
    ) -> "ServeSpec":
        return replace(self, workers=workers, state_dir=state_dir)

    def with_live(self, live: bool = True) -> "ServeSpec":
        return replace(self, live=live)

    def describe(self) -> str:
        """Compact human-readable summary (CLI banner / report label)."""
        parts = [
            f"{self.host}:{self.port}",
            f"matching={self.matching}",
            f"m={self.num_bits}", f"k={self.num_hashes}",
            f"df={self.df_per_min:g}/min",
            f"idle={self.idle_timeout_s:g}s",
        ]
        if self.metrics_port is not None:
            parts.append(f"metrics:{self.metrics_port}")
        if self.filter_spec:
            parts.append(f"filter={self.filter_spec}")
        if self.faults is not None and self.faults.enabled:
            parts.append(f"faults[{self.faults.describe()}]")
        if self.trace_path:
            parts.append(f"trace={self.trace_path}")
        if self.workers > 1:
            parts.append(f"workers={self.workers}")
        if self.state_dir:
            parts.append(f"state={self.state_dir}")
        if self.live:
            parts.append("live")
        return " ".join(parts)


@dataclass(frozen=True)
class LoadSpec:
    """One live-traffic replay: sessions, workload shape, and chaos.

    Attributes
    ----------
    host / port:
        The broker to connect to.
    sessions:
        Concurrent client sessions to hold open; every session
        subscribes, a ``publisher_fraction`` slice also publishes.
    publisher_fraction:
        Fraction of sessions acting as producers (at least one).
    duration_s:
        How long the replay runs before sessions disconnect.
    publish_rate_per_s:
        Mean per-publisher message rate; inter-arrival times are drawn
        from the :mod:`repro.traces.synthetic` diurnal profile named by
        ``arrival`` (``flat`` = homogeneous Poisson).
    arrival:
        Arrival-pattern profile — see :data:`ARRIVAL_PROFILES`.
    interests_per_node / keys_per_message:
        Workload shape, drawn from the Table II Twitter-trend key
        distribution (:func:`repro.workload.keys.twitter_trends_2009`)
        exactly like the simulator's workload generator.
    ttl_s / size_bytes:
        Message TTL and payload size (the Twitter-scale 140 default).
    seed:
        Root seed for interests, arrival times, and key choices — the
        same spec replays the same workload.
    node_offset:
        Added to every session's node id (ids become
        ``node_offset + 1 .. node_offset + sessions``).  Lets several
        load-driver processes share one broker without colliding on
        node ids (a collision triggers the broker's latest-wins
        supersede and silently drops the older session).
    ramp_s:
        Connection-ramp length: session connects spread evenly over
        ``min(ramp_s, duration_s)`` seconds.  ``None`` keeps the
        historical ``min(2 s, duration/5)``; soaks with tens of
        thousands of sockets through one accept queue need a longer
        ramp.
    bind_host:
        Optional local source address for every client socket.
        A TCP connection is identified by its 4-tuple, so all
        loopback clients sharing one source IP cap out at the
        ephemeral port range (~28k concurrent connections to a
        single broker address on a default Linux host).  Sharded
        drivers pass a distinct ``127.0.0.x`` per process — the
        whole ``127.0.0.0/8`` block routes to loopback with no
        configuration — and each shard gets its own full port
        space.  ``None`` lets the kernel pick (single-shard
        default).
    num_bits / num_hashes / initial_value:
        Filter geometry; must match the broker's :class:`ServeSpec`
        for the optional filter frames to decode.
    faults:
        Optional client-side chaos, reusing
        :class:`~repro.faults.FaultSpec` verbatim: ``frame_loss``
        skips sending a frame, ``corruption`` flips bytes in an
        encoded frame before sending (the broker must count a decode
        error, never crash), ``truncation`` disconnects mid-frame.
        Churn fields are inert here.
    """

    host: str = "127.0.0.1"
    port: int = 7410
    sessions: int = 100
    publisher_fraction: float = 0.1
    duration_s: float = 10.0
    publish_rate_per_s: float = 1.0
    arrival: str = "flat"
    interests_per_node: int = 1
    keys_per_message: int = 1
    ttl_s: float = 3600.0
    size_bytes: int = 140
    seed: int = 7
    num_bits: int = 256
    num_hashes: int = 4
    initial_value: float = 50.0
    faults: Optional[FaultSpec] = None
    node_offset: int = 0
    ramp_s: Optional[float] = None
    bind_host: Optional[str] = None

    _PARSE_FIELDS = {
        "host": str,
        "port": int,
        "sessions": int,
        "publisher_fraction": float,
        "duration_s": float,
        "publish_rate_per_s": float,
        "arrival": str,
        "interests_per_node": int,
        "keys_per_message": int,
        "ttl_s": float,
        "size_bytes": int,
        "seed": int,
        "num_bits": int,
        "num_hashes": int,
        "initial_value": float,
        "faults": _parse_fault_value,
        "node_offset": int,
        "ramp_s": _opt_float,
        "bind_host": _opt_str,
    }

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if not 0.0 <= self.publisher_fraction <= 1.0:
            raise ValueError(
                f"publisher_fraction must be in [0, 1], "
                f"got {self.publisher_fraction}"
            )
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if not (
            math.isfinite(self.publish_rate_per_s)
            and self.publish_rate_per_s > 0
        ):
            raise ValueError(
                f"publish_rate_per_s must be positive, "
                f"got {self.publish_rate_per_s}"
            )
        if self.arrival not in ARRIVAL_PROFILES:
            raise ValueError(
                f"arrival must be one of {ARRIVAL_PROFILES}, "
                f"got {self.arrival!r}"
            )
        if self.interests_per_node < 1:
            raise ValueError(
                f"interests_per_node must be >= 1, "
                f"got {self.interests_per_node}"
            )
        if self.keys_per_message < 1:
            raise ValueError(
                f"keys_per_message must be >= 1, got {self.keys_per_message}"
            )
        if not (math.isfinite(self.ttl_s) and self.ttl_s > 0):
            raise ValueError(f"ttl_s must be positive, got {self.ttl_s}")
        if self.size_bytes < 1:
            raise ValueError(f"size_bytes must be >= 1, got {self.size_bytes}")
        if self.num_bits < 2:
            raise ValueError(f"num_bits must be >= 2, got {self.num_bits}")
        if self.num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {self.num_hashes}")
        if not (math.isfinite(self.initial_value) and self.initial_value > 0):
            raise ValueError(
                f"initial_value must be positive, got {self.initial_value}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise TypeError(
                f"faults must be a FaultSpec or None, "
                f"got {type(self.faults).__name__}"
            )
        if self.node_offset < 0:
            raise ValueError(
                f"node_offset must be >= 0, got {self.node_offset}"
            )
        if self.ramp_s is not None and not (
            math.isfinite(self.ramp_s) and self.ramp_s > 0
        ):
            raise ValueError(f"ramp_s must be positive, got {self.ramp_s}")
        if self.bind_host is not None and not self.bind_host.strip():
            raise ValueError("bind_host must be a non-empty address or None")

    @property
    def num_publishers(self) -> int:
        """Publisher count implied by the fraction (at least one)."""
        return max(1, round(self.sessions * self.publisher_fraction))

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "LoadSpec":
        """Build a spec from ``key=value,key=value`` (the CLI surface)."""
        return cls(**_parse_kv(cls, text))

    # -- derivation helpers -------------------------------------------------

    def with_sessions(self, sessions: int) -> "LoadSpec":
        return replace(self, sessions=sessions)

    def with_duration(self, duration_s: float) -> "LoadSpec":
        return replace(self, duration_s=duration_s)

    def with_seed(self, seed: int) -> "LoadSpec":
        return replace(self, seed=seed)

    def with_faults(self, faults: Optional[FaultSpec]) -> "LoadSpec":
        return replace(self, faults=faults)

    def with_target(self, host: str, port: int) -> "LoadSpec":
        return replace(self, host=host, port=port)

    def describe(self) -> str:
        """Compact human-readable summary (CLI banner / report label)."""
        parts = [
            f"{self.sessions} sessions -> {self.host}:{self.port}",
            f"{self.num_publishers} publishers"
            f"@{self.publish_rate_per_s:g}/s[{self.arrival}]",
            f"{self.duration_s:g}s",
            f"seed={self.seed}",
        ]
        if self.faults is not None and self.faults.enabled:
            parts.append(f"faults[{self.faults.describe()}]")
        return " ".join(parts)


# The class-level parse tables are implementation detail, not dataclass
# fields; make sure dataclasses agrees (a stray annotation would turn
# them into fields and break freezing).
assert "_PARSE_FIELDS" not in {f.name for f in fields(ServeSpec)}
assert "_PARSE_FIELDS" not in {f.name for f in fields(LoadSpec)}
