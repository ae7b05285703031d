"""Wire protocol: the frames B-SUB exchanges during a contact.

The simulator charges transfer *sizes* to the contact bandwidth budget;
this module defines the actual byte layout those sizes correspond to,
so the protocol is deployable rather than merely simulated.  A contact
is a sequence of frames:

* ``HELLO`` — the identity exchange of Sec. V-C: node id, broker flag,
  and the node's current degree (the election's input).
* ``INTEREST_ANNOUNCEMENT`` — the consumer's genuine filter as a
  shared-counter TCBF (all counters equal ``C``), for the broker's
  A-merge.
* ``RELAY_FILTER`` — a broker's relay filter with counters (towards
  another broker, for the M-merge and preferential queries).
* ``FILTER_REQUEST`` — a counter-stripped filter: either a broker's
  relay filter sent to a producer ("when a broker requests messages
  from a source, it does not need to report the counters", Sec. V-D) or
  a consumer's interest BF.
* ``MESSAGE_BUNDLE`` — one or more messages (header + payload).
* ``SUBSCRIBE`` — the session-layer durable subscription frame (type
  bytes ``0x20`` and up are the live-broker session layer, see
  :mod:`repro.serve`): the consumer's exact interest keys in
  cleartext.  This is the wire form of the fact the paper leans on
  throughout — "a user's own subscription list is exact local state" —
  and is what lets a broker keep ground-truth interest sets (the
  ``interest_encoding="raw"`` model) across reconnects.

Every frame is ``[1-byte type][4-byte little-endian body length][body]``.
Frames are self-delimiting, so a contact transcript is just their
concatenation and can be cut short when the contact breaks — exactly
the truncation semantics the bandwidth budget models.

Decoding is *total*: :func:`decode_frames` never raises on garbage.
It returns a :class:`DecodeResult` — the frames decoded before the
first problem, plus an optional :class:`FrameError` describing what
stopped the parse (truncation, an unknown frame type, or a body that
fails validation).  Receivers in a faulty network (see
:mod:`repro.faults`) keep every frame that arrived intact and discard
the rest, instead of crashing on a flipped byte.

Decoding is also *incremental*: ``DecodeResult.consumed`` is the exact
byte count covered by cleanly decoded frames, so a streaming receiver
(a TCP session buffering partial reads) calls :func:`decode_frames` on
its buffer, keeps ``buffer[result.consumed:]`` as the leftover, and
treats ``truncated_header`` / ``truncated_body`` as "wait for more
bytes" rather than damage.  :class:`StreamDecoder` packages that
leftover-buffer contract (plus an oversized-declared-length guard) for
the live broker's sessions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from ..core.bloom import BloomFilter
from ..core.hashing import HashFamily
from ..core.serialization import decode_bloom, decode_tcbf, encode_bloom, encode_tcbf
from ..core.tcbf import TemporalCountingBloomFilter
from .messages import Message

__all__ = [
    "Hello",
    "InterestAnnouncement",
    "RelayFilter",
    "FilterRequest",
    "MessageBundle",
    "Subscribe",
    "FrameError",
    "DecodeResult",
    "StreamDecoder",
    "encode_frame",
    "decode_frames",
    "encode_message",
    "decode_message",
]

FRAME_HELLO = 0x10
FRAME_INTEREST_ANNOUNCEMENT = 0x11
FRAME_RELAY_FILTER = 0x12
FRAME_FILTER_REQUEST = 0x13
FRAME_MESSAGE_BUNDLE = 0x14
# Session-layer frames (live broker, repro.serve) start at 0x20 so the
# contact-layer range keeps room for protocol growth; bytes between
# 0x15 and 0x1F remain deliberately unknown (the fuzz suite pins 0x15
# as a future-version byte that must be rejected).
FRAME_SUBSCRIBE = 0x20

_FRAME_HEADER = struct.Struct("<BI")  # type, body length
_HELLO_BODY = struct.Struct("<IBId")  # node id, broker flag, degree, time
_MESSAGE_HEADER = struct.Struct("<QIddBH")  # id, source, created, ttl, #keys, payload len
_BUNDLE_HEADER = struct.Struct("<BIH")  # frame header + message count


@dataclass(frozen=True)
class Hello:
    """Identity beacon: who am I, am I a broker, how connected am I."""

    node_id: int
    is_broker: bool
    degree: int
    time: float


@dataclass(frozen=True)
class InterestAnnouncement:
    """A consumer's genuine filter (shared-counter TCBF)."""

    filter: TemporalCountingBloomFilter


@dataclass(frozen=True)
class RelayFilter:
    """A broker's relay filter with per-bit counters."""

    filter: TemporalCountingBloomFilter


@dataclass(frozen=True)
class FilterRequest:
    """A counter-stripped filter used as a matching request."""

    filter: BloomFilter


@dataclass(frozen=True)
class MessageBundle:
    """One or more messages with payloads.

    Keeps its wire bytes after the first :func:`encode_frame` (in
    ``_wire``, not a field: equality, hash, repr and pickling see only
    ``messages`` and ``payloads``), so a shared bundle encodes once.
    """

    messages: Tuple[Message, ...]
    payloads: Tuple[bytes, ...]
    _wire = None

    def __post_init__(self):
        if len(self.messages) != len(self.payloads):
            raise ValueError(
                f"{len(self.messages)} messages but {len(self.payloads)} payloads"
            )

    def __getstate__(self):
        return {"messages": self.messages, "payloads": self.payloads}


@dataclass(frozen=True)
class Subscribe:
    """A consumer's exact, durable interest keys (session layer).

    Replaces the node's whole subscription set on receipt — sending it
    again is the live-broker form of the paper's genuine-filter
    re-announcement, and sending it with an updated key set is both
    subscribe and unsubscribe in one idempotent operation.
    """

    keys: Tuple[str, ...]

    def __post_init__(self):
        if len(self.keys) > 65535:
            raise ValueError("at most 65535 keys per subscribe frame")
        for key in self.keys:
            if not key:
                raise ValueError("subscription keys must be non-empty")
            if len(key.encode("utf-8")) > 255:
                raise ValueError("subscription keys are at most 255 bytes")


Frame = Union[
    Hello, InterestAnnouncement, RelayFilter, FilterRequest, MessageBundle,
    Subscribe,
]


@dataclass(frozen=True)
class FrameError:
    """Why a frame-stream parse stopped early.

    Attributes
    ----------
    offset:
        Byte offset of the offending frame's header in the input.
    frame_type:
        The frame's declared type byte, when the header was readable.
    reason:
        ``"truncated_header"`` — fewer than 5 header bytes remained;
        ``"truncated_body"`` — the declared body length runs past the
        end of the buffer (never over-read);
        ``"oversized_body"`` — the declared body length exceeds the
        caller's ``max_body_len`` bound (a hostile or corrupted length
        a streaming receiver must not wait to buffer);
        ``"unknown_frame_type"`` — an unrecognised type byte (a flipped
        bit, or a frame from a future protocol version);
        ``"bad_body"`` — the body failed structural validation while
        decoding.
    detail:
        Free-form diagnostic text.
    """

    offset: int
    frame_type: Optional[int]
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class DecodeResult:
    """The outcome of parsing a (possibly damaged) frame stream.

    Iterable and indexable like the frame list; :attr:`ok` is True when
    the whole input parsed cleanly.  ``consumed`` is the number of
    input bytes covered by successfully decoded frames — everything
    after it was truncated or rejected.
    """

    frames: Tuple[Frame, ...]
    error: Optional[FrameError]
    consumed: int

    @property
    def ok(self) -> bool:
        return self.error is None

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, index):
        return self.frames[index]


# -- message codec -----------------------------------------------------------


def encode_message(message: Message, payload: Optional[bytes] = None) -> bytes:
    """Serialise one message (header + payload).

    The payload defaults to ``size_bytes`` zero bytes — the simulator
    carries sizes, not content — but real content of exactly
    ``size_bytes`` bytes is accepted.
    """
    if payload is None:
        payload = bytes(message.size_bytes)
    if len(payload) != message.size_bytes:
        raise ValueError(
            f"payload is {len(payload)} bytes; message declares "
            f"{message.size_bytes}"
        )
    keys = message.keys
    if len(keys) > 255:
        raise ValueError("at most 255 keys per message on the wire")
    parts = [
        _MESSAGE_HEADER.pack(
            message.id,
            message.source,
            message.created_at,
            message.ttl_s,
            len(keys),
            message.size_bytes,
        )
    ]
    # Keys go out sorted by code point; a lone key needs no sort.
    for key in sorted(keys) if len(keys) > 1 else keys:
        raw = key.encode("utf-8")
        if len(raw) > 255:
            raise ValueError(
                "message keys are at most 255 UTF-8 bytes on the wire"
            )
        parts.append(bytes((len(raw),)))
        parts.append(raw)
    parts.append(payload)
    return b"".join(parts)


def decode_message(data: bytes, offset: int = 0) -> Tuple[Message, bytes, int]:
    """Decode one message at *offset*; returns (message, payload, next offset).

    The decoded :class:`Message` preserves the original id (it is not
    re-allocated), so receipt bookkeeping stays consistent end-to-end.
    """
    size = len(data)
    if offset + _MESSAGE_HEADER.size > size:
        raise ValueError("truncated message header")
    msg_id, source, created_at, ttl_s, num_keys, payload_len = (
        _MESSAGE_HEADER.unpack_from(data, offset)
    )
    offset += _MESSAGE_HEADER.size
    keys = []
    for _ in range(num_keys):
        if offset >= size:
            raise ValueError("truncated message key block")
        length = data[offset]
        offset += 1
        if offset + length > size:
            raise ValueError("truncated message key")
        keys.append(data[offset : offset + length].decode("utf-8"))
        offset += length
    end = offset + payload_len
    if end > size:
        raise ValueError("truncated message payload")
    # Positional: (id, keys, source, created_at, ttl_s, size_bytes).
    message = Message(
        msg_id, frozenset(keys), source, created_at, ttl_s, payload_len
    )
    return message, bytes(data[offset:end]), end


# -- frame codec ---------------------------------------------------------------


def _frame(frame_type: int, body: bytes) -> bytes:
    return _FRAME_HEADER.pack(frame_type, len(body)) + body


def encode_frame(frame: Frame) -> bytes:
    """Serialise one frame (type + length + body)."""
    if isinstance(frame, MessageBundle):
        if frame._wire is None:
            body = b"".join(map(encode_message, frame.messages, frame.payloads))
            header = _BUNDLE_HEADER.pack(
                FRAME_MESSAGE_BUNDLE, 2 + len(body), len(frame.messages)
            )
            object.__setattr__(frame, "_wire", header + body)
        return frame._wire
    if isinstance(frame, Hello):
        body = _HELLO_BODY.pack(
            frame.node_id, int(frame.is_broker), frame.degree, frame.time
        )
        return _frame(FRAME_HELLO, body)
    if isinstance(frame, InterestAnnouncement):
        return _frame(
            FRAME_INTEREST_ANNOUNCEMENT,
            encode_tcbf(frame.filter, counters="identical"),
        )
    if isinstance(frame, RelayFilter):
        return _frame(FRAME_RELAY_FILTER, encode_tcbf(frame.filter, counters="full"))
    if isinstance(frame, FilterRequest):
        return _frame(FRAME_FILTER_REQUEST, encode_bloom(frame.filter))
    if isinstance(frame, Subscribe):
        parts = [len(frame.keys).to_bytes(2, "little")]
        parts.extend(
            len(k.encode("utf-8")).to_bytes(1, "little") + k.encode("utf-8")
            for k in frame.keys
        )
        return _frame(FRAME_SUBSCRIBE, b"".join(parts))
    raise TypeError(f"not a wire frame: {type(frame).__name__}")


_KNOWN_FRAME_TYPES = frozenset(
    (
        FRAME_HELLO,
        FRAME_INTEREST_ANNOUNCEMENT,
        FRAME_RELAY_FILTER,
        FRAME_FILTER_REQUEST,
        FRAME_MESSAGE_BUNDLE,
        FRAME_SUBSCRIBE,
    )
)


def _decode_body(
    frame_type: int,
    body: bytes,
    family: HashFamily,
    initial_value: float,
    decay_factor: float,
    time: float,
) -> Frame:
    """Decode one validated-length frame body (raises on bad content)."""
    if frame_type == FRAME_MESSAGE_BUNDLE:
        if len(body) < 2:
            raise ValueError("truncated bundle count")
        count = int.from_bytes(body[:2], "little")
        messages: List[Message] = []
        payloads: List[bytes] = []
        cursor = 2
        for _ in range(count):
            message, payload, cursor = decode_message(body, cursor)
            messages.append(message)
            payloads.append(payload)
        return MessageBundle(tuple(messages), tuple(payloads))
    if frame_type == FRAME_HELLO:
        node_id, broker_flag, degree, timestamp = _HELLO_BODY.unpack(body)
        return Hello(node_id, bool(broker_flag), degree, timestamp)
    if frame_type == FRAME_INTEREST_ANNOUNCEMENT:
        return InterestAnnouncement(
            decode_tcbf(body, family, initial_value, decay_factor, time)
        )
    if frame_type == FRAME_RELAY_FILTER:
        return RelayFilter(
            decode_tcbf(body, family, initial_value, decay_factor, time)
        )
    if frame_type == FRAME_FILTER_REQUEST:
        return FilterRequest(decode_bloom(body, family))
    # FRAME_SUBSCRIBE
    if len(body) < 2:
        raise ValueError("truncated subscribe count")
    key_count = int.from_bytes(body[:2], "little")
    subscribe_keys: List[str] = []
    position = 2
    for _ in range(key_count):
        if position >= len(body):
            raise ValueError("truncated subscribe key block")
        length = body[position]
        position += 1
        if position + length > len(body):
            raise ValueError("truncated subscribe key")
        subscribe_keys.append(
            body[position : position + length].decode("utf-8")
        )
        position += length
    if position != len(body):
        raise ValueError(
            f"{len(body) - position} trailing bytes after subscribe keys"
        )
    return Subscribe(tuple(subscribe_keys))


#: FrameError reasons that mean "the tail might still be completed by
#: more bytes" — the incremental half of the decode contract.  Every
#: other reason is damage: more input cannot repair it.
RESUMABLE_REASONS = frozenset(("truncated_header", "truncated_body"))


def decode_frames(
    data: bytes,
    family: HashFamily,
    initial_value: float,
    decay_factor: float = 0.0,
    time: float = 0.0,
    max_body_len: Optional[int] = None,
) -> DecodeResult:
    """Decode a contact transcript back into frames — never raises.

    Parsing stops at the first problem: a trailing partial frame (the
    contact broke mid-transfer — received prefixes of a frame are
    useless), an unrecognised type byte, a declared body length running
    past the buffer (rejected *without* over-reading), or a body that
    fails structural validation.  Everything decoded before that point
    is returned; the problem itself is described by
    :attr:`DecodeResult.error` (``None`` for a clean parse).

    **Leftover-buffer contract (incremental decoding).**  The function
    is usable as a streaming decoder: ``consumed`` always lands on a
    frame boundary, so a receiver accumulating partial reads decodes
    its buffer, processes ``result.frames``, and carries
    ``buffer[result.consumed:]`` forward into the next read.  An error
    whose ``reason`` is in :data:`RESUMABLE_REASONS` (``truncated_header``
    / ``truncated_body``) is not damage in that setting — it merely
    marks where the undecoded tail begins — while any other reason is
    unrecoverable for a length-prefixed stream (there is no way to
    resynchronise past a lying header).  :class:`StreamDecoder` wraps
    this contract.

    ``max_body_len`` bounds the declared body length a caller is
    willing to buffer: a header declaring more is rejected as
    ``oversized_body`` (non-resumable) *before* any waiting-for-bytes,
    so a hostile 4 GiB length can never pin a session's memory.
    """
    frames: List[Frame] = []
    offset = 0
    error: Optional[FrameError] = None
    size = len(data)
    while offset < size:
        if offset + _FRAME_HEADER.size > size:
            error = FrameError(
                offset, None, "truncated_header",
                f"{size - offset} header bytes of {_FRAME_HEADER.size}",
            )
            break
        frame_type, body_len = _FRAME_HEADER.unpack_from(data, offset)
        if frame_type not in _KNOWN_FRAME_TYPES:
            error = FrameError(
                offset, frame_type, "unknown_frame_type",
                f"type byte {frame_type:#x}",
            )
            break
        if max_body_len is not None and body_len > max_body_len:
            error = FrameError(
                offset, frame_type, "oversized_body",
                f"declared {body_len} body bytes exceeds the "
                f"{max_body_len}-byte bound",
            )
            break
        start = offset + _FRAME_HEADER.size
        end = start + body_len
        if end > size:
            error = FrameError(
                offset, frame_type, "truncated_body",
                f"declared {body_len} body bytes, {size - start} remain",
            )
            break
        body = bytes(data[start:end])
        try:
            frame = _decode_body(
                frame_type, body, family, initial_value, decay_factor, time
            )
        except (ValueError, struct.error, IndexError, KeyError, OverflowError) as exc:
            error = FrameError(offset, frame_type, "bad_body", str(exc))
            break
        frames.append(frame)
        offset = end
    return DecodeResult(tuple(frames), error, offset)


class StreamDecoder:
    """Incremental frame decoder for a byte stream (one per session).

    Feed it the chunks a socket yields — split mid-frame, coalescing
    several frames, or one byte at a time — and it returns the frames
    completed so far, holding the unfinished tail in an internal
    buffer.  The contract mirrors :func:`decode_frames`:

    * ``feed(chunk)`` returns a :class:`DecodeResult` whose ``frames``
      are newly completed frames and whose ``error`` is ``None`` while
      the stream is merely mid-frame (resumable truncation is the
      *expected* steady state, not an error).
    * A non-resumable problem (unknown type byte, oversized declared
      length, a body failing validation) sets :attr:`fatal` and is
      returned as the result's ``error``; a length-prefixed stream
      cannot resynchronise past it, so the session must be dropped.
      Further ``feed`` calls return the same error and no frames.
    * ``pending`` exposes the buffered tail size; ``at_boundary`` is
      True when the stream currently sits exactly on a frame boundary
      (the clean-disconnect test: EOF mid-frame means the peer died
      mid-transfer).

    ``max_frame_bytes`` bounds both the declared body length *and* the
    buffered tail, so a peer can never grow the buffer past one
    maximum-size frame plus one chunk.
    """

    __slots__ = (
        "family", "initial_value", "decay_factor", "max_frame_bytes",
        "_buffer", "_fatal", "bytes_fed", "frames_decoded",
    )

    def __init__(
        self,
        family: HashFamily,
        initial_value: float,
        decay_factor: float = 0.0,
        max_frame_bytes: int = 1 << 20,
    ):
        if max_frame_bytes < 1:
            raise ValueError(
                f"max_frame_bytes must be >= 1, got {max_frame_bytes}"
            )
        self.family = family
        self.initial_value = initial_value
        self.decay_factor = decay_factor
        self.max_frame_bytes = max_frame_bytes
        self._buffer = b""
        self._fatal: Optional[FrameError] = None
        self.bytes_fed = 0
        self.frames_decoded = 0

    @property
    def fatal(self) -> Optional[FrameError]:
        """The unrecoverable error that poisoned the stream, if any."""
        return self._fatal

    @property
    def pending(self) -> int:
        """Bytes buffered waiting for the rest of a frame."""
        return len(self._buffer)

    @property
    def at_boundary(self) -> bool:
        """True when no partial frame is buffered (clean cut point)."""
        return not self._buffer and self._fatal is None

    def feed(self, chunk: bytes, time: float = 0.0) -> DecodeResult:
        """Absorb *chunk*; return the frames it completed.

        ``time`` is passed through to TCBF body decoding (the
        receiver's clock, for decay alignment).  Never raises.
        """
        if self._fatal is not None:
            return DecodeResult(frames=(), error=self._fatal, consumed=0)
        self.bytes_fed += len(chunk)
        data = self._buffer + chunk if self._buffer else chunk
        result = decode_frames(
            data,
            self.family,
            self.initial_value,
            self.decay_factor,
            time=time,
            max_body_len=self.max_frame_bytes,
        )
        self.frames_decoded += len(result.frames)
        error = result.error
        if error is not None and error.reason in RESUMABLE_REASONS:
            # Mid-frame is the steady state: keep the tail (as bytes,
            # whatever the chunk type), report no error, and wait.
            self._buffer = bytes(data[result.consumed:])
            return DecodeResult(result.frames, None, result.consumed)
        # A clean parse consumed everything; any other error is fatal.
        self._fatal = error
        self._buffer = b""
        return result
