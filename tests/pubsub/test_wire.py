"""Tests for the wire protocol frames."""

import dataclasses
import pickle
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter
from repro.core.hashing import HashFamily
from repro.core.tcbf import TemporalCountingBloomFilter
from repro.pubsub.messages import Message
from repro.pubsub.wire import (
    DecodeResult,
    FilterRequest,
    Hello,
    InterestAnnouncement,
    MessageBundle,
    RelayFilter,
    StreamDecoder,
    decode_frames,
    decode_message,
    encode_frame,
    encode_message,
)


def roundtrip(frames, family, initial_value=50.0):
    blob = b"".join(encode_frame(f) for f in frames)
    result = decode_frames(blob, family, initial_value)
    assert result.ok and result.consumed == len(blob)
    return result


class TestMessageCodec:
    def test_roundtrip_default_payload(self):
        m = Message.create("NewMoon", source=3, created_at=12.5, ttl_s=600.0,
                           size_bytes=42)
        data = encode_message(m)
        decoded, payload, offset = decode_message(data)
        assert decoded == m
        assert payload == bytes(42)
        assert offset == len(data)

    def test_roundtrip_real_payload(self):
        m = Message.create("k", 0, 0.0, 10.0, size_bytes=5)
        data = encode_message(m, b"hello")
        _, payload, _ = decode_message(data)
        assert payload == b"hello"

    def test_multi_key_roundtrip(self):
        m = Message.create(["alpha", "beta"], 0, 1.0, 10.0, size_bytes=3)
        decoded, _, _ = decode_message(encode_message(m))
        assert decoded.keys == frozenset({"alpha", "beta"})

    def test_payload_size_mismatch_rejected(self):
        m = Message.create("k", 0, 0.0, 10.0, size_bytes=5)
        with pytest.raises(ValueError, match="payload"):
            encode_message(m, b"toolongpayload")

    def test_id_preserved_not_reallocated(self):
        m = Message.create("k", 0, 0.0, 10.0)
        decoded, _, _ = decode_message(encode_message(m))
        assert decoded.id == m.id

    def test_truncated_payload_rejected(self):
        m = Message.create("k", 0, 0.0, 10.0, size_bytes=100)
        data = encode_message(m)[:-10]
        with pytest.raises(ValueError, match="truncated"):
            decode_message(data)

    def test_over_long_key_is_a_value_error(self):
        m = Message.create("k" * 300, 0, 0.0, 10.0, size_bytes=1)
        with pytest.raises(ValueError, match="255"):
            encode_message(m)
        bundle = MessageBundle((m,), (b"x",))
        for _ in range(2):  # a failed encode caches nothing
            with pytest.raises(ValueError, match="255"):
                encode_frame(bundle)

    def test_unicode_keys(self):
        m = Message.create("日本語トレンド", 0, 0.0, 10.0, size_bytes=1)
        decoded, _, _ = decode_message(encode_message(m))
        assert decoded.keys == m.keys


class TestFrames:
    def test_hello_roundtrip(self, family):
        frames = roundtrip([Hello(7, True, 42, 123.5)], family)
        assert isinstance(frames, DecodeResult)
        assert list(frames) == [Hello(7, True, 42, 123.5)]

    def test_interest_announcement_roundtrip(self, family):
        genuine = TemporalCountingBloomFilter.of(
            ["NewMoon", "Phillies"], family=family, initial_value=50
        )
        (frame,) = roundtrip([InterestAnnouncement(genuine)], family)
        assert isinstance(frame, InterestAnnouncement)
        assert "NewMoon" in frame.filter
        assert frame.filter.min_counter("NewMoon") == pytest.approx(50, rel=0.01)

    def test_relay_filter_roundtrip_preserves_counters(self, family):
        relay = TemporalCountingBloomFilter(family=family, initial_value=50)
        relay.a_merge(
            TemporalCountingBloomFilter.of(["a"], family=family, initial_value=50)
        )
        relay.a_merge(
            TemporalCountingBloomFilter.of(["a"], family=family, initial_value=50)
        )
        (frame,) = roundtrip([RelayFilter(relay)], family)
        assert frame.filter.min_counter("a") == pytest.approx(100, rel=0.05)

    def test_filter_request_roundtrip(self, family):
        bf = BloomFilter.of(["x", "y"], family=family)
        (frame,) = roundtrip([FilterRequest(bf)], family)
        assert frame.filter == bf

    def test_message_bundle_roundtrip(self, family):
        messages = tuple(
            Message.create(f"key-{i}", i, float(i), 100.0, size_bytes=10)
            for i in range(3)
        )
        bundle = MessageBundle(messages, tuple(bytes(10) for _ in range(3)))
        (frame,) = roundtrip([bundle], family)
        assert frame == bundle

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_clean_feed_leaves_the_stream_at_a_boundary(self, family, kind):
        m = Message.create("k", 0, 0.0, 10.0, size_bytes=3)
        frames = [Hello(1, False, 0, 0.0), MessageBundle((m,), (b"abc",))]
        data = b"".join(encode_frame(f) for f in frames)
        decoder = StreamDecoder(family, 50.0)
        result = decoder.feed(kind(data))
        assert result.ok and list(result) == frames
        assert decoder.pending == 0 and decoder.at_boundary
        assert list(decoder.feed(kind(data[:-4]))) == frames[:1]
        assert decoder.pending > 0 and not decoder.at_boundary
        result = decoder.feed(kind(data[-4:]))
        assert result.ok and list(result) == frames[1:]
        assert decoder.pending == 0 and decoder.at_boundary

    def test_bundle_length_mismatch_rejected(self):
        m = Message.create("k", 0, 0.0, 10.0)
        with pytest.raises(ValueError):
            MessageBundle((m,), ())

    def test_full_contact_transcript(self, family):
        """A realistic contact: hello, announcement, request, bundle."""
        genuine = TemporalCountingBloomFilter.of(
            ["NewMoon"], family=family, initial_value=50
        )
        request = FilterRequest(genuine.to_bloom())
        m = Message.create("NewMoon", 1, 5.0, 600.0, size_bytes=140)
        frames = [
            Hello(1, False, 12, 100.0),
            Hello(2, True, 30, 100.0),
            InterestAnnouncement(genuine),
            request,
            MessageBundle((m,), (bytes(140),)),
        ]
        decoded = roundtrip(frames, family)
        assert [type(f) for f in decoded] == [type(f) for f in frames]

    def test_truncated_transcript_drops_partial_frame(self, family):
        frames = [Hello(1, False, 3, 0.0), Hello(2, True, 5, 0.0)]
        blob = b"".join(encode_frame(f) for f in frames)
        decoded = decode_frames(blob[:-4], family, 50.0)  # cut mid-frame
        assert list(decoded) == [Hello(1, False, 3, 0.0)]
        assert not decoded.ok
        assert decoded.error.reason == "truncated_body"
        assert decoded.consumed == len(encode_frame(frames[0]))

    def test_unknown_frame_type_reported(self, family):
        blob = bytes([0xEE]) + (4).to_bytes(4, "little") + b"\x00" * 4
        result = decode_frames(blob, family, 50.0)
        assert list(result) == []
        assert result.error.reason == "unknown_frame_type"
        assert result.error.frame_type == 0xEE
        assert result.consumed == 0

    def test_declared_length_overrun_rejected(self, family):
        # Header declares a huge body; only a few bytes follow.  Must
        # be rejected as truncated_body without reading past the end.
        blob = bytes([0x10]) + (10_000).to_bytes(4, "little") + b"\x00" * 8
        result = decode_frames(blob, family, 50.0)
        assert list(result) == []
        assert result.error.reason == "truncated_body"

    def test_good_frames_before_corrupt_body_survive(self, family):
        good = encode_frame(Hello(1, False, 3, 0.0))
        # A valid header for an interest announcement with garbage body.
        bad = bytes([0x11]) + (3).to_bytes(4, "little") + b"\xff\xff\xff"
        result = decode_frames(good + bad, family, 50.0)
        assert list(result) == [Hello(1, False, 3, 0.0)]
        assert result.error.reason == "bad_body"
        assert result.consumed == len(good)

    def test_not_a_frame_rejected(self):
        with pytest.raises(TypeError, match="not a wire frame"):
            encode_frame("hello")


class TestSizeConsistency:
    """The byte sizes the simulator charges must match real encodings."""

    def test_interest_announcement_size_matches_charge(self, family):
        from repro.core.analysis import filter_memory_bytes
        from repro.pubsub.protocol import _FILTER_HEADER_BYTES

        genuine = TemporalCountingBloomFilter.of(
            [f"key-{i}" for i in range(5)], family=family, initial_value=50
        )
        real = len(encode_frame(InterestAnnouncement(genuine)))
        charged = _FILTER_HEADER_BYTES + filter_memory_bytes(
            len(genuine), 256, counters="identical"
        )
        assert abs(real - charged) <= 6  # frame header vs modelled header

    def test_relay_filter_size_matches_charge(self, family):
        from repro.core.analysis import filter_memory_bytes
        from repro.pubsub.protocol import _FILTER_HEADER_BYTES

        relay = TemporalCountingBloomFilter(family=family, initial_value=50)
        relay.a_merge(
            TemporalCountingBloomFilter.of(
                [f"k{i}" for i in range(12)], family=family, initial_value=50
            )
        )
        real = len(encode_frame(RelayFilter(relay)))
        charged = _FILTER_HEADER_BYTES + filter_memory_bytes(
            len(relay), 256, counters="full"
        )
        assert abs(real - charged) <= 6

    def test_message_size_dominated_by_payload(self):
        m = Message.create("NewMoon", 0, 0.0, 600.0, size_bytes=140)
        overhead = len(encode_message(m)) - 140
        assert overhead < 50  # header + key string


@given(
    node=st.integers(0, 2**31 - 1),
    broker=st.booleans(),
    degree=st.integers(0, 2**31 - 1),
    time=st.floats(0, 1e9),
)
@settings(max_examples=50)
def test_property_hello_roundtrip(node, broker, degree, time):
    fam = HashFamily(4, 256, seed=1)
    blob = encode_frame(Hello(node, broker, degree, time))
    (decoded,) = decode_frames(blob, fam, 50.0)
    assert decoded == Hello(node, broker, degree, time)


@given(
    keys=st.sets(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)),
            min_size=1,
            max_size=20,
        ),
        min_size=1,
        max_size=5,
    ),
    size=st.integers(1, 140),
)
@settings(max_examples=50)
def test_property_message_roundtrip(keys, size):
    m = Message.create(keys, source=1, created_at=2.0, ttl_s=60.0, size_bytes=size)
    decoded, payload, _ = decode_message(encode_message(m))
    assert decoded == m
    assert len(payload) == size


_bundle_messages = st.lists(
    st.builds(
        Message,
        id=st.integers(0, 2**64 - 1),
        keys=st.frozensets(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs",)),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=3,
        ),
        source=st.integers(0, 2**32 - 1),
        created_at=st.floats(allow_nan=False),
        ttl_s=st.floats(allow_nan=False),
        size_bytes=st.integers(0, 32),
    ),
    max_size=4,
)


def field_by_field(messages, payloads):
    """A bundle frame laid out by hand: type, body length, message
    count, then per message the ``<QIddBH`` header, each key (sorted by
    code point) behind its length byte, and the payload."""
    body = struct.pack("<H", len(messages))
    for message, payload in zip(messages, payloads):
        keys = sorted(message.keys)
        body += struct.pack(
            "<QIddBH", message.id, message.source, message.created_at,
            message.ttl_s, len(keys), len(payload),
        )
        for key in keys:
            raw = key.encode("utf-8")
            body += struct.pack("<B", len(raw)) + raw
        body += payload
    return struct.pack("<BI", 0x14, len(body)) + body


def _pinned(*key_sets):
    """Messages with the given key sets (one per message)."""
    return [
        Message(2**40 + i, frozenset(keys), 7 + i, 1.5 * i, 600.0, i + 1)
        for i, keys in enumerate(key_sets)
    ]


@given(messages=_bundle_messages)
@example(messages=_pinned(("NewMoon",)))
@example(messages=_pinned(("zebra", "日本語", "Ämter")))
@example(messages=_pinned(("b", "a"), ("NewMoon",)))
@example(messages=_pinned(("é", "e", "ß"), ("x",), ("日本語", "a")))
@example(messages=_pinned(("k1",), ("β", "α"), ("z", "y", "x"), ("ü",)))
@settings(max_examples=50)
def test_property_encoded_bundle_behaves_like_a_fresh_one(messages):
    def make():
        return MessageBundle(
            tuple(dataclasses.replace(m) for m in messages),
            tuple(bytes(range(m.size_bytes)) for m in messages),
        )

    bundle, fresh = make(), make()
    blob = encode_frame(bundle)
    assert bundle == fresh and hash(bundle) == hash(fresh)
    assert repr(bundle) == repr(fresh)
    assert pickle.dumps(bundle) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(bundle)) == fresh
    assert encode_frame(bundle) == encode_frame(fresh) == blob
    assert blob == field_by_field(bundle.messages, bundle.payloads)
    (decoded,) = decode_frames(blob, HashFamily(4, 256, seed=1), 50.0)
    assert decoded == bundle
