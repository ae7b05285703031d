"""Tests for the TCBFCollection merge interface (Sec. VI-D in the protocol)."""

import pytest

from repro.core.allocation import TCBFCollection
from repro.core.hashing import HashFamily
from repro.core.tcbf import TemporalCountingBloomFilter


@pytest.fixture
def family():
    return HashFamily(4, 64, seed=41)


def announcement(family, keys, value=50.0, time=0.0):
    return TemporalCountingBloomFilter.of(
        keys, family=family, initial_value=value, time=time
    )


def collection(family, threshold=0.5, **kwargs):
    return TCBFCollection(
        fill_ratio_threshold=threshold,
        family=family,
        initial_value=50.0,
        **kwargs,
    )


class TestAMerge:
    def test_a_merge_into_current(self, family):
        coll = collection(family)
        coll.a_merge(announcement(family, ["a"]))
        assert "a" in coll
        assert coll.min_counter("a") == 50.0

    def test_a_merge_reinforces(self, family):
        coll = collection(family)
        coll.a_merge(announcement(family, ["a"]))
        coll.a_merge(announcement(family, ["a"]))
        assert coll.min_counter("a") == 100.0

    def test_a_merge_allocates_when_full(self, family):
        coll = collection(family, threshold=0.15)
        for i in range(12):
            coll.a_merge(announcement(family, [f"key-{i}"]))
        assert coll.num_filters > 1
        assert all(f"key-{i}" in coll for i in range(12))

    def test_a_merge_respects_cap(self, family):
        coll = collection(family, threshold=0.05, max_filters=2)
        for i in range(20):
            coll.a_merge(announcement(family, [f"key-{i}"]))
        assert coll.num_filters == 2

    def test_a_merge_accepts_collection(self, family):
        source = collection(family, threshold=0.15)
        for i in range(10):
            source.a_merge(announcement(family, [f"key-{i}"]))
        target = collection(family, threshold=0.15)
        target.a_merge(source)
        assert all(f"key-{i}" in target for i in range(10))


class TestMMerge:
    def test_m_merge_takes_max(self, family):
        coll = collection(family)
        coll.a_merge(announcement(family, ["a"]))
        coll.a_merge(announcement(family, ["a"]))  # counters 100
        peer = announcement(family, ["a"], value=60.0)
        coll.m_merge(peer)
        assert coll.min_counter("a") == 100.0  # max kept

    def test_m_merge_imports_unknown_keys(self, family):
        coll = collection(family)
        coll.m_merge(announcement(family, ["fresh"]))
        assert "fresh" in coll

    def test_m_merge_collection_merges_each_filter(self, family):
        peer = collection(family, threshold=0.1)
        for i in range(10):
            peer.a_merge(announcement(family, [f"key-{i}"]))
        assert peer.num_filters > 1
        coll = collection(family, threshold=0.1)
        coll.m_merge(peer)
        assert all(f"key-{i}" in coll for i in range(10))

    def test_m_merge_skips_empty_filters(self, family):
        peer = collection(family)
        coll = collection(family)
        coll.m_merge(peer)  # peer is empty
        assert coll.is_empty()


class TestRelayInterface:
    def test_preference_matches_single_filter_semantics(self, family):
        a = collection(family)
        b = collection(family)
        a.a_merge(announcement(family, ["k"]))
        a.a_merge(announcement(family, ["k"]))
        b.a_merge(announcement(family, ["k"]))
        assert a.preference("k", b) == 50.0
        assert b.preference("k", a) == -50.0

    def test_preference_when_other_empty(self, family):
        a = collection(family)
        a.a_merge(announcement(family, ["k"]))
        assert a.preference("k", collection(family)) == 50.0

    def test_copy_is_deep(self, family):
        coll = collection(family)
        coll.a_merge(announcement(family, ["k"]))
        clone = coll.copy()
        clone.a_merge(announcement(family, ["k"]))
        assert coll.min_counter("k") == 50.0
        assert clone.min_counter("k") == 100.0

    def test_time_and_advance(self, family):
        coll = collection(family, decay_factor=1.0)
        coll.a_merge(announcement(family, ["k"]))
        assert coll.time == 0.0
        coll.advance(10.0)
        assert coll.time == 10.0
        assert coll.min_counter("k") == 40.0

    def test_is_empty(self, family):
        coll = collection(family)
        assert coll.is_empty()
        coll.a_merge(announcement(family, ["k"]))
        assert not coll.is_empty()


class TestProtocolIntegration:
    def test_bsub_runs_with_multi_filter_relays(self):
        from repro.api import ExperimentSpec, run
        from repro.traces.synthetic import haggle_like

        trace = haggle_like(scale=0.02, seed=9)
        single = run(
            trace, ExperimentSpec(ttl_min=300, min_rate_per_s=1 / 7200.0)
        )
        multi = run(
            trace,
            ExperimentSpec(
                ttl_min=300,
                min_rate_per_s=1 / 7200.0,
                relay_fill_threshold=0.25,
                relay_max_filters=4,
            ),
        )
        assert multi.summary.num_messages == single.summary.num_messages
        # multi-filter relays must not collapse delivery
        assert (
            multi.summary.num_intended_deliveries
            >= 0.5 * single.summary.num_intended_deliveries
        )

    def test_node_state_builds_collection_relay(self, family):
        from repro.pubsub.node import BsubNodeState

        state = BsubNodeState(
            node_id=0,
            interests=frozenset({"a"}),
            family=family,
            initial_value=50.0,
            decay_factor=0.0,
            copy_limit=3,
            relay_fill_threshold=0.3,
            relay_max_filters=3,
        )
        assert isinstance(state.relay, TCBFCollection)
        assert state.relay.max_filters == 3
