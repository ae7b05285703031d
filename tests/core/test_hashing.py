"""Tests for the hash-function family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import DEFAULT_SEED, HashFamily


class TestConstruction:
    def test_defaults_match_requested_geometry(self):
        fam = HashFamily(4, 256)
        assert fam.num_hashes == 4
        assert fam.num_bits == 256
        assert fam.seed == DEFAULT_SEED

    def test_rejects_zero_hashes(self):
        with pytest.raises(ValueError, match="num_hashes"):
            HashFamily(0, 256)

    def test_rejects_degenerate_bit_vector(self):
        with pytest.raises(ValueError, match="num_bits"):
            HashFamily(4, 1)

    def test_repr_mentions_geometry(self):
        assert "num_hashes=4" in repr(HashFamily(4, 256))


class TestPositions:
    def test_positions_in_range(self):
        fam = HashFamily(4, 256)
        for key in ("NewMoon", "a", "", "日本語"):
            for p in fam.positions(key):
                assert 0 <= p < 256

    def test_position_count_equals_num_hashes(self):
        fam = HashFamily(7, 512)
        assert len(fam.positions("key")) == 7

    def test_deterministic(self):
        fam = HashFamily(4, 256, seed=5)
        assert fam.positions("NewMoon") == fam.positions("NewMoon")

    def test_two_instances_same_seed_agree(self):
        a = HashFamily(4, 256, seed=5)
        b = HashFamily(4, 256, seed=5)
        assert a.positions("key") == b.positions("key")

    def test_different_seeds_differ_somewhere(self):
        a = HashFamily(4, 4096, seed=1)
        b = HashFamily(4, 4096, seed=2)
        keys = [f"key-{i}" for i in range(50)]
        assert any(a.positions(k) != b.positions(k) for k in keys)

    def test_different_keys_differ_somewhere(self):
        fam = HashFamily(4, 4096)
        assert fam.positions("alpha") != fam.positions("beta")

    def test_distinct_positions_sorted_unique(self):
        fam = HashFamily(8, 8, seed=3)  # tiny m forces repeats
        distinct = fam.distinct_positions("x")
        assert distinct == sorted(set(distinct))

    def test_positions_for_preserves_order(self):
        fam = HashFamily(4, 256)
        keys = ["a", "b", "c"]
        batched = fam.positions_for(keys)
        assert batched == [fam.positions(k) for k in keys]

    def test_cache_returns_fresh_list(self):
        fam = HashFamily(4, 256)
        first = fam.positions("key")
        first.append(-1)  # mutating the returned list must not poison the cache
        assert fam.positions("key") != first
        assert all(0 <= p < 256 for p in fam.positions("key"))


class TestPositionsBatch:
    def test_rows_match_scalar_positions(self):
        fam = HashFamily(4, 256, seed=11)
        keys = ["a", "b", "", "日本語", "a"]  # duplicates allowed
        batch = fam.positions_batch(keys)
        assert batch.shape == (5, 4)
        for row, key in zip(batch, keys):
            assert row.tolist() == fam.positions(key)

    def test_mixed_cached_and_uncached(self):
        fam = HashFamily(4, 512, seed=3)
        fam.positions("warm")  # pre-populate the cache
        batch = fam.positions_batch(["cold-1", "warm", "cold-2"])
        assert batch[1].tolist() == fam.positions("warm")
        assert batch[0].tolist() == fam.positions("cold-1")
        assert batch[2].tolist() == fam.positions("cold-2")

    def test_cache_returns_fresh_matrix(self):
        fam = HashFamily(4, 256)
        keys = ["key", "other", "key"]
        fam.positions_batch(keys)  # every key is cached from here on
        first = fam.positions_batch(keys)
        expected = first.copy()
        first[:] = -1  # writing into the result must not poison the cache
        assert np.array_equal(fam.positions_batch(keys), expected)
        assert fam.positions("key") == expected[0].tolist()

    def test_empty_batch(self):
        fam = HashFamily(4, 256)
        batch = fam.positions_batch([])
        assert batch.shape == (0, 4)

    def test_batch_matches_across_instances(self):
        a = HashFamily(6, 1 << 20, seed=42)
        b = HashFamily(6, 1 << 20, seed=42)
        keys = [f"key-{i}" for i in range(100)]
        scalar = np.array([b.positions(k) for k in keys])
        assert np.array_equal(a.positions_batch(keys), scalar)

    def test_positions_in_range_for_odd_m(self):
        fam = HashFamily(5, 997)  # non-power-of-two m
        batch = fam.positions_batch([f"k{i}" for i in range(64)])
        assert batch.min() >= 0
        assert batch.max() < 997


class TestCacheEviction:
    def test_cache_never_exceeds_limit(self, monkeypatch):
        monkeypatch.setattr(HashFamily, "_CACHE_LIMIT", 8)
        fam = HashFamily(4, 256)
        for i in range(50):
            fam.positions(f"key-{i}")
        assert len(fam._cache) == 8

    def test_cache_keeps_accepting_new_keys_when_full(self, monkeypatch):
        """The pre-fix behaviour froze the cache at the limit: new keys
        were recomputed forever.  Now the newest key is always cached."""
        monkeypatch.setattr(HashFamily, "_CACHE_LIMIT", 4)
        fam = HashFamily(4, 256)
        for i in range(10):
            fam.positions(f"key-{i}")
        assert "key-9" in fam._cache

    def test_eviction_is_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(HashFamily, "_CACHE_LIMIT", 3)
        fam = HashFamily(4, 256)
        fam.positions("a")
        fam.positions("b")
        fam.positions("c")
        fam.positions("a")  # refresh 'a' -> 'b' is now the LRU entry
        fam.positions("d")  # evicts 'b'
        assert set(fam._cache) == {"a", "c", "d"}

    def test_batch_hits_do_not_refresh_recency(self, monkeypatch):
        monkeypatch.setattr(HashFamily, "_CACHE_LIMIT", 2)
        fam = HashFamily(4, 256)
        fam.positions("a")
        fam.positions("b")
        fam.positions_batch(["a"])  # all-cached gather: 'a' stays the LRU
        fam.positions("c")  # evicts 'a'
        assert set(fam._cache) == {"b", "c"}

    def test_batch_populates_cache_with_eviction(self, monkeypatch):
        monkeypatch.setattr(HashFamily, "_CACHE_LIMIT", 4)
        fam = HashFamily(4, 256)
        fam.positions_batch([f"key-{i}" for i in range(10)])
        assert len(fam._cache) == 4
        assert "key-9" in fam._cache

    def test_evicted_key_recomputes_identically(self, monkeypatch):
        monkeypatch.setattr(HashFamily, "_CACHE_LIMIT", 2)
        fam = HashFamily(4, 256)
        first = fam.positions("victim")
        for i in range(5):
            fam.positions(f"filler-{i}")
        assert "victim" not in fam._cache
        assert fam.positions("victim") == first


class TestCompatibility:
    def test_compatible_with_same_parameters(self):
        assert HashFamily(4, 256, 1).compatible_with(HashFamily(4, 256, 1))

    @pytest.mark.parametrize(
        "other",
        [HashFamily(3, 256, 1), HashFamily(4, 128, 1), HashFamily(4, 256, 2)],
    )
    def test_incompatible_when_any_parameter_differs(self, other):
        assert not HashFamily(4, 256, 1).compatible_with(other)

    def test_equality_and_hash(self):
        a, b = HashFamily(4, 256, 1), HashFamily(4, 256, 1)
        assert a == b
        assert hash(a) == hash(b)

    def test_spawn_changes_only_num_bits(self):
        fam = HashFamily(4, 256, seed=9)
        spawned = fam.spawn(1024)
        assert spawned.num_bits == 1024
        assert spawned.num_hashes == 4
        assert spawned.seed == 9


class TestDistribution:
    def test_positions_spread_over_vector(self):
        """Hashing many keys should touch a large share of a 256-bit vector."""
        fam = HashFamily(4, 256)
        touched = set()
        for i in range(200):
            touched.update(fam.positions(f"key-{i}"))
        assert len(touched) > 200  # near-uniform coverage

    def test_approximate_uniformity(self):
        """Per-bit hit counts should be within a loose factor of the mean."""
        fam = HashFamily(4, 64)
        counts = [0] * 64
        for i in range(2000):
            for p in fam.positions(f"uniform-{i}"):
                counts[p] += 1
        mean = sum(counts) / len(counts)
        assert all(0.5 * mean < c < 1.5 * mean for c in counts)


@given(key=st.text(max_size=40), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_property_positions_valid_for_any_key(key, seed):
    fam = HashFamily(4, 256, seed=seed)
    positions = fam.positions(key)
    assert len(positions) == 4
    assert all(0 <= p < 256 for p in positions)


@given(key=st.text(min_size=1, max_size=20))
@settings(max_examples=40)
def test_property_determinism_across_instances(key):
    assert HashFamily(4, 128, 3).positions(key) == HashFamily(4, 128, 3).positions(key)
