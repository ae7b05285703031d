"""Tests for the exact (raw-string) interest relay and encoding mode."""

import pytest

from repro.pubsub.exact import (
    ExactInterestRelay,
    raw_interest_wire_bytes,
)


def relay(**kwargs):
    defaults = dict(initial_value=50.0, decay_factor=0.0, time=0.0)
    defaults.update(kwargs)
    return ExactInterestRelay(**defaults)


class TestWireBytes:
    def test_raw_size_formula(self):
        # 2 keys of 7 and 3 bytes, 2 B overhead each
        assert raw_interest_wire_bytes(["NewMoon", "abc"]) == 7 + 3 + 4

    def test_counters_add_one_byte_per_key(self):
        plain = raw_interest_wire_bytes(["a", "bb"])
        with_counters = raw_interest_wire_bytes(["a", "bb"], with_counters=True)
        assert with_counters == plain + 2

    def test_utf8_lengths(self):
        assert raw_interest_wire_bytes(["日本"]) == 6 + 2


class TestRelaySemantics:
    def test_announce_and_query(self):
        r = relay()
        r.announce(["NewMoon"])
        assert "NewMoon" in r
        assert r.min_counter("NewMoon") == 50.0
        assert "other" not in r

    def test_reinforcement_adds(self):
        r = relay()
        r.announce(["k"])
        r.announce(["k"])
        assert r.min_counter("k") == 100.0

    def test_decay_removes(self):
        r = relay(decay_factor=1.0)
        r.announce(["k"])
        r.advance(49.0)
        assert "k" in r
        r.advance(51.0)
        assert "k" not in r
        assert r.is_empty()

    def test_advance_backwards_raises(self):
        r = relay(time=10.0)
        with pytest.raises(ValueError, match="backwards"):
            r.advance(5.0)

    def test_m_merge_max(self):
        a, b = relay(), relay()
        a.announce(["k"])
        a.announce(["k"])  # 100
        b.announce(["k"])  # 50
        a.m_merge(b)
        assert a.min_counter("k") == 100.0
        b.m_merge(a)
        assert b.min_counter("k") == 100.0

    def test_a_merge_sum(self):
        a, b = relay(), relay()
        a.announce(["k"])
        b.announce(["k"])
        a.a_merge(b)
        assert a.min_counter("k") == 100.0

    def test_merge_aligns_clocks_and_decays(self):
        a = relay(decay_factor=1.0)
        a.announce(["x"])
        b = relay(decay_factor=1.0)
        b.advance(20.0)
        b.announce(["y"])
        a.m_merge(b)
        assert a.time == 20.0
        assert a.min_counter("x") == 30.0  # decayed while aligning
        assert a.min_counter("y") == 50.0

    def test_merge_decays_stale_operand(self):
        a = relay(decay_factor=1.0)
        a.advance(30.0)
        b = relay(decay_factor=1.0)
        b.announce(["y"])  # 50 at t=0 -> 20 at t=30
        a.m_merge(b)
        assert a.min_counter("y") == pytest.approx(20.0)

    def test_preference_rules(self):
        a, b = relay(), relay()
        a.announce(["k"])
        a.announce(["k"])
        b.announce(["k"])
        assert a.preference("k", b) == 50.0
        assert b.preference("k", a) == -50.0
        assert a.preference("k", relay()) == 100.0

    def test_copy_independent(self):
        a = relay()
        a.announce(["k"])
        clone = a.copy()
        clone.announce(["k"])
        assert a.min_counter("k") == 50.0

    def test_never_false_positive(self):
        """The whole point: exact matching has no collisions."""
        r = relay()
        r.announce([f"key-{i}" for i in range(1000)])
        assert all(f"probe-{i}" not in r for i in range(1000))

    def test_keys_and_items_sorted(self):
        r = relay()
        r.announce(["b", "a"])
        assert r.keys() == ["a", "b"]
        assert [k for k, _ in r.items()] == ["a", "b"]

    def test_validation(self):
        with pytest.raises(ValueError):
            relay(initial_value=0)
        with pytest.raises(ValueError):
            relay(decay_factor=-1)
        with pytest.raises(ValueError):
            relay().decay(-1)


class TestRawEncodingMode:
    @pytest.fixture(scope="class")
    def runs(self):
        from repro.api import ExperimentSpec, run
        from repro.traces.synthetic import haggle_like

        trace = haggle_like(scale=0.03, seed=20)
        base = dict(ttl_min=600.0, min_rate_per_s=1 / 3600.0)
        return {
            "tcbf": run(trace, ExperimentSpec(**base)),
            "raw": run(trace, ExperimentSpec(interest_encoding="raw", **base)),
        }

    def test_raw_mode_has_zero_false_positives(self, runs):
        assert runs["raw"].summary.false_positive_ratio == 0.0
        assert runs["raw"].summary.false_injection_ratio == 0.0

    def test_tcbf_mode_falsely_injects_with_crowded_filter(self):
        """The TCBF's cost: relay-filter false positives inject
        messages nobody wants (Sec. VI-B); exact strings never do.
        A 64-bit filter makes the collisions frequent enough to assert."""
        from repro.api import ExperimentSpec, run
        from repro.traces.synthetic import haggle_like

        trace = haggle_like(scale=0.03, seed=20)
        crowded = run(
            trace,
            ExperimentSpec(
                ttl_min=600.0, min_rate_per_s=1 / 3600.0,
                num_bits=64, num_hashes=4,
            ),
        )
        assert crowded.summary.num_injections > 0
        assert crowded.summary.false_injection_ratio > 0.0

    def test_comparable_delivery(self, runs):
        """Both encodings drive the same forwarding machinery."""
        tcbf = runs["tcbf"].summary.delivery_ratio
        raw = runs["raw"].summary.delivery_ratio
        assert raw == pytest.approx(tcbf, abs=0.15)

    def test_node_state_validation(self, family):
        from repro.pubsub.node import BsubNodeState

        with pytest.raises(ValueError, match="interest_encoding"):
            BsubNodeState(0, frozenset(), family, 50.0, 0.0, 3,
                          interest_encoding="morse")
        with pytest.raises(ValueError, match="only applies"):
            BsubNodeState(0, frozenset(), family, 50.0, 0.0, 3,
                          interest_encoding="raw", relay_fill_threshold=0.3)

    def test_config_validation(self):
        from repro.pubsub.protocol import BsubConfig

        with pytest.raises(ValueError, match="interest_encoding"):
            BsubConfig(interest_encoding="utf-7")
