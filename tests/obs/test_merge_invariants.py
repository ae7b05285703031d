"""TCBF merge invariants — property-tested and observed via the tracer.

Two layers of the same paper claims (Sec. V-C, Fig. 6):

* **M-merge never amplifies**: the element-wise maximum of two filters
  cannot exceed either input's largest counter, which is why
  broker↔broker exchange uses M-merge — repeated A-merging between
  brokers would pump counters without bound (the Fig. 6 bogus-counter
  loop).
* **A-merge reinforcement is monotone**: additively merging an
  announcement can only raise counters, and a consumer announcement
  leaves every announced key's counter at >= C.

The ``TestTraceObserved*`` classes check the invariants over every
merge event of the instrumented mini Fig. 7 run; the hypothesis tests
check them directly on randomly built filters.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tcbf import TemporalCountingBloomFilter
from repro.experiments import ExperimentSpec

from .conftest import MINI_FIG7_CONFIG

KEYS = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=4),
    min_size=0,
    max_size=8,
)


def make_filter(keys, seed=11):
    return TemporalCountingBloomFilter.of(
        keys, num_bits=32, num_hashes=2, seed=seed
    )


class TestMMergeProperties:
    @given(KEYS, KEYS)
    @settings(max_examples=50, deadline=None)
    def test_m_merge_is_elementwise_max(self, keys_a, keys_b):
        # counters() is a {bit position: counter value} snapshot.
        a, b = make_filter(keys_a), make_filter(keys_b)
        merged = a.m_merged(b)
        for position in set(a.counters()) | set(b.counters()):
            assert merged.counter(position) == max(
                a.counter(position), b.counter(position)
            )

    @given(KEYS, KEYS)
    @settings(max_examples=50, deadline=None)
    def test_m_merge_never_amplifies_above_inputs(self, keys_a, keys_b):
        a, b = make_filter(keys_a), make_filter(keys_b)
        merged = a.m_merged(b)
        ceiling = max(
            max(a.counters().values(), default=0),
            max(b.counters().values(), default=0),
        )
        assert max(merged.counters().values(), default=0) <= ceiling

    @given(KEYS)
    @settings(max_examples=50, deadline=None)
    def test_m_merge_idempotent(self, keys):
        a = make_filter(keys)
        assert dict(a.m_merged(a).counters()) == dict(a.counters())


class TestAMergeProperties:
    @given(KEYS, KEYS)
    @settings(max_examples=50, deadline=None)
    def test_a_merge_is_elementwise_sum(self, keys_a, keys_b):
        a, b = make_filter(keys_a), make_filter(keys_b)
        merged = a.a_merged(b)
        for position in set(a.counters()) | set(b.counters()):
            assert merged.counter(position) == pytest.approx(
                a.counter(position) + b.counter(position)
            )

    @given(KEYS, KEYS)
    @settings(max_examples=50, deadline=None)
    def test_a_merge_monotone_per_key(self, keys_a, keys_b):
        a, b = make_filter(keys_a), make_filter(keys_b)
        merged = a.a_merged(b)
        for key in keys_a:
            assert merged.min_counter(key) >= a.min_counter(key)


class TestFig6BogusCounterContrast:
    def test_repeated_a_merge_amplifies_but_m_merge_does_not(self):
        # The Fig. 6 scenario distilled: two brokers exchanging the
        # same announcement over and over.  A-merging pumps the
        # counter by C per exchange; M-merging pins it at C.
        announcement = make_filter(["news"])
        c = announcement.initial_value
        additive = make_filter(["news"])
        maximum = make_filter(["news"])
        for _ in range(5):
            additive = additive.a_merged(announcement)
            maximum = maximum.m_merged(announcement)
        assert additive.min_counter("news") == pytest.approx(6 * c)
        assert maximum.min_counter("news") == pytest.approx(c)


class TestTraceObservedMergeInvariants:
    def test_m_merge_events_never_amplify(self, mini_fig7):
        obs, _ = mini_fig7
        events = obs.tracer.events_of("m_merge")
        assert events, "mini run produced no broker<->broker M-merges"
        for event in events:
            f = event.fields
            assert f["max_after"] <= max(f["max_before"], f["max_peer"]) + 1e-9
            assert f["max_after"] >= f["max_before"] - 1e-9

    def test_a_merge_events_monotone_and_reinforce_to_c(self, mini_fig7):
        obs, _ = mini_fig7
        initial_value = ExperimentSpec(**MINI_FIG7_CONFIG).initial_value
        events = obs.tracer.events_of("a_merge")
        assert events, "mini run produced no consumer announcements"
        for event in events:
            f = event.fields
            assert f["max_after"] >= f["max_before"] - 1e-9
            if f["kind"] == "consumer" and f["num_keys"] > 0:
                assert f["min_key_counter_after"] >= initial_value - 1e-9

    def test_decay_tick_events_only_clear_bits(self, mini_fig7):
        obs, _ = mini_fig7
        events = obs.tracer.events_of("decay_tick")
        assert events
        for event in events:
            f = event.fields
            assert f["dt"] > 0.0
            assert f["df"] > 0.0
            assert 0 <= f["set_bits_after"] <= f["set_bits_before"]


class TestTraceMatchesSummary:
    """The event trace and the MetricsSummary must tell one story."""

    def test_forward_events_match_forwarding_count(self, mini_fig7):
        obs, result = mini_fig7
        assert len(obs.tracer.events_of("forward")) == (
            result.summary.num_forwardings
        )

    def test_delivery_events_match_delivery_records(self, mini_fig7):
        obs, result = mini_fig7
        deliveries = obs.tracer.events_of("delivery")
        assert len(deliveries) == result.summary.num_deliveries
        false = sum(1 for e in deliveries if not e.fields["intended"])
        assert false == result.summary.num_false_deliveries

    def test_false_injection_events_match_count(self, mini_fig7):
        obs, result = mini_fig7
        assert len(obs.tracer.events_of("false_injection")) == (
            result.summary.num_false_injections
        )

    def test_contact_events_match_engine_count(self, mini_fig7):
        obs, result = mini_fig7
        assert len(obs.tracer.events_of("contact")) == (
            result.engine.num_contacts
        )

    def test_forward_kinds_partition(self, mini_fig7):
        obs, _ = mini_fig7
        kinds = {e.fields["kind"] for e in obs.tracer.events_of("forward")}
        assert kinds <= {"direct", "inject", "relay"}
        for event in obs.tracer.events_of("forward"):
            if event.fields["kind"] == "relay":
                assert "pref" in event.fields
