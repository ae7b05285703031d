"""Property test: the dict and array backends are observationally equal.

The array backend is a pure storage swap — both backends perform the
same IEEE-754 arithmetic per position, so after *any* sequence of
operations the two must agree exactly (not approximately) on counters,
queries, and equality.  Hypothesis drives random op sequences over a
dict-backed and an array-backed twin and compares them after every op.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import (
    BACKENDS,
    default_backend,
    make_bit_store,
    make_counter_store,
    resolve_backend,
)
from repro.core.bloom import BloomFilter
from repro.core.counting_bloom import CountingBloomFilter
from repro.core.hashing import HashFamily
from repro.core.tcbf import TemporalCountingBloomFilter

FAMILY = HashFamily(4, 128, seed=77)
KEYS = [f"topic-{i}" for i in range(24)]

keys_st = st.lists(st.sampled_from(KEYS), min_size=0, max_size=6)

# One random TCBF operation: (op-name, payload).
tcbf_op = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(KEYS)),
    st.tuples(st.just("insert_batch"), keys_st),
    st.tuples(st.just("refresh"), st.sampled_from(KEYS)),
    st.tuples(st.just("decay"), st.floats(0.0, 30.0, allow_nan=False)),
    st.tuples(st.just("advance"), st.floats(0.0, 10.0, allow_nan=False)),
    st.tuples(st.just("a_merge"), keys_st),
    st.tuples(st.just("m_merge"), keys_st),
)


def _apply(filters, op, payload, merge_time):
    """Apply one op to every twin, keeping their public state in lockstep."""
    for f in filters:
        if op == "insert":
            if not f.merged:
                f.insert(payload)
        elif op == "insert_batch":
            if not f.merged:
                f.insert_batch(payload)
        elif op == "refresh":
            if not f.merged:
                f.refresh(payload)
        elif op == "decay":
            f.decay(payload)
        elif op == "advance":
            f.advance(f.time + payload)
        elif op in ("a_merge", "m_merge"):
            operand = TemporalCountingBloomFilter.of(
                payload,
                family=FAMILY,
                initial_value=f.initial_value,
                decay_factor=1.5,
                time=merge_time,
                backend=f.backend,
            )
            getattr(f, op)(operand)
        else:  # pragma: no cover - strategy and dispatch must stay in sync
            raise AssertionError(op)


def _assert_tcbf_twins_agree(d, a):
    assert d.counters() == a.counters()
    assert d.time == a.time
    assert d.merged == a.merged
    assert d == a
    hits_d = d.query_batch(KEYS)
    hits_a = a.query_batch(KEYS)
    assert np.array_equal(hits_d, hits_a)
    mins_d = d.min_counter_batch(KEYS)
    mins_a = a.min_counter_batch(KEYS)
    assert np.array_equal(mins_d, mins_a)  # exact, not approx
    for key in KEYS[:6]:
        assert d.query(key) == a.query(key)
        assert d.min_counter(key) == a.min_counter(key)
        assert bool(hits_d[KEYS.index(key)]) == d.query(key)
        assert mins_d[KEYS.index(key)] == d.min_counter(key)
    assert len(d) == len(a) == len(d.counters())
    assert d.is_empty() == a.is_empty() == (len(d) == 0)
    assert d.fill_ratio() == a.fill_ratio()
    for twin in (d, a):
        _assert_copy_is_equal_and_independent(twin)


def _assert_copy_is_equal_and_independent(original):
    clone = original.copy()
    assert type(clone) is type(original)
    assert clone == original
    assert clone.counters() == original.counters()
    assert (clone.time, clone.merged, clone.backend, clone.version) == (
        original.time, original.merged, original.backend, original.version
    )
    before = (original.counters(), original.merged, original.version)
    # A-merge always adds C at the operand's bits, so the clone changes.
    clone.a_merge(
        TemporalCountingBloomFilter.of(
            KEYS[:3], family=FAMILY, time=clone.time, backend=clone.backend
        )
    )
    assert clone.counters() != before[0]
    assert clone.merged
    assert (original.counters(), original.merged, original.version) == before


@given(
    ops=st.lists(tcbf_op, min_size=1, max_size=25),
    offsets=st.lists(
        st.floats(-60.0, 12.0, allow_nan=False), min_size=25, max_size=25
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_tcbf_backends_agree_over_random_ops(ops, offsets):
    """Merge operands run up to 12 s ahead of the filter or up to 60 s
    behind it; behind, their counters lose up to 90 (DF 1.5) on the way
    in, more than C, so every clamp of the array merge kernels runs."""
    twins = [
        TemporalCountingBloomFilter(
            family=FAMILY, initial_value=50.0, decay_factor=1.0, backend=backend
        )
        for backend in BACKENDS
    ]
    d, a = twins
    for (op, payload), offset in zip(ops, offsets):
        _apply(twins, op, payload, merge_time=d.time + offset)
        _assert_tcbf_twins_agree(d, a)


@given(
    inserts=st.lists(st.sampled_from(KEYS), min_size=0, max_size=30),
    deletes=st.lists(st.sampled_from(KEYS), min_size=0, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_property_cbf_backends_agree(inserts, deletes):
    twins = [CountingBloomFilter(family=FAMILY, backend=b) for b in BACKENDS]
    for f in twins:
        f.insert_all(inserts)
    for key in deletes:
        outcomes = []
        for f in twins:
            try:
                f.delete(key)
                outcomes.append("ok")
            except KeyError:
                outcomes.append("missing")
        assert outcomes[0] == outcomes[1]
    d, a = twins
    assert d.counters() == a.counters()
    assert d == a
    assert np.array_equal(d.query_batch(KEYS), a.query_batch(KEYS))
    assert np.array_equal(d.min_counter_batch(KEYS), a.min_counter_batch(KEYS))


@given(
    inserts=st.lists(st.sampled_from(KEYS), min_size=0, max_size=30),
    merged=st.lists(st.sampled_from(KEYS), min_size=0, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_property_bloom_backends_agree(inserts, merged):
    twins = [BloomFilter(family=FAMILY, backend=b) for b in BACKENDS]
    for f in twins:
        f.insert_batch(inserts)
        f.merge(BloomFilter.of(merged, family=FAMILY, backend=f.backend))
    d, a = twins
    assert d.set_bits == a.set_bits
    assert d == a
    assert np.array_equal(d.query_batch(KEYS), a.query_batch(KEYS))


class TestBackendSelection:
    def test_default_is_array(self, monkeypatch):
        monkeypatch.delenv("BSUB_FILTER_BACKEND", raising=False)
        assert default_backend() == "array"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("BSUB_FILTER_BACKEND", "dict")
        assert default_backend() == "dict"
        assert TemporalCountingBloomFilter(family=FAMILY).backend == "dict"

    def test_explicit_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("BSUB_FILTER_BACKEND", "dict")
        f = TemporalCountingBloomFilter(family=FAMILY, backend="array")
        assert f.backend == "array"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("sqlite")
        with pytest.raises(ValueError, match="backend"):
            TemporalCountingBloomFilter(family=FAMILY, backend="sqlite")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("BSUB_FILTER_BACKEND", "nonsense")
        with pytest.raises(ValueError, match="BSUB_FILTER_BACKEND"):
            default_backend()

    def test_store_factories_cover_both_backends(self):
        for backend in BACKENDS:
            assert make_counter_store(backend, 64).is_empty()
            assert make_counter_store(backend, 64, integer=True).is_empty()
            assert make_bit_store(backend, 64).is_empty()

    def test_copies_preserve_backend(self):
        for backend in BACKENDS:
            f = TemporalCountingBloomFilter(family=FAMILY, backend=backend)
            f.insert("topic-0")
            assert f.copy().backend == backend
            assert f.to_bloom().backend == backend


def test_serialization_roundtrips_across_backends():
    """A filter encoded under one backend decodes identically under the
    other — the wire format is backend-agnostic."""
    from repro.core.serialization import decode_tcbf, encode_tcbf

    source = TemporalCountingBloomFilter(
        family=FAMILY, initial_value=50.0, decay_factor=1.0, backend="dict"
    )
    source.insert_batch(KEYS[:8])
    source.advance(7.25)
    blob = encode_tcbf(source)
    decoded = {
        backend: decode_tcbf(
            blob, family=FAMILY, initial_value=50.0, backend=backend
        )
        for backend in BACKENDS
    }
    assert decoded["dict"].counters() == decoded["array"].counters()
    assert decoded["array"].counters() == pytest.approx(
        source.counters(), abs=0.5
    )
