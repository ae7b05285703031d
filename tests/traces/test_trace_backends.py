"""Property tests: the object, columnar, and mmap backends are equal.

The columnar and mmap backends are pure storage swaps — same contacts,
same order, same derived views — so after any construction and any
sequence of trace transforms all three must agree exactly.  Hypothesis
generates random contact sets and drives the backends in lockstep; a
final test replays all of them through the simulator and compares the
reports.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtn import PassiveProtocol, Simulation
from repro.traces import ContactTrace
from repro.traces.backends import (
    TRACE_BACKEND_ENV_VAR,
    TRACE_BACKENDS,
    default_trace_backend,
    resolve_trace_backend,
)
from repro.traces.model import Contact

contact_st = st.builds(
    Contact.make,
    start=st.floats(0.0, 5_000.0, allow_nan=False, allow_infinity=False),
    duration=st.floats(0.5, 600.0, allow_nan=False, allow_infinity=False),
    a=st.integers(0, 11),
    b=st.integers(12, 23),
)

contacts_st = st.lists(contact_st, min_size=0, max_size=40)


def _twins(contacts):
    """One trace per backend, in TRACE_BACKENDS order."""
    return tuple(
        ContactTrace(contacts, name="twin", backend=backend)
        for backend in TRACE_BACKENDS
    )


def _assert_traces_agree(obj, *others):
    for other in others:
        assert obj.num_contacts == other.num_contacts
        assert obj.nodes == other.nodes
        assert obj.start_time == other.start_time
        assert obj.end_time == other.end_time
        assert list(obj) == list(other)


class TestBackendSelection:
    def test_registry(self):
        assert set(TRACE_BACKENDS) == {"object", "columnar", "mmap"}

    def test_default_is_columnar(self, monkeypatch):
        monkeypatch.delenv(TRACE_BACKEND_ENV_VAR, raising=False)
        assert default_trace_backend() == "columnar"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(TRACE_BACKEND_ENV_VAR, "object")
        assert default_trace_backend() == "object"
        assert ContactTrace([]).backend == "object"

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(TRACE_BACKEND_ENV_VAR, "sqlite")
        with pytest.raises(ValueError, match="sqlite"):
            default_trace_backend()

    def test_bad_explicit_backend_rejected(self):
        with pytest.raises(ValueError, match="parquet"):
            resolve_trace_backend("parquet")

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(TRACE_BACKEND_ENV_VAR, "object")
        assert ContactTrace([], backend="columnar").backend == "columnar"


class TestEquivalence:
    @given(contacts=contacts_st)
    @settings(max_examples=60, deadline=None)
    def test_same_contacts_and_metadata(self, contacts):
        obj, col, mm = _twins(contacts)
        _assert_traces_agree(obj, col, mm)

    @given(contacts=contacts_st)
    @settings(max_examples=60, deadline=None)
    def test_materialised_rows_are_plain_contacts(self, contacts):
        _, col, mm = _twins(contacts)
        for trace in (col, mm):
            for contact in trace:
                assert type(contact) is Contact
                assert type(contact.start) is float
                assert type(contact.duration) is float
                assert type(contact.a) is int
                assert type(contact.b) is int

    @given(
        contacts=contacts_st,
        lo=st.floats(0.0, 5_000.0, allow_nan=False),
        span=st.floats(0.0, 5_000.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_slices_agree(self, contacts, lo, span):
        obj, col, mm = _twins(contacts)
        _assert_traces_agree(
            obj.slice(lo, lo + span),
            col.slice(lo, lo + span),
            mm.slice(lo, lo + span),
        )
        _assert_traces_agree(obj.first_days(span / 86_400.0),
                             col.first_days(span / 86_400.0),
                             mm.first_days(span / 86_400.0))

    @given(
        contacts=contacts_st,
        offset=st.floats(-100.0, 100.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_and_indexing_agree(self, contacts, offset):
        obj, col, mm = _twins(contacts)
        _assert_traces_agree(
            obj.shifted(offset), col.shifted(offset), mm.shifted(offset)
        )
        for i in range(-len(obj.contacts), len(obj.contacts)):
            assert obj.contacts[i] == col.contacts[i]
            assert obj.contacts[i] == mm.contacts[i]

    @given(contacts=contacts_st, node=st.integers(0, 23))
    @settings(max_examples=60, deadline=None)
    def test_per_node_views_agree(self, contacts, node):
        obj, col, mm = _twins(contacts)
        for other in (col, mm):
            assert obj.contacts_of(node) == other.contacts_of(node)
            assert obj.neighbours(node) == other.neighbours(node)
            assert obj.pair_contact_counts() == other.pair_contact_counts()

    @given(contacts=contacts_st)
    @settings(max_examples=30, deadline=None)
    def test_from_arrays_matches_object_construction(self, contacts):
        ordered = sorted(contacts, key=lambda c: c.start)
        start = np.array([c.start for c in ordered])
        duration = np.array([c.duration for c in ordered])
        a = np.array([c.a for c in ordered], dtype=np.int64)
        b = np.array([c.b for c in ordered], dtype=np.int64)
        for backend in TRACE_BACKENDS:
            built = ContactTrace.from_arrays(
                start, duration, a, b, backend=backend
            )
            assert list(built) == ordered

    @given(contacts=contacts_st)
    @settings(max_examples=20, deadline=None)
    def test_simulation_reports_agree(self, contacts):
        traces = _twins(contacts)
        reports = [
            Simulation(trace, PassiveProtocol()).run() for trace in traces
        ]
        first = reports[0]
        for second in reports[1:]:
            assert first.num_contacts == second.num_contacts
            assert first.end_time == second.end_time
            assert first.channels_exhausted == second.channels_exhausted
            assert dict(first.contacts_by_node) == dict(
                second.contacts_by_node
            )
            assert first.bytes_transferred == second.bytes_transferred


class TestBoundarySemantics:
    """slice/upto boundary rules, pinned identically for every backend.

    A contact sits in ``slice(t0, t1)`` iff ``t0 <= start < t1`` — the
    *end* of the window is exclusive and a contact whose start equals
    ``t1`` belongs to the next window, so adjacent windows partition a
    trace with no loss and no double-count.
    """

    CONTACTS = [
        Contact.make(start=0.0, duration=5.0, a=0, b=1),
        Contact.make(start=10.0, duration=5.0, a=1, b=2),
        Contact.make(start=10.0, duration=1.0, a=2, b=3),
        Contact.make(start=20.0, duration=5.0, a=3, b=4),
    ]

    @pytest.fixture(params=TRACE_BACKENDS)
    def trace(self, request):
        return ContactTrace(
            self.CONTACTS, name="boundary", backend=request.param
        )

    def test_start_boundary_inclusive(self, trace):
        window = trace.slice(10.0, 20.0)
        assert [c.start for c in window] == [10.0, 10.0]

    def test_end_boundary_exclusive(self, trace):
        assert [c.start for c in trace.slice(0.0, 10.0)] == [0.0]
        assert [c.start for c in trace.slice(0.0, 20.0)] == [0.0, 10.0, 10.0]

    def test_adjacent_windows_partition(self, trace):
        edges = [0.0, 10.0, 20.0, 30.0]
        windows = [
            trace.slice(lo, hi) for lo, hi in zip(edges, edges[1:])
        ]
        recombined = [c for w in windows for c in w]
        assert recombined == list(trace)

    def test_upto_is_exclusive(self, trace):
        upto = trace._store.upto(10.0)
        assert [c.start for c in upto] == [0.0]

    def test_empty_window(self, trace):
        assert list(trace.slice(11.0, 11.0)) == []
        assert list(trace.slice(40.0, 50.0)) == []
