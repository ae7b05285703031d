"""On-disk trace datasets: chunked writer, round trips, city generator.

A dataset directory is four ``.npy`` column sidecars plus ``meta.json``.
The writer streams chunks and back-patches the headers on close, so
the resulting files must be loadable by stock numpy; ``open`` must be
able to hand back any row window; and the city generator must emit a
globally sorted, invariant-respecting stream deterministically.
"""

import json

import numpy as np
import pytest

from repro.traces import (
    ChunkedTraceWriter,
    ContactTrace,
    haggle_like,
    open_trace_dataset,
    save_trace_dataset,
)
from repro.traces.backends import TRACE_BACKENDS, TRACE_COLUMN_NAMES
from repro.traces.loaders import TRACE_DATASET_META
from repro.traces.model import Contact
from repro.traces.synthetic import CityTraceConfig, generate_city_trace


def _write(path, rows, **kwargs):
    with ChunkedTraceWriter(path, **kwargs) as writer:
        for chunk in rows:
            writer.append(*chunk)
    return writer


class TestChunkedTraceWriter:
    def test_columns_are_stock_npy_files(self, tmp_path):
        path = tmp_path / "ds"
        _write(path, [
            ([0.0, 5.0], [2.0, 3.0], [0, 1], [1, 2]),
            ([9.0], [1.0], [3], [0]),
        ])
        for name in TRACE_COLUMN_NAMES:
            column = np.load(path / f"{name}.npy")
            assert column.shape == (3,)
        assert np.load(path / "start.npy").tolist() == [0.0, 5.0, 9.0]
        meta = json.loads((path / TRACE_DATASET_META).read_text())
        assert meta["num_contacts"] == 3

    def test_unsorted_chunk_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="order"):
            _write(tmp_path / "ds", [
                ([5.0, 1.0], [1.0, 1.0], [0, 1], [1, 2]),
            ])

    def test_unsorted_across_chunks_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="order"):
            _write(tmp_path / "ds", [
                ([5.0], [1.0], [0], [1]),
                ([1.0], [1.0], [1], [2]),
            ])

    def test_self_contact_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="differ"):
            _write(tmp_path / "ds", [([0.0], [1.0], [3], [3])])

    def test_swapped_endpoints_canonicalised(self, tmp_path):
        path = tmp_path / "ds"
        _write(path, [([0.0], [1.0], [7], [2])])
        trace = open_trace_dataset(path)
        assert (trace.contacts[0].a, trace.contacts[0].b) == (2, 7)

    def test_failed_write_leaves_no_meta(self, tmp_path):
        path = tmp_path / "ds"
        with pytest.raises(ValueError):
            _write(path, [
                ([0.0], [1.0], [0], [1]),
                ([5.0], [-1.0], [1], [2]),
            ])
        assert not (path / TRACE_DATASET_META).exists()

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "ds"
        _write(path, [])
        trace = open_trace_dataset(path)
        assert trace.num_contacts == 0


class TestDatasetRoundTrip:
    @pytest.fixture(scope="class")
    def reference(self):
        return haggle_like(scale=0.02, seed=3)

    @pytest.mark.parametrize("backend", TRACE_BACKENDS)
    def test_save_open_identity(self, tmp_path, reference, backend):
        path = tmp_path / "ds"
        save_trace_dataset(reference, path, chunk_size=501)
        reopened = open_trace_dataset(path, backend=backend)
        assert reopened.backend == backend
        assert reopened.num_contacts == reference.num_contacts
        assert reopened.nodes == reference.nodes
        assert list(reopened) == list(reference)

    def test_named_nodes_round_trip(self, tmp_path):
        contacts = [
            Contact.make(start=0.0, duration=1.0, a=4, b=9),
        ]
        trace = ContactTrace(contacts, nodes=[1, 4, 9, 16], name="sparse")
        path = tmp_path / "ds"
        save_trace_dataset(trace, path)
        reopened = open_trace_dataset(path, name="sparse")
        assert list(reopened.nodes) == [1, 4, 9, 16]
        assert reopened.name == "sparse"


class TestCityGenerator:
    CONFIG = CityTraceConfig(
        num_nodes=500,
        duration_days=1.0,
        target_contacts=20_000,
        num_communities=20,
        seed=9,
        name="mini-city",
    )

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("city") / "ds"
        return generate_city_trace(self.CONFIG, path)

    def test_lands_near_target(self, trace):
        assert 0.8 * 20_000 <= trace.num_contacts <= 1.2 * 20_000

    def test_invariants(self, trace):
        start, duration, a, b = trace._store.columns()
        assert (np.diff(start) >= 0).all()
        assert (duration >= self.CONFIG.min_contact_duration_s).all()
        assert (a != b).all()
        assert (a < b).all()
        assert int(max(a.max(), b.max())) < self.CONFIG.num_nodes
        assert float(start[-1]) < self.CONFIG.duration_days * 86_400.0

    def test_deterministic(self, trace, tmp_path):
        again = generate_city_trace(self.CONFIG, tmp_path / "ds2")
        for ours, theirs in zip(trace._store.columns(),
                                again._store.columns()):
            assert np.array_equal(np.asarray(ours), np.asarray(theirs))

    def test_small_window_chunks_stay_sorted(self, tmp_path):
        # Force many sub-window emissions: every hour window overflows
        # max_window_rows, exercising the count-proportional splits.
        trace = generate_city_trace(
            self.CONFIG, tmp_path / "ds", max_window_rows=256
        )
        start = np.asarray(trace._store.columns()[0])
        assert (np.diff(start) >= 0).all()
        assert trace.num_contacts > 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CityTraceConfig(num_nodes=1)
        with pytest.raises(ValueError):
            CityTraceConfig(intra_community_p=1.5)
