"""Tests for the real-trace loaders."""

import pytest

from repro.traces.loaders import (
    NodeRelabeller,
    load_csv_trace,
    load_whitespace_trace,
)


class TestNodeRelabeller:
    def test_dense_ids_in_first_seen_order(self):
        relabel = NodeRelabeller()
        assert relabel["aa:bb"] == 0
        assert relabel["cc:dd"] == 1
        assert relabel["aa:bb"] == 0
        assert len(relabel) == 2

    def test_strips_whitespace(self):
        relabel = NodeRelabeller()
        assert relabel[" node1 "] == relabel["node1"]

    def test_mapping_snapshot(self):
        relabel = NodeRelabeller()
        relabel["x"]
        assert relabel.mapping == {"x": 0}


class TestCsvLoader:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("n1,n2,100,160\nn2,n3,200,230\n")
        trace = load_csv_trace(path)
        assert trace.num_contacts == 2
        assert trace.num_nodes == 3
        assert trace.contacts[0].duration == 60.0

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b,start,end\nn1,n2,0,10\n")
        assert load_csv_trace(path).num_contacts == 1

    def test_zero_length_sighting_gets_nominal_duration(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("n1,n2,100,100\n")
        trace = load_csv_trace(path)
        assert trace.contacts[0].duration == 1.0

    def test_wrong_field_count_raises(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("n1,n2,100\n")
        with pytest.raises(ValueError, match="4 fields"):
            load_csv_trace(path)

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "infocom06.csv"
        path.write_text("n1,n2,0,10\n")
        assert load_csv_trace(path).name == "infocom06"

    def test_explicit_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("n1,n2,0,10\n")
        assert load_csv_trace(path, name="haggle").name == "haggle"


class TestWhitespaceLoader:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "reality.txt"
        path.write_text("# comment\n\nA B 0 60\nB C 120 130\n")
        trace = load_whitespace_trace(path)
        assert trace.num_contacts == 2
        assert trace.num_nodes == 3

    def test_times_sorted(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("A B 500 510\nA C 100 110\n")
        trace = load_whitespace_trace(path)
        assert trace.contacts[0].start == 100.0

    def test_roundtrips_into_simulation(self, tmp_path):
        """A loaded trace plugs straight into the experiment runner."""
        from repro.api import ExperimentSpec, run

        path = tmp_path / "t.txt"
        lines = [f"A B {i * 100} {i * 100 + 50}" for i in range(20)]
        lines += [f"B C {i * 100 + 60} {i * 100 + 90}" for i in range(20)]
        path.write_text("\n".join(lines))
        trace = load_whitespace_trace(path)
        result = run(trace, ExperimentSpec(protocol="PUSH", ttl_min=60))
        assert result.summary.num_messages >= 0  # ran to completion
