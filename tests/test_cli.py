"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, resolve_trace


class TestResolveTrace:
    def test_builtin_generators(self):
        assert resolve_trace("haggle", 0.01, 1).num_nodes == 79
        assert resolve_trace("mit", 0.01, 1).num_nodes == 97
        assert resolve_trace("mobility", 0.05, 1).num_contacts >= 0

    def test_csv_loading(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,0,10\n")
        trace = resolve_trace(f"csv:{path}", 1.0, 0)
        assert trace.num_contacts == 1

    def test_txt_loading(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a b 0 10\n")
        trace = resolve_trace(f"txt:{path}", 1.0, 0)
        assert trace.num_contacts == 1

    def test_unknown_spec(self):
        with pytest.raises(SystemExit):
            resolve_trace("carrier-pigeon", 1.0, 0)

    def test_dataset_loading(self, tmp_path):
        from repro.traces import haggle_like, save_trace_dataset

        original = haggle_like(scale=0.01, seed=1)
        save_trace_dataset(original, tmp_path / "ds")
        opened = resolve_trace(f"dataset:{tmp_path / 'ds'}", 1.0, 0)
        assert opened.backend == "mmap"
        assert opened.num_contacts == original.num_contacts
        columnar = resolve_trace(
            f"dataset:{tmp_path / 'ds'}", 1.0, 0, backend="columnar"
        )
        assert columnar.backend == "columnar"


class TestCommands:
    def test_run(self, capsys):
        code = main(
            ["run", "--trace", "haggle", "--scale", "0.01",
             "--protocol", "PULL", "--ttl-min", "120",
             "--min-rate", "0.0001"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delivery ratio" in out
        assert "PULL" in out

    def test_run_with_explicit_df(self, capsys):
        code = main(
            ["run", "--trace", "haggle", "--scale", "0.01",
             "--protocol", "B-SUB", "--ttl-min", "120", "--df", "0.5",
             "--min-rate", "0.0001"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0.5" in out

    def test_sweep_ttl(self, capsys):
        code = main(
            ["sweep-ttl", "--trace", "haggle", "--scale", "0.01",
             "--ttl", "60", "300", "--min-rate", "0.0001"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Delivery ratio" in out
        assert "B-SUB" in out and "PUSH" in out and "PULL" in out

    def test_sweep_df(self, capsys):
        code = main(
            ["sweep-df", "--trace", "haggle", "--scale", "0.01",
             "--df-values", "0", "1", "--ttl-min", "300",
             "--min-rate", "0.0001"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Falsely delivered ratio" in out
        assert "useless-injection" in out.lower()

    def test_tables(self, capsys):
        code = main(["tables", "--scale", "0.01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NewMoon" in out
        assert "Table I" in out

    def test_stats(self, capsys):
        code = main(["stats", "--trace", "haggle", "--scale", "0.01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "contacts/day" in out

    def test_export_roundtrip(self, tmp_path, capsys):
        output = tmp_path / "trace.csv"
        code = main(
            ["export", "--trace", "haggle", "--scale", "0.01",
             "--output", str(output)]
        )
        assert code == 0
        loaded = resolve_trace(f"csv:{output}", 1.0, 0)
        original = resolve_trace("haggle", 0.01, 1)
        assert loaded.num_contacts == original.num_contacts

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestOutOfCoreCommands:
    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory, request):
        path = tmp_path_factory.mktemp("cli-city") / "ds"
        code = main(
            ["synth", "--output", str(path), "--nodes", "300",
             "--contacts", "20000", "--days", "1",
             "--communities", "10", "--seed", "4"]
        )
        assert code == 0
        return path

    def test_synth_reports_dataset(self, dataset, capsys):
        assert (dataset / "meta.json").is_file()

    def test_passive_run_on_dataset(self, dataset, capsys):
        code = main(
            ["run", "--trace", f"dataset:{dataset}",
             "--protocol", "PASSIVE"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "contacts replayed" in out
        assert "Passive replay" in out

    def test_passive_rejects_observability_flags(self, dataset, tmp_path):
        with pytest.raises(SystemExit, match="--trace-out"):
            main(["run", "--trace", f"dataset:{dataset}",
                  "--protocol", "PASSIVE",
                  "--trace-out", str(tmp_path / "t.jsonl")])

    def test_active_protocol_on_windowed_dataset(self, dataset, capsys):
        code = main(
            ["run", "--trace", f"dataset:{dataset}",
             "--first-days", "0.5", "--protocol", "PULL",
             "--ttl-min", "60", "--min-rate", "0.0001"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delivery ratio" in out
