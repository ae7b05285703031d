"""Public-API surface tests.

The README and examples promise these import paths; a rename that
breaks them should fail loudly here, not in a user's code.
"""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "3.0.0"

    def test_headline_exports(self):
        for name in (
            "TemporalCountingBloomFilter",
            "BloomFilter",
            "CountingBloomFilter",
            "HashFamily",
            "TCBFCollection",
            "BsubProtocol",
            "BsubConfig",
            "PushProtocol",
            "PullProtocol",
            "Message",
            "MetricsCollector",
        ):
            assert hasattr(repro, name), name

    def test_all_is_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_lazy_exports_listed_by_dir(self):
        # The typed API loads lazily (PEP 562) but must still be
        # discoverable.
        for name in ("ExperimentSpec", "run", "sweep", "replicate",
                     "resilience", "FaultSpec", "ServeSpec", "LoadSpec",
                     "serve", "load"):
            assert name in dir(repro), name


class TestSurfaceSnapshot:
    """Exact export snapshots: adding or removing a name is an API event.

    If one of these fails because of a *deliberate* surface change,
    re-pin the list here and call the change out in the PR description.
    """

    def test_top_level_all(self):
        assert sorted(repro.__all__) == [
            "BloomFilter", "BsubConfig", "BsubProtocol",
            "CountingBloomFilter", "ExperimentSpec", "FaultSpec",
            "HashFamily", "LoadSpec", "Message", "MetricsCollector",
            "PullProtocol", "PushProtocol", "ServeSpec", "TCBFCollection",
            "TemporalCountingBloomFilter", "__version__", "load",
            "replicate", "resilience", "run", "serve", "sweep",
        ]

    def test_api_module_all(self):
        import repro.api

        assert sorted(repro.api.__all__) == [
            "ExperimentSpec", "LoadSpec", "ServeSpec", "load",
            "replicate", "resilience", "run", "serve", "sweep",
        ]

    def test_experiments_module_all(self):
        import repro.experiments

        assert sorted(repro.experiments.__all__) == [
            "ALL_PROTOCOLS", "DF_SWEEP_TTL_MIN", "ExperimentSpec",
            "MetricStats", "PAPER_DF_VALUES_PER_MIN", "PAPER_TABLE_I",
            "PAPER_TTL_VALUES_MIN", "PROTOCOL_NAMES", "ReplicatedResult",
            "ResilienceReport", "RunResult", "RunTask", "ascii_chart",
            "average_peers_met_within", "derive_decay_factor",
            "execute_tasks", "figure_series", "format_observability",
            "format_table", "format_table_i", "format_table_ii",
            "metric_series", "resolve_jobs", "series_table",
            "table_i_rows", "table_ii_rows",
        ]

    def test_faults_module_all(self):
        import repro.faults

        assert sorted(repro.faults.__all__) == [
            "ChurnEvent", "ChurnSchedule", "FaultAccounting", "FaultPlan",
            "FaultSpec", "FaultyContactChannel", "NO_FAULTS",
        ]

    def test_entry_point_signatures(self):
        import inspect

        from repro import api

        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert params(api.run) == ["trace", "spec", "distribution", "obs"]
        assert params(api.sweep) == [
            "trace", "spec", "ttl_min", "df_per_min", "protocols", "jobs",
            "distribution",
        ]
        assert params(api.replicate) == [
            "trace_factory", "spec", "seeds", "jobs", "distribution",
        ]
        assert params(api.resilience) == [
            "trace", "spec", "distribution", "obs",
        ]
        assert params(api.serve) == ["spec", "duration_s", "registry"]
        assert params(api.load) == ["spec", "distribution"]

    def test_experiment_spec_fields(self):
        import dataclasses

        from repro.api import ExperimentSpec

        names = [f.name for f in dataclasses.fields(ExperimentSpec)]
        assert names[:3] == ["protocol", "ttl_min", "df_per_min"]
        assert "faults" in names
        # Normalised names only — the aliases live at call sites.
        assert "num_bits" in names and "m" not in names
        assert "num_hashes" in names and "k" not in names

    def test_serve_spec_fields(self):
        import dataclasses

        from repro.api import LoadSpec, ServeSpec

        serve_names = [f.name for f in dataclasses.fields(ServeSpec)]
        assert serve_names[:2] == ["host", "port"]
        for name in ("matching", "filter_spec", "faults", "idle_timeout_s",
                     "max_frame_bytes", "trace_path", "metrics_port"):
            assert name in serve_names, name
        # Normalised names only — m/k/df aliases live in parse().
        assert "num_bits" in serve_names and "m" not in serve_names
        assert "num_hashes" in serve_names and "k" not in serve_names
        load_names = [f.name for f in dataclasses.fields(LoadSpec)]
        for name in ("sessions", "publisher_fraction", "duration_s",
                     "arrival", "seed", "faults"):
            assert name in load_names, name

    def test_filter_constructors_accept_aliases(self):
        import inspect

        from repro import BloomFilter, TemporalCountingBloomFilter

        for cls in (BloomFilter, TemporalCountingBloomFilter):
            params = inspect.signature(cls.__init__).parameters
            assert "num_bits" in params and "m" in params, cls.__name__
            assert "num_hashes" in params and "k" in params, cls.__name__
            assert params["m"].kind is inspect.Parameter.KEYWORD_ONLY
        tcbf_of = inspect.signature(TemporalCountingBloomFilter.of).parameters
        assert "df" in tcbf_of and tcbf_of["df"].kind is \
            inspect.Parameter.KEYWORD_ONLY


class TestSubpackageSurfaces:
    @pytest.mark.parametrize(
        "module, names",
        [
            ("repro.core", [
                "TemporalCountingBloomFilter", "BloomFilter", "HashFamily",
                "false_positive_rate", "recommended_decay_factor",
                "plan_allocation", "encode_tcbf", "decode_tcbf",
            ]),
            ("repro.pubsub", [
                "BsubProtocol", "BrokerElection", "StaticBrokerSet",
                "SprayAndWaitProtocol", "ExactInterestRelay",
                "AdaptiveDecayConfig", "MetricsSummary",
            ]),
            ("repro.dtn", [
                "Simulation", "Protocol", "ContactChannel", "MessageEvent",
                "EnergyModel", "BLUETOOTH_CLASS2_MODEL",
                "BLUETOOTH_EFFECTIVE_BPS",
            ]),
            ("repro.traces", [
                "ContactTrace", "Contact", "haggle_like", "mit_reality_like",
                "simulate_mobility", "MobilityConfig", "load_csv_trace",
                "compute_stats",
            ]),
            ("repro.social", [
                "ContactGraph", "degree_centrality", "label_propagation",
                "modularity",
            ]),
            ("repro.workload", [
                "twitter_trends_2009", "KeyDistribution", "assign_interests",
                "generate_message_events",
            ]),
            ("repro.experiments", [
                "format_table_i", "format_table_ii", "ascii_chart",
                "ALL_PROTOCOLS",
            ]),
            ("repro.api", [
                "ExperimentSpec", "ServeSpec", "LoadSpec", "run", "sweep",
                "replicate", "resilience", "serve", "load",
            ]),
            ("repro.serve", [
                "ServeSpec", "LoadSpec", "SessionContext", "BrokerCore",
                "BrokerServer", "Dispatcher", "LoadDriver", "LoadReport",
                "ProtocolError", "run_broker", "run_load", "BROKER_NODE_ID",
            ]),
            ("repro.faults", [
                "FaultSpec", "FaultPlan", "FaultyContactChannel",
                "ChurnEvent", "ChurnSchedule", "FaultAccounting", "NO_FAULTS",
            ]),
        ],
    )
    def test_surface(self, module, names):
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name}"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core", "repro.pubsub", "repro.dtn", "repro.traces",
            "repro.social", "repro.workload", "repro.experiments",
            "repro.api", "repro.faults", "repro.serve",
        ],
    )
    def test_all_lists_resolve(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert getattr(mod, name, None) is not None, f"{module}.{name}"

    def test_cli_entry_point(self):
        from repro.cli import build_parser, main

        assert callable(main)
        assert build_parser().prog == "repro"


class TestDocstrings:
    """Every public module and class documents itself."""

    @pytest.mark.parametrize(
        "module",
        [
            "repro", "repro.core.tcbf", "repro.core.bloom",
            "repro.core.analysis", "repro.core.allocation",
            "repro.core.serialization", "repro.pubsub.protocol",
            "repro.pubsub.broker_allocation", "repro.pubsub.baselines",
            "repro.pubsub.metrics", "repro.pubsub.wire",
            "repro.pubsub.adaptive", "repro.pubsub.exact",
            "repro.pubsub.extra_baselines", "repro.dtn.simulator",
            "repro.dtn.energy", "repro.traces.synthetic",
            "repro.traces.mobility", "repro.social.communities",
            "repro.workload.keys", "repro.experiments.runner",
            "repro.experiments.resilience", "repro.api", "repro.faults.spec",
            "repro.faults.channel", "repro.faults.churn", "repro.faults.plan",
            "repro.cli", "repro.serve", "repro.serve.spec",
            "repro.serve.session", "repro.serve.dispatcher",
            "repro.serve.broker", "repro.serve.load",
        ],
    )
    def test_module_docstrings(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 40, module

    def test_core_classes_documented(self):
        from repro.core import TemporalCountingBloomFilter
        from repro.pubsub import BsubProtocol

        for cls in (TemporalCountingBloomFilter, BsubProtocol):
            assert cls.__doc__
            for name, member in vars(cls).items():
                if name.startswith("_") or not callable(member):
                    continue
                assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"
