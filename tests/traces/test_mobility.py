"""Tests for the community-based mobility simulator."""

import numpy as np
import pytest

from repro.traces.mobility import MobilityConfig, simulate_mobility


def config(**overrides):
    defaults = dict(
        num_nodes=20,
        duration_s=1800.0,
        area_m=200.0,
        grid=3,
        num_communities=3,
        time_step_s=5.0,
        seed=3,
        name="mob-test",
    )
    defaults.update(overrides)
    return MobilityConfig(**defaults)


class TestValidation:
    def test_rejects_too_many_communities(self):
        with pytest.raises(ValueError, match="lattice"):
            config(grid=2, num_communities=5)

    def test_rejects_bad_speeds(self):
        with pytest.raises(ValueError):
            config(speed_min=2.0, speed_max=1.0)
        with pytest.raises(ValueError):
            config(speed_min=0.0)

    def test_rejects_bad_bias(self):
        with pytest.raises(ValueError):
            config(home_bias=1.5)

    def test_rejects_bad_pauses(self):
        with pytest.raises(ValueError):
            config(pause_min_s=100.0, pause_max_s=10.0)

    def test_rejects_degenerate_population(self):
        with pytest.raises(ValueError):
            config(num_nodes=1)


class TestSimulation:
    def test_deterministic(self):
        a = simulate_mobility(config())
        b = simulate_mobility(config())
        assert a.num_contacts == b.num_contacts
        assert [(c.start, c.pair) for c in a] == [(c.start, c.pair) for c in b]

    def test_different_seeds_differ(self):
        a = simulate_mobility(config(seed=1))
        b = simulate_mobility(config(seed=2))
        assert [(c.start, c.pair) for c in a] != [(c.start, c.pair) for c in b]

    def test_produces_contacts(self):
        trace = simulate_mobility(config())
        assert trace.num_contacts > 0
        assert trace.num_nodes == 20

    def test_contacts_within_duration(self):
        cfg = config()
        trace = simulate_mobility(cfg)
        assert all(0 <= c.start <= cfg.duration_s for c in trace)
        assert all(c.end <= cfg.duration_s + cfg.time_step_s for c in trace)

    def test_durations_at_least_one_step(self):
        cfg = config()
        trace = simulate_mobility(cfg)
        assert all(c.duration >= cfg.time_step_s for c in trace)

    def test_no_overlapping_intervals_per_pair(self):
        trace = simulate_mobility(config(duration_s=3600.0))
        by_pair = {}
        for c in trace:
            by_pair.setdefault(c.pair, []).append(c)
        for intervals in by_pair.values():
            intervals.sort(key=lambda c: c.start)
            for earlier, later in zip(intervals, intervals[1:]):
                assert later.start >= earlier.end

    def test_home_bias_concentrates_contacts_in_community(self):
        """High home bias should make contacts mostly intra-community."""
        cfg = config(
            num_nodes=30, home_bias=0.95, duration_s=3600.0, seed=5
        )
        rng = np.random.default_rng(cfg.seed)
        rng.permutation(cfg.grid * cfg.grid)  # consume, as the model does
        community = rng.integers(0, cfg.num_communities, size=cfg.num_nodes)
        trace = simulate_mobility(cfg)
        assert trace.num_contacts > 10
        intra = sum(1 for c in trace if community[c.a] == community[c.b])
        assert intra / trace.num_contacts > 0.6

    def test_zero_home_bias_mixes_communities(self):
        roaming = simulate_mobility(
            config(home_bias=0.0, duration_s=3600.0, num_nodes=30, seed=6)
        )
        # with pure random waypoints, cross-community contacts happen
        assert roaming.num_contacts > 0

    def test_contact_range_scales_contact_count(self):
        short = simulate_mobility(config(tx_range_m=5.0))
        long = simulate_mobility(config(tx_range_m=30.0))
        assert long.num_contacts > short.num_contacts

    def test_trace_runs_through_the_simulator(self):
        """A mobility-derived trace drops into the experiment runner."""
        from repro.api import ExperimentSpec, run

        trace = simulate_mobility(config(duration_s=3600.0))
        spec = ExperimentSpec(
            protocol="PUSH", ttl_min=30.0, min_rate_per_s=1 / 600.0
        )
        result = run(trace, spec)
        assert result.summary.num_messages > 0

    def test_community_structure_detectable(self):
        """The mobility model should produce detectable communities."""
        from repro.social import ContactGraph, label_propagation, modularity

        trace = simulate_mobility(
            config(num_nodes=30, home_bias=0.9, duration_s=7200.0, seed=8)
        )
        graph = ContactGraph.from_trace(trace)
        labels = label_propagation(graph, seed=0)
        assert modularity(graph, labels) > 0.1
