"""Unit tests of the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests``.
"""

import asyncio
import json
import statistics
import types

import pytest

from perfbench.benchlib import catalog, stats
from perfbench.benchlib.common import ROOT
from perfbench.benchlib.spans import Tracer, overhead, self_times
from perfbench.benchlib.verdict import FIRST_SEED, PAIRS, verdict


# -- percentiles ---------------------------------------------------------------


def test_nearest_rank_returns_measured_samples():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 99) == 99
    assert stats.nearest_rank(values, 100) == 100
    assert stats.nearest_rank(values, 0.1) == 1
    assert stats.nearest_rank([3.5], 99) == 3.5


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0)


def test_p99_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.supports(1000, 99)
    assert not stats.supports(999, 99)
    assert stats.supports(100, 90)
    assert not stats.supports(99, 90)


def test_rank_is_exact_for_decimal_percentiles():
    # 99.9% of 10,000 samples is rank 9,990 despite float rounding.
    assert stats.samples_beyond(10_000, 99.9) == 10
    assert stats.supports(10_000, 99.9)
    assert stats.nearest_rank(list(range(1, 10_001)), 99.9) == 9990


def test_summary_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, med, q3 = statistics.quantiles(values, n=4)
    got = stats.summary(values)
    assert (got["q1"], got["median"], got["q3"]) == (q1, med, q3)
    assert got["spread"] == pytest.approx((q3 - q1) / med)


# -- spans -----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_subtracts_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, "r"),
        ("a", 1.0, 4.0, 0, "r"),
        ("b", 3.0, 6.0, 0, "r"),   # overlaps a: union 1..6 = 5
        ("c", 9.0, 12.0, 0, "r"),  # sticks out: only 9..10 counts
        ("leaf", 1.5, 2.0, 1, "r"),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[4] == pytest.approx(0.5)


def test_tracer_nesting_and_self_time():
    clock = FakeClock()
    tracer = Tracer("t", clock=clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 3.0

    tracer.wrap("outer", outer)()
    got = tracer.layer_metrics(["outer", "leaf", "absent"])
    assert got["outer.calls"] == 1
    assert got["outer.busy_s"] == pytest.approx(8.0)
    assert got["outer.self_s"] == pytest.approx(4.0)
    assert got["leaf.calls"] == 2
    assert got["leaf.self_s"] == pytest.approx(4.0)
    assert got["absent.calls"] == 0 and got["absent.busy_s"] == 0.0
    # The span list agrees with the online totals.
    own = self_times(tracer.spans)
    outer_index = next(i for i, s in enumerate(tracer.spans) if s[0] == "outer")
    assert own[outer_index] == pytest.approx(4.0)
    assert all(s[3] == outer_index for s in tracer.spans if s[0] == "leaf")


def test_same_name_reentry_folds_into_one_span():
    clock = FakeClock()
    tracer = Tracer("t", clock=clock)

    def scalar():
        clock.now += 1.0

    traced_scalar = tracer.wrap("layer", scalar)

    def batch():
        traced_scalar()
        traced_scalar()

    tracer.wrap("layer", batch)()
    assert tracer.totals["layer"] == [1, 2.0, 2.0]


def test_detached_coroutine_spans_do_not_nest():
    clock = FakeClock()
    tracer = Tracer("t", clock=clock)

    async def wait():
        clock.now += 5.0

    traced_wait = tracer.wrap("wait", wait)

    def outer():
        clock.now += 1.0
        asyncio.run(traced_wait())

    tracer.wrap("outer", outer)()
    assert tracer.totals["wait"] == [1, 5.0, 5.0]
    # The wait is not a child: outer keeps all of its time as self time.
    assert tracer.totals["outer"][2] == pytest.approx(6.0)
    assert [s[3] for s in tracer.spans if s[0] == "wait"] == [-1]


def test_install_and_restore_on_class_and_module():
    class Thing:
        def method(self, x):
            return x + 1

        @staticmethod
        def static(x):
            return x * 2

    module = types.SimpleNamespace(func=lambda x: x - 1)
    original = Thing.__dict__["method"]
    tracer = Tracer("t")
    tracer.install(Thing, "method", "m")
    tracer.install(Thing, "static", "s")
    tracer.install(module, "func", "f", count_only=True)
    assert Thing().method(1) == 2 and Thing.static(3) == 6 and module.func(3) == 2
    assert tracer.totals["m"][0] == 1 and tracer.totals["s"][0] == 1
    assert tracer.counts["f"] == 1
    tracer.restore()
    assert Thing.__dict__["method"] is original
    Thing().method(1)
    assert tracer.totals["m"][0] == 1


def test_span_cap_keeps_totals_exact(tmp_path):
    tracer = Tracer("t", keep=3)
    fn = tracer.wrap("x", lambda: None)
    for _ in range(5):
        fn()
    assert len(tracer.spans) == 3 and tracer.dropped == 2
    assert tracer.totals["x"][0] == 5
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["x"] * 3 and rows[0]["parent"] is None


def test_overhead():
    assert overhead(1.2, 1.0) == pytest.approx(0.2)


# -- measurement window ------------------------------------------------------------


def test_window_settles_against_earlier_runs(tmp_path, monkeypatch):
    from perfbench.benchlib import common

    clock = FakeClock()
    monkeypatch.setattr(common, "OUT_DIR", tmp_path)
    monkeypatch.setattr(common.time, "perf_counter", clock)

    first = common.Window(10.0, "w")
    assert first.more(None) and first.more(5.0)
    clock.now = 10.0
    assert not first.more(5.0)  # nothing recorded yet: stops on time
    assert first.close(1.0)["settle_reference_s"] is None

    later = common.Window(10.0, "w")
    assert later.reference == 1.0
    clock.now += 10.0
    assert not later.more(1.1)  # within SETTLE_WITHIN of the record
    assert later.more(2.0)  # the host is slow: measure on
    clock.now += 30.0
    assert not later.more(2.0)  # ... up to SETTLE_CAP x seconds
    later.close(0.8)
    assert common.Window(10.0, "w").reference == 0.8
    assert common.Window(10.0).reference is None
    # The checkout has settled for 30 s: its budget ends the next run sooner.
    monkeypatch.setattr(common, "SETTLE_BUDGET_S", 35.0)
    last = common.Window(10.0, "w")
    clock.now += 14.0
    assert last.more(2.0)
    clock.now += 2.0
    assert not last.more(2.0)


# -- compare rule ------------------------------------------------------------------


def test_clear_gain_is_improved():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    change = [p * 0.8 for p in parent]
    row = verdict(parent, change, "lower", 0.1)
    assert row["verdict"] == "improved" and row["win_share"] == 1.0


def test_higher_is_better_metrics_flip_direction():
    parent = [100.0 + i for i in range(10)]
    change = [p * 1.5 for p in parent]
    assert verdict(parent, change, "higher", 0.1)["verdict"] == "improved"
    assert verdict(change, parent, "higher", 0.1)["verdict"] == "regressed"


def test_eight_of_ten_wins_is_not_a_gain():
    parent = [10.0] * 10
    change = [8.0] * 8 + [12.0, 12.0]
    assert verdict(parent, change, "lower", 0.5)["verdict"] == "unchanged"


def test_gap_within_parent_iqr_is_not_a_gain():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    change = [p - 0.5 for p in parent]
    row = verdict(parent, change, "lower", 0.5)
    assert row["win_share"] == 1.0
    assert row["verdict"] == "unchanged"


def test_slowdown_past_bound_is_regressed():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    change = [p * 1.2 for p in parent]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "regressed"
    assert verdict(parent, change, "lower", 0.25)["verdict"] == "unchanged"


def test_noisy_metric_is_unresolved():
    parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [p * 1.05 for p in parent[::-1]]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "unresolved"


def test_verdict_needs_pairs():
    with pytest.raises(ValueError):
        verdict([], [], "lower", 0.1)


# -- catalog ---------------------------------------------------------------------


def test_benchmark_json_matches_catalog():
    with open(ROOT / "BENCHMARK.json") as source:
        assert json.load(source) == catalog.benchmark_json()


def test_every_span_and_gauge_has_a_known_workload():
    for _target, workloads in catalog.SPANS.values():
        assert set(workloads) <= set(catalog.WORKLOADS)
    for _unit, _better, _meaning, workloads in catalog.GAUGES.values():
        assert set(workloads) <= set(catalog.WORKLOADS)
    assert len(catalog.per_layer_names()) <= 128


def test_sim_fingerprints_are_pinned_for_every_compare_seed():
    from perfbench.benchlib import sims

    assert set(range(FIRST_SEED, FIRST_SEED + PAIRS)) < set(sims.PINNED_SEEDS)
    for workload in catalog.SIM_WORKLOADS:
        assert set(sims.PINNED_FINGERPRINTS[workload]) == set(sims.PINNED_SEEDS)


def test_fanout_cycle_is_periodic_and_seed_keeps_its_keys():
    from perfbench.benchlib.fanout import CYCLE_PUBLISHES, CYCLE_RESUBSCRIBERS, Plan

    plans = [Plan(seed, 200) for seed in (1, 2)]
    for plan in plans:
        assert len(plan.cycle) == CYCLE_PUBLISHES + 2 * CYCLE_RESUBSCRIBERS
        subs = [node for kind, node, _item in plan.cycle if kind == "sub"]
        # Every re-subscriber leaves its interests and comes back.
        assert all(subs.count(node) == 2 for node in subs)
        last = {node: item for kind, node, item in plan.cycle if kind == "sub"}
        assert all(plan.interests[node] == keys for node, keys in last.items())
    keys = [sorted(item for kind, _n, item in plan.cycle if kind == "pub")
            for plan in plans]
    assert keys[0] == keys[1]
    assert plans[0].cycle != plans[1].cycle
    assert Plan(1, 200).cycle == plans[0].cycle


def _result(value, correct=True, fingerprint=None):
    metrics = {m: {"value": value, "unit": "s"} for m in catalog.END_TO_END}
    return {"correct": correct, "metrics": metrics, "fingerprint": fingerprint}


def _compare(parent, change):
    from perfbench import compare

    rows = compare.verdicts({"runs": {"sim-haggle": {"parent": parent, "change": change}}})
    return {row["metric"]: row for row in rows}


def test_compare_rules_each_metric_in_its_direction():
    parent = [_result(10.0 + 0.01 * i, fingerprint="f") for i in range(10)]
    change = [_result(7.0 + 0.01 * i, fingerprint="f") for i in range(10)]
    rows = _compare(parent, change)
    assert rows["run_s"]["pairs"] == 10
    assert rows["run_s"]["verdict"] == "improved"
    # deliveries_per_s is higher-is-better: the same drop is a regression.
    assert rows["deliveries_per_s"]["verdict"] == "regressed"


def test_compare_wrong_outputs_regress_every_metric():
    parent = [_result(10.0 + 0.01 * i, fingerprint="f") for i in range(10)]
    failing = [_result(7.0, fingerprint="f") for _ in range(10)]
    failing[3]["correct"] = False
    other = [_result(7.0, fingerprint="f") for _ in range(10)]
    other[5]["fingerprint"] = "g"
    for change in (failing, other):
        rows = _compare(parent, change)
        assert {row["verdict"] for row in rows.values()} == {"regressed"}


def test_compare_needs_ten_checked_pairs():
    parent = [_result(10.0 + 0.01 * i) for i in range(10)]
    parent[0]["correct"] = False
    change = [_result(7.0 + 0.01 * i) for i in range(10)]
    assert _compare(parent, change)["run_s"]["verdict"] == "unresolved"


# -- serve-wire open loop ----------------------------------------------------------


def _step(rate, valid=True, sustained=True):
    return {"rate": rate, "valid": valid, "sustained": valid and sustained}


def test_sustained_rate_ignores_invalid_steps():
    from perfbench.benchlib.wire import sustained_rate

    ladder = [_step(4000), _step(8000, valid=False), _step(12000),
              _step(16000, sustained=False)]
    assert sustained_rate(ladder) == 12000
    assert sustained_rate([_step(4000, sustained=False)]) == 0.0
    assert sustained_rate([_step(4000, valid=False)]) is None


def test_ladder_retries_stalls_and_stops_after_two_failures():
    from perfbench.benchlib import wire

    attempts = {
        4000: [_step(4000, valid=False)] * wire.STEP_TRIES,
        8000: [_step(8000)],
        12000: [_step(12000, sustained=False)],
        16000: [_step(16000, valid=False), _step(16000)],
        20000: [_step(20000, sustained=False)],
        24000: [_step(24000, sustained=False)],
        28000: [_step(28000)],
    }

    class FakeGenerator:
        async def step(self, rate, duration_s):
            return dict(attempts[rate].pop(0))

    steps = asyncio.run(wire._ladder(FakeGenerator(), sorted(attempts)))
    assert [s["rate"] for s in steps] == [4000, 8000, 12000, 16000, 20000, 24000]
    assert [s["attempts"] for s in steps] == [3, 1, 1, 2, 1, 1]
    assert not steps[0]["valid"]
    assert wire.sustained_rate(steps) == 16000
