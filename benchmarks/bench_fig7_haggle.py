"""Fig. 7 — delivery ratio, delay, and forwardings vs TTL (Haggle).

Runs PUSH, B-SUB, and PULL over the Haggle-like trace at the paper's
log-scaled TTL axis and regenerates the three panels as series tables.
Asserts the qualitative shape: PUSH ≥ B-SUB > PULL on delivery; PULL
slowest on delay; PUSH most expensive and PULL ≈ 1 on forwardings.
"""

import math

import pytest

from repro import api
from repro.experiments.report import figure_series, series_table

from .conftest import bench_spec, emit, emit_json, fp_attribution, nan_to_none

TTL_VALUES_MIN = (10.0, 30.0, 100.0, 300.0, 1000.0)


@pytest.fixture(scope="module")
def sweep(haggle_trace):
    return api.sweep(haggle_trace, bench_spec(), ttl_min=TTL_VALUES_MIN)


def _emit_structured(sweep):
    """results/BENCH_fig7.json: every panel metric plus, per run, the
    false-positive attribution breakdown (relay-filter FP vs genuine
    but stale vs genuine injections, and consumer-side false
    deliveries)."""
    emit_json("BENCH_fig7", {
        "figure": "fig7",
        "trace": "haggle-like",
        "ttl_values_min": list(TTL_VALUES_MIN),
        "protocols": {
            name: [
                {
                    "ttl_min": ttl,
                    "delivery_ratio": nan_to_none(s.delivery_ratio),
                    "mean_delay_min": nan_to_none(s.mean_delay_min),
                    "forwardings_per_delivered": nan_to_none(
                        s.forwardings_per_delivered
                    ),
                    "false_positive_ratio": nan_to_none(
                        s.false_positive_ratio
                    ),
                    "fp_attribution": fp_attribution(s),
                }
                for ttl, s in zip(
                    TTL_VALUES_MIN,
                    (r.summary for r in results),
                )
            ]
            for name, results in sweep.items()
        },
    })


def _emit_panels(sweep, trace_label, file_prefix):
    panels = [
        ("delivery_ratio", "(a) Delivery ratio"),
        ("delay_min", "(b) Delay (minutes)"),
        ("forwardings", "(c) Forwardings per delivered message"),
    ]
    blocks = []
    for metric, title in panels:
        blocks.append(
            series_table(
                "TTL(min)",
                TTL_VALUES_MIN,
                figure_series(sweep, metric),
                title=f"{trace_label} {title}",
            )
        )
    emit(file_prefix, "\n\n".join(blocks))


def test_fig7_sweep(benchmark, haggle_trace):
    """Benchmark the full Fig. 7 sweep once, publish the panels, and
    check every panel's qualitative shape (the assertions also run as
    granular tests below when benchmarks are not isolated)."""
    result = benchmark.pedantic(
        lambda: api.sweep(haggle_trace, bench_spec(), ttl_min=TTL_VALUES_MIN),
        rounds=1,
        iterations=1,
    )
    _emit_panels(result, "Fig. 7", "fig7_haggle")
    _emit_structured(result)
    _assert_delivery_ordering(result)
    _assert_delivery_increases_with_ttl(result)
    _assert_delay_ordering(result)
    _assert_forwardings_ordering(result)
    _assert_bsub_stays_cheap(result)


def _assert_delivery_ordering(sweep):
    """PUSH >= B-SUB > PULL at the longer TTLs (Fig. 7(a))."""
    for i, ttl in enumerate(TTL_VALUES_MIN):
        push = sweep["PUSH"][i].summary.delivery_ratio
        bsub = sweep["B-SUB"][i].summary.delivery_ratio
        pull = sweep["PULL"][i].summary.delivery_ratio
        assert push >= bsub - 0.02, f"TTL={ttl}"
        if ttl >= 100:
            assert bsub > pull, f"TTL={ttl}"


def _assert_delivery_increases_with_ttl(sweep):
    for name in ("PUSH", "B-SUB", "PULL"):
        ratios = [r.summary.delivery_ratio for r in sweep[name]]
        assert ratios[-1] > ratios[0], name
        assert ratios[-1] >= max(ratios) - 0.05  # roughly monotone


def _assert_delay_ordering(sweep):
    """PULL's delay is the worst at long TTLs (Fig. 7(b))."""
    i = len(TTL_VALUES_MIN) - 1
    push = sweep["PUSH"][i].summary.mean_delay_s
    pull = sweep["PULL"][i].summary.mean_delay_s
    bsub = sweep["B-SUB"][i].summary.mean_delay_s
    assert push <= bsub <= pull * 1.2
    assert pull > push


def _assert_forwardings_ordering(sweep):
    """PUSH most forwardings; PULL exactly one per delivered (Fig. 7(c))."""
    for i, ttl in enumerate(TTL_VALUES_MIN):
        push = sweep["PUSH"][i].summary.forwardings_per_delivered
        bsub = sweep["B-SUB"][i].summary.forwardings_per_delivered
        pull = sweep["PULL"][i].summary.forwardings_per_delivered
        if math.isnan(push) or math.isnan(bsub) or math.isnan(pull):
            continue  # nothing delivered at tiny TTLs on sparse scales
        assert push > bsub, f"TTL={ttl}"
        assert pull == pytest.approx(1.0)


def _assert_bsub_stays_cheap(sweep):
    """'B-SUB is able to maintain a relatively stable forwarding count'."""
    bsub = [
        r.summary.forwardings_per_delivered
        for r in sweep["B-SUB"]
        if not math.isnan(r.summary.forwardings_per_delivered)
    ]
    push = [
        r.summary.forwardings_per_delivered
        for r in sweep["PUSH"]
        if not math.isnan(r.summary.forwardings_per_delivered)
    ]
    assert max(bsub) < max(push)


def test_fig7a_delivery_ordering(sweep):
    _assert_delivery_ordering(sweep)


def test_fig7a_delivery_increases_with_ttl(sweep):
    _assert_delivery_increases_with_ttl(sweep)


def test_fig7b_delay_ordering(sweep):
    _assert_delay_ordering(sweep)


def test_fig7c_forwardings_ordering(sweep):
    _assert_forwardings_ordering(sweep)


def test_fig7_bsub_stays_cheap_as_ttl_grows(sweep):
    _assert_bsub_stays_cheap(sweep)
