"""Fig. 8 — delivery ratio, delay, and forwardings vs TTL (MIT Reality).

The same sweep as Fig. 7 over the sparser MIT-like trace, plus the
cross-trace comparison the paper highlights: the MIT network is
sparser, so delivery ratios are lower than on Haggle at equal TTL.
"""

import math

import pytest

from repro import api
from repro.experiments.report import figure_series, series_table

from .conftest import bench_spec, emit

TTL_VALUES_MIN = (10.0, 30.0, 100.0, 300.0, 1000.0)


@pytest.fixture(scope="module")
def sweep(mit_trace):
    return api.sweep(mit_trace, bench_spec(), ttl_min=TTL_VALUES_MIN)


def _assert_delivery_ordering(sweep):
    i = len(TTL_VALUES_MIN) - 1
    push = sweep["PUSH"][i].summary.delivery_ratio
    bsub = sweep["B-SUB"][i].summary.delivery_ratio
    pull = sweep["PULL"][i].summary.delivery_ratio
    assert push >= bsub > pull


def _assert_push_fastest(sweep):
    """PUSH's delay is no worse than B-SUB's (Fig. 8(b)).

    Delay is conditional on delivery, and PUSH delivers many pairs the
    others never reach; a 15 % tolerance absorbs that censoring bias at
    reduced bench scales.
    """
    i = len(TTL_VALUES_MIN) - 1
    assert (
        sweep["PUSH"][i].summary.mean_delay_s
        <= 1.15 * sweep["B-SUB"][i].summary.mean_delay_s
    )


def _assert_pull_is_one(sweep):
    for r in sweep["PULL"]:
        value = r.summary.forwardings_per_delivered
        if not math.isnan(value):
            assert value == pytest.approx(1.0)


def _assert_mit_lower_than_haggle(sweep, haggle_trace):
    """'Overall, the MIT Reality trace forms a sparser network ...
    so the delivery ratio in the MIT Reality trace is lower.'"""
    haggle = api.sweep(
        haggle_trace,
        bench_spec(),
        ttl_min=(TTL_VALUES_MIN[-1],),
        protocols=("PUSH",),
    )
    haggle_ratio = haggle["PUSH"][0].summary.delivery_ratio
    mit_ratio = sweep["PUSH"][-1].summary.delivery_ratio
    assert mit_ratio < haggle_ratio


def test_fig8_sweep(benchmark, mit_trace, haggle_trace):
    result = benchmark.pedantic(
        lambda: api.sweep(mit_trace, bench_spec(), ttl_min=TTL_VALUES_MIN),
        rounds=1,
        iterations=1,
    )
    blocks = []
    for metric, title in [
        ("delivery_ratio", "(a) Delivery ratio"),
        ("delay_min", "(b) Delay (minutes)"),
        ("forwardings", "(c) Forwardings per delivered message"),
    ]:
        blocks.append(
            series_table(
                "TTL(min)",
                TTL_VALUES_MIN,
                figure_series(result, metric),
                title=f"Fig. 8 {title}",
            )
        )
    emit("fig8_mit", "\n\n".join(blocks))
    _assert_delivery_ordering(result)
    _assert_push_fastest(result)
    _assert_pull_is_one(result)
    _assert_mit_lower_than_haggle(result, haggle_trace)


def test_fig8a_delivery_ordering(sweep):
    _assert_delivery_ordering(sweep)


def test_fig8b_push_fastest(sweep):
    _assert_push_fastest(sweep)


def test_fig8c_pull_is_one(sweep):
    _assert_pull_is_one(sweep)


def test_fig8_vs_fig7_mit_lower_delivery(sweep, haggle_trace):
    _assert_mit_lower_than_haggle(sweep, haggle_trace)
