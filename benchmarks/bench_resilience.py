"""Degradation curve — B-SUB delivery under increasing frame loss.

The fault subsystem's headline acceptance check: sweep the channel
frame-loss rate on the bench Haggle trace and measure each faulted run
against one shared fault-free twin.  Delivery must degrade
*monotonically* (a lossier channel never helps B-SUB), invariants must
stay conserved at every loss rate, and the whole curve is persisted to
``benchmarks/results/BENCH_resilience.json`` for regression tracking.

All runs share one deterministic workload (same spec seeds), so the
curve isolates the channel: every delta against the twin is fault
damage, not workload noise.
"""

import json

import pytest

from repro.api import run
from repro.experiments.resilience import ResilienceReport
from repro.experiments.report import series_table
from repro.faults import FaultSpec

from .conftest import RESULTS_DIR, bench_spec, emit

LOSS_RATES = (0.1, 0.25, 0.5, 0.75)
TTL_MIN = 120.0
FAULT_SEED = 1


def run_curve(haggle_trace):
    """loss -> ResilienceReport, all sharing one fault-free twin."""
    base = bench_spec(ttl_min=TTL_MIN)
    baseline = run(haggle_trace, base)
    reports = {}
    for loss in LOSS_RATES:
        faulted = run(
            haggle_trace,
            base.with_faults(FaultSpec(frame_loss=loss, seed=FAULT_SEED)),
        )
        reports[loss] = ResilienceReport(faulted=faulted, baseline=baseline)
    return reports


@pytest.fixture(scope="module")
def curve(haggle_trace):
    return run_curve(haggle_trace)


def _assert_monotone_degradation(curve):
    baseline = next(iter(curve.values())).baseline_delivery_ratio
    ratios = [baseline] + [curve[loss].delivery_ratio for loss in LOSS_RATES]
    for lighter, heavier in zip(ratios, ratios[1:]):
        assert heavier <= lighter, ratios
    assert ratios[-1] < ratios[0]  # the sweep actually bites


def _assert_invariants_conserved(curve):
    for loss, report in curve.items():
        s = report.faulted.summary
        assert (s.num_deliveries
                == s.num_intended_deliveries + s.num_false_deliveries), loss
        assert 0.0 <= s.delivery_ratio <= 1.0, loss
        assert s.num_messages == report.baseline.summary.num_messages, loss
        assert report.fault_accounting["frames_lost"] > 0, loss


def _assert_loss_scales_damage(curve):
    lost = [curve[loss].fault_accounting["frames_lost"] for loss in LOSS_RATES]
    forwarded = [curve[loss].faulted.summary.num_forwardings
                 for loss in LOSS_RATES]
    # More loss -> fewer surviving transmissions; the absolute count of
    # lost frames need not grow (there is less traffic left to lose).
    for lighter, heavier in zip(forwarded, forwarded[1:]):
        assert heavier <= lighter, forwarded
    assert all(count > 0 for count in lost)


def _emit_curve(curve):
    baseline = next(iter(curve.values())).baseline
    xs = (0.0,) + LOSS_RATES
    table = series_table(
        "loss", xs,
        {
            "delivery ratio": [baseline.summary.delivery_ratio]
            + [curve[loss].delivery_ratio for loss in LOSS_RATES],
            "retention": [1.0]
            + [curve[loss].delivery_retention for loss in LOSS_RATES],
            "forwardings": [float(baseline.summary.num_forwardings)]
            + [float(curve[loss].faulted.summary.num_forwardings)
               for loss in LOSS_RATES],
        },
        title=f"B-SUB delivery vs frame loss  [TTL = {TTL_MIN:g} min]",
    )
    emit("resilience", table)
    record = {
        "trace": baseline.trace_name,
        "ttl_min": TTL_MIN,
        "fault_seed": FAULT_SEED,
        "baseline_delivery_ratio": baseline.summary.delivery_ratio,
        "curve": {
            str(loss): {
                "delivery_ratio": report.delivery_ratio,
                "delivery_retention": report.delivery_retention,
                "cost_ratio": report.cost_ratio,
                "forwardings": report.faulted.summary.num_forwardings,
                "fault_accounting": report.fault_accounting,
            }
            for loss, report in curve.items()
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_resilience.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    return table


def test_resilience_curve(benchmark, haggle_trace):
    curve = benchmark.pedantic(
        lambda: run_curve(haggle_trace), rounds=1, iterations=1
    )
    _emit_curve(curve)
    _assert_monotone_degradation(curve)
    _assert_invariants_conserved(curve)
    _assert_loss_scales_damage(curve)


def test_delivery_degrades_monotonically(curve):
    _assert_monotone_degradation(curve)


def test_invariants_survive_every_loss_rate(curve):
    _assert_invariants_conserved(curve)


def test_heavier_loss_never_increases_traffic(curve):
    _assert_loss_scales_damage(curve)
