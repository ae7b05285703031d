"""Baseline landscape — all four protocols, multi-seed, mean ± std.

An extension summary: the paper's headline comparison (PUSH / B-SUB /
PULL at one TTL) replicated over several independent seeds, with the
quota-based Spray-and-Wait extension baseline added.  The replication
quantifies how much of any single-run difference is seed noise.
"""

import pytest

from repro.api import replicate
from repro.experiments.report import format_table
from repro.traces.synthetic import haggle_like

from .conftest import BENCH_SCALE, bench_spec, emit

SEEDS = (0, 1, 2)
PROTOCOLS = ("PUSH", "B-SUB", "SPRAY", "PULL")


def _factory(seed):
    return haggle_like(scale=BENCH_SCALE, seed=seed)


def test_baseline_landscape(benchmark):
    spec = bench_spec(ttl_min=600.0)

    def replicate_all():
        return {
            name: replicate(_factory, spec.with_protocol(name), seeds=SEEDS)
            for name in PROTOCOLS
        }

    results = benchmark.pedantic(replicate_all, rounds=1, iterations=1)
    rows = []
    for name in PROTOCOLS:
        r = results[name]
        rows.append(
            [
                name,
                str(r["delivery_ratio"]),
                str(r["mean_delay_min"]),
                str(r["forwardings_per_delivered"]),
                str(r["broker_fraction"]),
            ]
        )
    emit(
        "landscape",
        format_table(
            ["protocol", "delivery ratio", "delay (min)", "fwd/delivered",
             "broker frac"],
            rows,
            title=(
                f"Baseline landscape — TTL 10 h, {len(SEEDS)} seeds, "
                f"scale {BENCH_SCALE:g} (mean ± std)"
            ),
        ),
    )

    # Orderings must hold in the mean, not just in one lucky seed.
    delivery = {n: results[n]["delivery_ratio"].mean for n in PROTOCOLS}
    overhead = {
        n: results[n]["forwardings_per_delivered"].mean for n in PROTOCOLS
    }
    assert delivery["PUSH"] >= delivery["B-SUB"] > delivery["PULL"]
    assert delivery["PULL"] < delivery["SPRAY"] < delivery["PUSH"]
    assert overhead["PUSH"] > overhead["B-SUB"] > overhead["PULL"]
    assert overhead["PULL"] == pytest.approx(1.0)
