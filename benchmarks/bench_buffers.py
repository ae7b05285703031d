"""Buffer-capacity ablation — memory pressure on epidemic vs B-SUB.

The paper motivates B-SUB with the memory limits of human-carried
devices (Sec. I) but simulates unbounded buffers.  This ablation bounds
them: PUSH must buffer *everything* it floods, while B-SUB's brokers
only buffer ℂ-limited relayed copies — so shrinking buffers should hurt
PUSH's delivery ratio much more than B-SUB's.
"""

import pytest

from repro.api import run
from repro.experiments.report import format_table

from .conftest import bench_spec, emit

CAPACITIES = (None, 200, 50, 10)


def _run_grid(trace):
    config = bench_spec(ttl_min=600.0)
    grid = {}
    for capacity in CAPACITIES:
        push = bench_spec(
            protocol="PUSH", ttl_min=600.0, push_buffer_capacity=capacity
        )
        bsub = bench_spec(ttl_min=600.0, carried_capacity=capacity)
        grid[capacity] = (run(trace, push), run(trace, bsub))
    return grid


def test_buffer_capacity_ablation(benchmark, haggle_trace):
    grid = benchmark.pedantic(
        lambda: _run_grid(haggle_trace), rounds=1, iterations=1
    )
    rows = []
    for capacity, (push, bsub) in grid.items():
        rows.append(
            [
                "unbounded" if capacity is None else capacity,
                push.summary.delivery_ratio,
                bsub.summary.delivery_ratio,
            ]
        )
    emit(
        "ablation_buffers",
        format_table(
            ["buffer capacity (msgs)", "PUSH delivery", "B-SUB delivery"],
            rows,
            title="Ablation — bounded buffers (drop-oldest)",
        ),
    )

    unbounded_push, unbounded_bsub = grid[None]
    tight_push, tight_bsub = grid[10]
    push_loss = 1 - (
        tight_push.summary.delivery_ratio
        / unbounded_push.summary.delivery_ratio
    )
    bsub_loss = 1 - (
        tight_bsub.summary.delivery_ratio
        / max(unbounded_bsub.summary.delivery_ratio, 1e-9)
    )
    # flooding suffers at least as much as B-SUB from memory pressure
    assert push_loss >= bsub_loss - 0.05
    # and tiny buffers must hurt PUSH visibly
    assert tight_push.summary.delivery_ratio < (
        unbounded_push.summary.delivery_ratio
    )
