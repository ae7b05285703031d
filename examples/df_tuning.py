#!/usr/bin/env python
"""Tuning the decaying factor: the analysis of Sec. VI in practice.

The DF is B-SUB's central knob.  This example:

1. evaluates the closed forms (Eq. 1-6): FPR, fill ratio, the expected
   accidental counter increment, and the Eq. 5 DF rule;
2. solves the Eq. 9-10 optimal multi-filter allocation for a memory
   budget;
3. runs a miniature Fig. 9 sweep to show the DF's delivery/overhead
   trade-off live.

Run:  python examples/df_tuning.py
"""

from repro import ExperimentSpec, sweep
from repro.core import (
    expected_min_collisions,
    expected_unique_keys,
    false_positive_rate,
    fill_ratio,
    plan_allocation,
    recommended_decay_factor,
)
from repro.experiments import format_table
from repro.traces import haggle_like
from repro.workload import twitter_trends_2009


def closed_forms():
    print("=== Eq. 1-6: the filter analysis at the paper's settings ===\n")
    m, k = 256, 4
    rows = []
    for n in (5, 10, 20, 38, 60):
        rows.append([
            n,
            fill_ratio(n, m, k),
            false_positive_rate(n, m, k),
            expected_min_collisions(n, m, k),
        ])
    print(format_table(
        ["keys n", "fill ratio", "FPR (Eq. 1)", "E[min collisions] (Eq. 4)"],
        rows, title=f"m = {m} bits, k = {k} hashes",
    ))
    print("\nworst case for the 38-key workload: "
          f"FPR = {false_positive_rate(38, m, k):.4f} (paper: 0.04)\n")

    # Eq. 5: the DF for a 10-hour delay limit.
    dist = twitter_trends_2009()
    collected = 40  # nodes met within τ (measured from the trace online)
    unique = expected_unique_keys(collected, weights=dist.weights)
    df = recommended_decay_factor(
        delay_limit=600.0,  # τ = 10 h in minutes
        initial_value=50.0,
        num_keys=round(unique),
        num_bits=m,
        num_hashes=k,
    )
    print(f"Eq. 6: {collected} collected interests ≈ {unique:.1f} unique keys")
    print(f"Eq. 5: DF(τ=10 h) = {df:.3f} per minute  (paper computes 0.138)\n")


def allocation():
    print("=== Eq. 9-10: optimal TCBF allocation under a memory bound ===\n")
    rows = []
    for bound in (400, 800, 1600):
        plan = plan_allocation(total_keys=150, memory_bound_bytes=bound)
        rows.append([
            bound, plan.num_filters, f"{plan.fill_ratio_threshold:.3f}",
            f"{plan.joint_fpr:.4f}", f"{plan.memory_bytes:.0f}",
        ])
    print(format_table(
        ["memory bound (B)", "filters h*", "threshold F_t", "joint FPR",
         "memory used (B)"],
        rows, title="150 collected keys, m = 256, k = 4",
    ))
    print()


def live_sweep():
    print("=== Fig. 9 in miniature: the DF trade-off, live ===\n")
    trace = haggle_like(scale=0.04, seed=3)
    spec = ExperimentSpec(ttl_min=600.0, min_rate_per_s=1 / 3600.0)
    results = sweep(trace, spec, df_per_min=(0.0, 0.25, 1.0, 2.0))
    rows = [
        [
            r.decay_factor_per_min,
            f"{r.summary.delivery_ratio:.3f}",
            f"{r.summary.forwardings_per_delivered:.2f}",
            f"{r.summary.false_positive_ratio:.4f}",
        ]
        for r in results
    ]
    print(format_table(
        ["DF (/min)", "delivery ratio", "fwd/delivered", "FPR"],
        rows, title=f"B-SUB on {trace.name}, TTL = 10 h",
    ))
    print("\nhigher DF -> smaller interest-propagation scope -> fewer "
          "forwardings and lower FPR,\nat the price of delivery ratio — "
          "exactly the Sec. VI-B trade-off.")


if __name__ == "__main__":
    closed_forms()
    allocation()
    live_sweep()
