#!/usr/bin/env python
"""Pub-sub over simulated mobility, with an energy budget.

Instead of replaying a recorded contact trace, this example *generates*
one from first principles: students walking a campus quad under a
community-biased waypoint model (an HCMM-style simulation), Bluetooth
contacts extracted from their positions.  It then runs all three
protocols over the resulting human network and compares them on the
metric batteries actually care about — radio energy per delivered
message — plus the broker hotspot ratio B-SUB's two-tier design trades
for that efficiency.

Run:  python examples/campus_mobility.py
"""

from repro import ExperimentSpec, run
from repro.dtn import BLUETOOTH_CLASS2_MODEL
from repro.experiments import format_table
from repro.traces import MobilityConfig, compute_stats, simulate_mobility


def main():
    print("=== 1. Simulate campus mobility ===\n")
    config = MobilityConfig(
        num_nodes=40,
        duration_s=8 * 3600.0,     # one campus day
        area_m=400.0,
        grid=4,
        num_communities=4,         # four departments
        home_bias=0.85,
        tx_range_m=10.0,           # Bluetooth
        seed=2,
        name="campus-day",
    )
    trace = simulate_mobility(config)
    stats = compute_stats(trace)
    print(f"{trace}")
    print(f"  mean contact duration: {stats.mean_contact_duration_s:.0f} s   "
          f"mean degree: {stats.mean_degree:.1f}   "
          f"median inter-contact: {stats.median_inter_contact_s / 60:.0f} min\n")

    print("=== 2. Run the protocols ===\n")
    spec = ExperimentSpec(
        ttl_min=120.0,               # two-hour message usefulness
        min_rate_per_s=1 / 900.0,    # one message per 15 min for the
                                     # least central student
    )
    rows = []
    for protocol in ("PUSH", "B-SUB", "PULL"):
        result = run(trace, spec.with_protocol(protocol))
        energy = BLUETOOTH_CLASS2_MODEL.evaluate(result.engine)
        summary = result.summary
        rows.append(
            [
                protocol,
                summary.delivery_ratio,
                summary.mean_delay_min,
                summary.forwardings_per_delivered,
                energy.data_j,
                energy.energy_per_delivery_j(summary.num_intended_deliveries)
                * 1e3,
                energy.hotspot_ratio(),
            ]
        )
    print(format_table(
        ["protocol", "delivery", "delay (min)", "fwd/delivered",
         "radio data (J)", "mJ/delivery", "hotspot"],
        rows,
        title="One campus day, 40 students, Bluetooth energy model",
    ))
    print(
        "\nPUSH buys its delivery ratio with an order of magnitude more "
        "radio energy;\nB-SUB concentrates its (much smaller) bill on the "
        "elected brokers — the\nhotspot ratio is the price of the two-tier "
        "design the paper argues for."
    )


if __name__ == "__main__":
    main()
