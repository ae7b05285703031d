#!/usr/bin/env python
"""Twitter-trend dissemination over a conference contact network.

The scenario the paper's introduction motivates: conference attendees
carry Bluetooth devices, subscribe to trending topics (the Table II
key distribution), and posts of at most 140 bytes propagate by
store-carry-forward.  This example reproduces a slice of the paper's
headline comparison (Fig. 7) and prints the regenerated Table II.

Run:  python examples/twitter_dissemination.py  [scale]
"""

import sys

from repro import ExperimentSpec, sweep
from repro.experiments import figure_series, format_table_ii, series_table
from repro.traces import haggle_like
from repro.workload import assign_interests, consumers_of, twitter_trends_2009


def main(scale: float = 0.05):
    distribution = twitter_trends_2009()
    print(format_table_ii(distribution))
    print(f"\naverage key length: {distribution.average_key_length():.1f} bytes "
          "(paper: 11.5)\n")

    trace = haggle_like(scale=scale, seed=1)
    print(f"simulating on {trace}\n")

    # Who subscribes to what?
    interests = assign_interests(trace.nodes, distribution, seed=11)
    top_key = distribution.top(1)[0][0]
    fans = consumers_of(interests, top_key)
    print(f"{len(fans)} of {trace.num_nodes} attendees subscribe to "
          f"{top_key!r} — the hottest trend\n")

    # The Fig. 7 sweep at three TTLs.
    ttls = (30.0, 300.0, 1000.0)
    spec = ExperimentSpec(min_rate_per_s=1 / 3600.0)
    results = sweep(trace, spec, ttl_min=ttls)
    for metric, label in [
        ("delivery_ratio", "Delivery ratio"),
        ("delay_min", "Delay (minutes)"),
        ("forwardings", "Forwardings per delivered message"),
    ]:
        print(series_table("TTL(min)", ttls, figure_series(results, metric),
                           title=label))
        print()

    bsub = results["B-SUB"][-1]
    print(f"B-SUB used DF = {bsub.decay_factor_per_min:.3f}/min (Eq. 5, "
          f"τ = TTL) and elected {bsub.broker_fraction:.0%} of nodes as "
          "brokers.")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.05)
