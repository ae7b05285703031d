#!/usr/bin/env python
"""Quickstart: the TCBF in five minutes, then a tiny pub-sub run.

Walks through the paper's core data structure — insertion, temporal
decay, A-/M-merge, existential and preferential queries — then a
minimal end-to-end B-SUB simulation on a synthetic trace, and finally
the same run instrumented with the observability layer (event trace +
metrics registry).

Run:  python examples/quickstart.py
"""

from repro import ExperimentSpec, run
from repro.core import HashFamily, TemporalCountingBloomFilter
from repro.obs import Observability
from repro.traces import haggle_like


def tcbf_tour():
    print("=== 1. The Temporal Counting Bloom Filter ===\n")
    family = HashFamily(num_hashes=4, num_bits=256)  # the paper's geometry

    # A consumer's genuine filter: interests with initial counter C = 50.
    genuine = TemporalCountingBloomFilter(family=family, initial_value=50)
    genuine.insert("NewMoon")
    genuine.insert("openwebawards")
    print(f"genuine filter: {genuine}")
    print(f"  'NewMoon' in filter?        {'NewMoon' in genuine}")
    print(f"  'ModernWarfare2' in filter? {'ModernWarfare2' in genuine}")

    # A broker's relay filter decays at DF = 1 per time unit.
    relay = TemporalCountingBloomFilter(
        family=family, initial_value=50, decay_factor=1.0
    )
    relay.a_merge(genuine)  # consumer announces interests -> A-merge
    print(f"\nrelay after A-merge: min counter for 'NewMoon' = "
          f"{relay.min_counter('NewMoon'):.0f}")

    relay.a_merge(genuine)  # meeting again *reinforces* the counters
    print(f"relay after reinforcement:                       = "
          f"{relay.min_counter('NewMoon'):.0f}")

    relay.advance(60.0)  # one minute of decay at DF = 1/s
    print(f"relay one minute later:                          = "
          f"{relay.min_counter('NewMoon'):.0f}")

    relay.advance(100.0)  # interests not refreshed are forgotten
    print(f"'NewMoon' still known at t=100? {'NewMoon' in relay}")

    # Preferential query: which broker should carry a 'NewMoon' message?
    close_broker = TemporalCountingBloomFilter(family=family, initial_value=50)
    far_broker = TemporalCountingBloomFilter(family=family, initial_value=50)
    close_broker.a_merge(genuine)
    close_broker.a_merge(genuine)  # meets the consumer often
    far_broker.a_merge(genuine)    # met the consumer once
    preference = close_broker.preference("NewMoon", far_broker)
    print(f"\npreference of the close broker over the far one: "
          f"{preference:+.0f}  (positive -> forward to it)")


def mini_simulation():
    print("\n=== 2. A complete B-SUB run ===\n")
    trace = haggle_like(scale=0.05, seed=1)  # 79 nodes, ~3.4k contacts
    print(f"trace: {trace}")
    spec = ExperimentSpec(ttl_min=600.0, min_rate_per_s=1 / 3600.0)
    for protocol in ("PUSH", "B-SUB", "PULL"):
        result = run(trace, spec.with_protocol(protocol))
        s = result.summary
        print(
            f"  {protocol:6s}  delivery={s.delivery_ratio:5.3f}  "
            f"delay={s.mean_delay_min:6.1f} min  "
            f"forwardings/delivered={s.forwardings_per_delivered:5.2f}  "
            f"FPR={s.false_positive_ratio:.4f}"
        )
    print("\nPUSH floods (best delivery, highest cost); PULL is one-hop "
          "(cheapest, worst delivery);\nB-SUB sits close to PUSH on "
          "delivery at a fraction of the forwarding cost.")


def traced_run():
    print("\n=== 3. The same run, instrumented ===\n")
    # Tiny 32-bit filters make Bloom false positives — and hence
    # `false_injection` events — actually occur at this scale.
    trace = haggle_like(scale=0.01, seed=3)
    spec = ExperimentSpec(
        ttl_min=120.0, min_rate_per_s=1 / 1800.0, num_bits=32, num_hashes=2
    )
    obs = Observability.enabled()
    run(trace, spec, obs=obs)

    counts = obs.tracer.counts()
    print("events per type:")
    for name in sorted(counts):
        print(f"  {name:16s} {counts[name]:6d}")
    print(f"\ntrace digest (pins the run byte-for-byte): "
          f"{obs.tracer.digest()[:16]}…")

    # Every M-merge in the run respects the Fig. 6 invariant: the
    # maximum merge never amplifies counters above either input.
    for event in obs.tracer.events_of("m_merge"):
        f = event.fields
        assert f["max_after"] <= max(f["max_before"], f["max_peer"]) + 1e-9
    print("checked: no M-merge amplified a counter (Fig. 6 invariant)")

    print("\nwhere the time went:")
    for name, seconds, _entries in obs.timers.summary():
        print(f"  {name:10s} {seconds:6.2f} s")
    # obs.tracer.write_jsonl("run.trace.jsonl") and
    # obs.registry.write_json("run.metrics.json") persist the run;
    # `python -m repro run --trace-out … --metrics-out …` does the
    # same from the command line.


if __name__ == "__main__":
    tcbf_tour()
    mini_simulation()
    traced_run()
