"""Ablations of B-SUB's design choices (DESIGN.md Sec. 5).

* **M-merge vs A-merge between brokers** — the paper's Fig. 6 argument:
  additive merging in broker loops manufactures bogus counters, which
  misdirects forwarding and inflates overhead.
* **Dynamic election vs static broker set** — the Sec. V-B election
  against an oracle that pins the top-30 % most central nodes.
* **Lazy vs eager decay** — the implementation's one deviation from the
  paper's constant-decrement description; verified observationally
  equivalent on a live filter.
"""

import pytest

from repro.api import run
from repro.core.hashing import HashFamily
from repro.core.tcbf import TemporalCountingBloomFilter
from repro.experiments.report import format_table
from repro.pubsub.broker_allocation import StaticBrokerSet
from repro.social.centrality import degree_centrality

from .conftest import bench_spec, emit

TTL_MIN = 600.0


def _spec(**overrides):
    return bench_spec(ttl_min=TTL_MIN, **overrides)


@pytest.fixture(scope="module")
def merge_ablation(haggle_trace):
    m_merge = run(haggle_trace, _spec())
    a_merge = run(haggle_trace, _spec(broker_broker_additive_merge=True))
    return m_merge, a_merge


def test_ablation_broker_merge_rule(benchmark, merge_ablation):
    m_merge, a_merge = benchmark.pedantic(
        lambda: merge_ablation, rounds=1, iterations=1
    )
    rows = [
        ["M-merge (paper)", m_merge.summary.delivery_ratio,
         m_merge.summary.forwardings_per_delivered,
         m_merge.summary.false_positive_ratio],
        ["A-merge (Fig. 6 pathology)", a_merge.summary.delivery_ratio,
         a_merge.summary.forwardings_per_delivered,
         a_merge.summary.false_positive_ratio],
    ]
    emit(
        "ablation_merge",
        format_table(
            ["broker-broker merge", "delivery", "fwd/delivered", "FPR"],
            rows,
            title="Ablation — broker-broker merge rule (Fig. 6)",
        ),
    )
    # Bogus counters keep stale interests alive: the A-merge variant
    # must not beat the paper's M-merge on overhead efficiency.
    assert (
        a_merge.summary.num_forwardings >= 0.8 * m_merge.summary.num_forwardings
    )


def test_ablation_election_vs_static(benchmark, haggle_trace):
    def run_static():
        centrality = degree_centrality(haggle_trace)
        static = StaticBrokerSet.top_fraction(centrality, 0.3)
        return run(
            haggle_trace, _spec(static_brokers=tuple(sorted(static.brokers())))
        )

    static_result = benchmark.pedantic(run_static, rounds=1, iterations=1)
    dynamic_result = run(haggle_trace, _spec())
    rows = [
        ["dynamic election (paper)", dynamic_result.broker_fraction,
         dynamic_result.summary.delivery_ratio,
         dynamic_result.summary.forwardings_per_delivered],
        ["static top-30% oracle", 0.3,
         static_result.summary.delivery_ratio,
         static_result.summary.forwardings_per_delivered],
    ]
    emit(
        "ablation_election",
        format_table(
            ["broker allocation", "broker frac", "delivery", "fwd/delivered"],
            rows,
            title="Ablation — broker allocation scheme",
        ),
    )
    # The decentralised election should reach a usable fraction of the
    # oracle's delivery ratio.
    assert (
        dynamic_result.summary.delivery_ratio
        > 0.5 * static_result.summary.delivery_ratio
    )


def test_ablation_lazy_vs_eager_decay(benchmark):
    """advance(T) must equal T small decay steps, at a fraction of the cost."""
    family = HashFamily(4, 256)
    keys = [f"key-{i}" for i in range(30)]

    def lazy():
        f = TemporalCountingBloomFilter.of(
            keys, family=family, initial_value=50, decay_factor=0.5
        )
        f.advance(60.0)
        return f

    def eager():
        f = TemporalCountingBloomFilter.of(
            keys, family=family, initial_value=50, decay_factor=0.5
        )
        for _ in range(60):
            f.decay(0.5)
        return f

    lazy_result = benchmark(lazy)
    eager_result = eager()
    assert lazy_result.counters() == pytest.approx(eager_result.counters())
