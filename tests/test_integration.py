"""End-to-end integration tests: the paper's qualitative claims.

These run all three protocols over a shared synthetic trace (one
module-scoped sweep) and assert the relationships Figs. 7-9 report —
who wins, in which order, and within which bounds.  Absolute values are
trace-dependent; orderings are not.
"""

import pytest

from repro.api import ExperimentSpec, run
from repro.core.analysis import false_positive_rate
from repro.traces.synthetic import haggle_like, mit_reality_like


@pytest.fixture(scope="module")
def trace():
    return haggle_like(scale=0.08, seed=1)


@pytest.fixture(scope="module")
def results(trace):
    spec = ExperimentSpec(ttl_min=600.0, min_rate_per_s=1 / 3600.0)
    return {
        name: run(trace, spec.with_protocol(name))
        for name in ("PUSH", "B-SUB", "PULL")
    }


class TestFig7Orderings:
    def test_delivery_ratio_ordering(self, results):
        """Fig. 7(a): PUSH >= B-SUB > PULL."""
        push = results["PUSH"].summary.delivery_ratio
        bsub = results["B-SUB"].summary.delivery_ratio
        pull = results["PULL"].summary.delivery_ratio
        assert push >= bsub > pull

    def test_delay_ordering(self, results):
        """Fig. 7(b): PUSH fastest, PULL slowest."""
        push = results["PUSH"].summary.mean_delay_s
        bsub = results["B-SUB"].summary.mean_delay_s
        pull = results["PULL"].summary.mean_delay_s
        assert push <= bsub
        assert bsub <= pull * 1.1  # B-SUB clearly better than PULL

    def test_forwardings_ordering(self, results):
        """Fig. 7(c): PUSH most expensive, PULL exactly one per delivery."""
        push = results["PUSH"].summary.forwardings_per_delivered
        bsub = results["B-SUB"].summary.forwardings_per_delivered
        pull = results["PULL"].summary.forwardings_per_delivered
        assert push > bsub > pull
        assert pull == pytest.approx(1.0)

    def test_bsub_close_to_push(self, results):
        """'B-SUB is only slightly lower than PUSH' — we accept within
        a factor on the reduced-scale trace."""
        push = results["PUSH"].summary.delivery_ratio
        bsub = results["B-SUB"].summary.delivery_ratio
        assert bsub > 0.55 * push

    def test_bsub_much_cheaper_than_push(self, results):
        """'B-SUB consumes much less resources than PUSH.'"""
        push = results["PUSH"].summary.forwardings_per_delivered
        bsub = results["B-SUB"].summary.forwardings_per_delivered
        assert bsub < 0.5 * push


class TestFalsePositiveBounds:
    def test_baselines_fpr_zero(self, results):
        assert results["PUSH"].summary.false_positive_ratio == 0.0
        assert results["PULL"].summary.false_positive_ratio == 0.0

    def test_bsub_false_positive_traffic_bounded(self, results):
        """Fig. 9(d): false-positive traffic stays in the neighbourhood
        of the worst-case filter FPR (0.04 for 38 keys).  With faithful
        single-interest consumer filters the *delivered* FPR is
        essentially zero; the Bloom cost shows up on the injection side
        (see bench_fig9's panel-d note)."""
        bound = false_positive_rate(38, 256, 4)
        summary = results["B-SUB"].summary
        assert summary.false_positive_ratio <= 0.01
        assert summary.false_injection_ratio <= bound
        assert summary.useless_injection_ratio <= 3 * bound
        assert summary.num_injections > 0

    def test_bsub_broker_fraction_moderate(self, results):
        """Sec. VII-A targets ≈30 % brokers with thresholds 3/5."""
        assert 0.1 <= results["B-SUB"].broker_fraction <= 0.6


class TestCrossTrace:
    def test_mit_sparser_lower_delivery(self):
        """Fig. 8 vs Fig. 7: 'the MIT Reality trace forms a sparser
        network ... so the delivery ratio is lower'."""
        spec = ExperimentSpec(
            protocol="PUSH", ttl_min=600.0, min_rate_per_s=1 / 3600.0
        )
        haggle = run(haggle_like(scale=0.08, seed=1), spec)
        mit = run(mit_reality_like(scale=0.08, seed=1), spec)
        assert mit.summary.delivery_ratio < haggle.summary.delivery_ratio


class TestWorkloadConservation:
    def test_identical_workload_across_protocols(self, results):
        messages = {r.summary.num_messages for r in results.values()}
        pairs = {r.summary.num_intended_pairs for r in results.values()}
        assert len(messages) == 1
        assert len(pairs) == 1

    def test_deliveries_bounded_by_pairs(self, results):
        for r in results.values():
            assert r.summary.num_intended_deliveries <= r.summary.num_intended_pairs

    def test_engine_counts(self, results, trace):
        for r in results.values():
            assert r.engine.num_contacts == trace.num_contacts
