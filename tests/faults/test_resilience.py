"""Degradation accounting: faulted run vs. its fault-free twin."""

import pytest

from repro.api import ExperimentSpec, resilience
from repro.experiments.resilience import ResilienceReport
from repro.faults import FaultSpec
from repro.traces import haggle_like

FAULTS = FaultSpec(frame_loss=0.5, seed=3)
CONFIG = dict(
    ttl_min=120.0, min_rate_per_s=1 / 1800.0, num_bits=32, num_hashes=2
)


@pytest.fixture(scope="module")
def report():
    trace = haggle_like(scale=0.01, seed=3)
    return resilience(trace, ExperimentSpec(faults=FAULTS, **CONFIG))


class TestTwin:
    def test_twin_sees_identical_workload(self, report):
        # Workload and interests derive from spec seeds, not from the
        # fault layer: both runs must study the same experiment.
        assert (report.faulted.summary.num_messages
                == report.baseline.summary.num_messages)
        assert (report.faulted.summary.num_intended_pairs
                == report.baseline.summary.num_intended_pairs)

    def test_twin_is_fault_free(self, report):
        assert report.baseline.fault_accounting is None
        assert report.faulted.fault_accounting["frames_lost"] > 0

    def test_half_loss_hurts_delivery(self, report):
        assert report.delivery_retention < 1.0
        assert 0.0 < report.delivery_degradation <= 1.0
        assert (report.delivery_degradation
                == 1.0 - min(1.0, report.delivery_retention))

    def test_ratios_are_finite_and_nonnegative(self, report):
        assert report.cost_ratio >= 0.0
        assert report.forwardings_ratio >= 0.0


class TestRows:
    def test_rows_cover_metrics_and_ledger(self, report):
        rows = report.rows()
        names = [r[0] for r in rows]
        assert "delivery ratio" in names
        assert "delivery retention" in names
        assert "frames lost" in names  # ledger keys join the table
        assert all(len(r) == 3 for r in rows)

    def test_ledger_baseline_column_is_zero(self, report):
        for name, _, baseline in report.rows():
            if name.replace(" ", "_") in report.fault_accounting:
                assert baseline == 0


class TestGuards:
    def test_api_rejects_faultless_spec(self):
        trace = haggle_like(scale=0.01, seed=3)
        with pytest.raises(ValueError, match="enabled FaultSpec"):
            resilience(trace, ExperimentSpec())

    def test_report_function_rejects_disabled_faults(self):
        spec = ExperimentSpec(faults=FaultSpec(), **CONFIG)
        with pytest.raises(ValueError, match="enabled FaultSpec"):
            resilience(haggle_like(scale=0.01, seed=3), spec)

    def test_zero_over_zero_reads_as_no_degradation(self):
        # The ratio convention: 0/0 -> 1.0 (nothing to lose, nothing lost).
        from repro.experiments.resilience import _ratio

        assert _ratio(0.0, 0.0) == 1.0
        assert _ratio(1.0, 0.0) == float("inf")
        assert _ratio(1.0, 2.0) == 0.5


def test_report_is_plain_dataclass_pair(report):
    assert isinstance(report, ResilienceReport)
    assert report.faulted.protocol == report.baseline.protocol == "B-SUB"
