"""Loss-matrix smoke test: the CI fault matrix re-runs this module with
``BSUB_FAULT_LOSS`` ∈ {0, 0.1, 0.5}.

Whatever the loss rate, one seeded mini Haggle run must complete and
keep its books balanced: every delivery is classified intended or
false, ratios stay inside [0, 1], and the fault ledger only records
the fault kinds that were actually enabled.
"""

import os

import pytest

from repro.api import ExperimentSpec, run
from repro.faults import FaultSpec
from repro.traces import haggle_like

LOSS = float(os.environ.get("BSUB_FAULT_LOSS", "0.1"))


@pytest.fixture(scope="module")
def matrix_run():
    trace = haggle_like(scale=0.01, seed=3)
    faults = FaultSpec(frame_loss=LOSS, seed=5) if LOSS > 0 else None
    spec = ExperimentSpec(
        ttl_min=120.0,
        min_rate_per_s=1 / 1800.0,
        num_bits=32,
        num_hashes=2,
        faults=faults,
    )
    result = run(trace, spec)
    return trace, result


def test_run_completes(matrix_run):
    trace, result = matrix_run
    assert result.summary.num_messages > 0
    # Loss never swallows trace progress: every contact is processed.
    assert result.engine.num_contacts == len(trace.contacts)


def test_delivery_accounting_conserved(matrix_run):
    _, result = matrix_run
    s = result.summary
    assert s.num_deliveries == s.num_intended_deliveries + s.num_false_deliveries
    assert s.num_intended_deliveries <= s.num_intended_pairs
    assert 0.0 <= s.delivery_ratio <= 1.0
    assert 0.0 <= s.false_positive_ratio <= 1.0


def test_injection_accounting_conserved(matrix_run):
    _, result = matrix_run
    s = result.summary
    assert s.num_false_injections + s.num_useless_injections <= s.num_injections
    assert s.num_forwardings >= 0


def test_fault_ledger_matches_enabled_faults(matrix_run):
    _, result = matrix_run
    acc = result.fault_accounting
    if LOSS == 0:
        assert acc is None  # fault-free run carries no ledger
        return
    assert acc is not None
    assert acc["frames_lost"] > 0
    # Only channel loss was enabled: everything else must stay zero.
    for key in ("frames_corrupted", "frames_truncated", "contacts_truncated",
                "contacts_skipped", "messages_skipped", "crashes",
                "recoveries"):
        assert acc[key] == 0, key
