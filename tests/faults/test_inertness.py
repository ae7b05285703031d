"""Provable inertness: a disabled FaultSpec is the fault-free code path.

The acceptance bar from the issue: with all fault rates at zero the
fault layer must not merely be *statistically* invisible — the golden
event-trace digest must be byte-identical to a run with no FaultSpec at
all.  A disabled spec never builds a FaultPlan, so the simulator takes
the exact pre-fault branch.
"""

import pytest

from repro.api import ExperimentSpec, run
from repro.faults import FaultSpec
from repro.obs import Observability
from repro.traces import haggle_like
from tests.obs.conftest import MINI_FIG7_CONFIG, MINI_FIG7_TRACE
from tests.obs.test_golden_trace import MINI_FIG7_TRACE_DIGEST


def digest_of(faults):
    trace = haggle_like(**MINI_FIG7_TRACE)
    spec = ExperimentSpec(faults=faults, **MINI_FIG7_CONFIG)
    obs = Observability.enabled()
    result = run(trace, spec, obs=obs)
    return obs.tracer.digest(), result


def test_disabled_spec_matches_golden_digest_byte_for_byte():
    digest, result = digest_of(FaultSpec())
    assert digest == MINI_FIG7_TRACE_DIGEST
    assert result.fault_accounting is None


def test_disabled_spec_equals_no_spec():
    with_disabled, faulted = digest_of(FaultSpec())
    without, clean = digest_of(None)
    assert with_disabled == without
    assert faulted.summary == clean.summary


def test_enabled_spec_diverges():
    # Sanity check on the check itself: a live fault rate must move the
    # digest, otherwise the two tests above prove nothing.
    digest, result = digest_of(FaultSpec(frame_loss=0.5, seed=3))
    assert digest != MINI_FIG7_TRACE_DIGEST
    assert result.fault_accounting["frames_lost"] > 0


def test_all_zero_rates_classified_disabled():
    spec = FaultSpec()
    assert not spec.enabled
    assert not spec.channel_faults
    assert not spec.churn
    with pytest.raises(ValueError, match="disabled FaultSpec"):
        from repro.faults import FaultPlan

        FaultPlan(spec, haggle_like(**MINI_FIG7_TRACE))
