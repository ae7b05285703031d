"""The typed public API (``repro.api``).

Two contracts under test:

1. ``ExperimentSpec`` carries the paper's Sec. VII-A defaults and
   validates its inputs eagerly;
2. the ``run()``/``sweep()`` entry points guard their arguments and
   run without warnings.
"""

import dataclasses
import warnings

import pytest

from repro.api import ExperimentSpec, run, sweep
from repro.faults import FaultSpec
from repro.pubsub.protocol import BsubConfig
from repro.traces import haggle_like

CONFIG = dict(
    ttl_min=120.0, min_rate_per_s=1 / 1800.0, num_bits=32, num_hashes=2
)


@pytest.fixture(scope="module")
def trace():
    return haggle_like(scale=0.01, seed=3)


class TestSpecValidation:
    def test_defaults_mirror_engine_defaults(self):
        spec = ExperimentSpec()
        assert spec.protocol == "B-SUB"
        # Sec. VII-A: m = 256, k = 4, C = 50, ℂ = 3, election 3/5 over
        # W = 5 h, minimum message rate 1 per 30 min.
        assert (spec.num_bits, spec.num_hashes) == (256, 4)
        assert spec.initial_value == 50.0
        assert spec.copy_limit == 3
        assert (spec.election_lower, spec.election_upper) == (3, 5)
        assert spec.election_window_s == 5 * 3600.0
        assert spec.min_rate_per_s == 1.0 / 1800.0
        assert spec.df_per_min is None  # derived from Eq. 5
        engine = BsubConfig()
        for name in ("num_bits", "num_hashes", "initial_value", "copy_limit",
                     "election_lower", "election_upper", "election_window_s"):
            assert getattr(spec, name) == getattr(engine, name), name

    def test_unknown_protocol_rejected_eagerly(self):
        with pytest.raises(ValueError, match="protocol"):
            ExperimentSpec(protocol="GOSSIP")

    def test_faults_field_is_typed(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            ExperimentSpec(faults={"frame_loss": 0.5})
        spec = ExperimentSpec(faults=FaultSpec(frame_loss=0.5))
        assert spec.faults.frame_loss == 0.5

    def test_spec_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExperimentSpec().ttl_min = 10.0

    def test_with_helpers_return_new_specs(self):
        spec = ExperimentSpec()
        assert spec.with_protocol("PUSH").protocol == "PUSH"
        assert spec.with_ttl(60.0).ttl_min == 60.0
        assert spec.with_df(0.1).df_per_min == 0.1
        faults = FaultSpec(frame_loss=0.2)
        assert spec.with_faults(faults).faults is faults
        assert spec.faults is None  # original untouched


class TestSweepGuards:
    def test_exactly_one_axis_required(self, trace):
        with pytest.raises(TypeError, match="exactly one"):
            sweep(trace)
        with pytest.raises(TypeError, match="exactly one"):
            sweep(trace, ttl_min=[60.0], df_per_min=[0.1])

    def test_protocols_invalid_for_df_axis(self, trace):
        with pytest.raises(TypeError, match="TTL sweep"):
            sweep(trace, df_per_min=[0.1], protocols=["B-SUB"])


class TestEntryPoints:
    def test_run_never_warns(self, trace):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run(trace, ExperimentSpec(**CONFIG))
