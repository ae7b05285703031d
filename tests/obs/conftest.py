"""Shared fixtures for the observability test suite.

The golden, invariant, and overhead tests all study the same seeded
mini-run (a scaled-down Fig. 7 Haggle scenario with deliberately tiny
32-bit filters so Bloom false positives — and hence every event type —
actually occur).  The instrumented run is session-scoped so the
simulation executes once, however many tests inspect it.
"""

import pytest

from repro.api import ExperimentSpec, run
from repro.obs import Observability
from repro.traces import haggle_like

# The mini Fig. 7 scenario: small enough to run in seconds, rich enough
# to exercise all eight event types.  These parameters are part of the
# golden-trace identity — changing any of them invalidates the pinned
# digests in test_golden_trace.py.
MINI_FIG7_TRACE = dict(scale=0.01, seed=3)
MINI_FIG7_CONFIG = dict(
    ttl_min=120.0,
    min_rate_per_s=1 / 1800.0,
    num_bits=32,
    num_hashes=2,
)


def run_mini_fig7(obs=None):
    """One fresh instrumented (or plain) run of the mini Fig. 7 scenario."""
    trace = haggle_like(**MINI_FIG7_TRACE)
    return run(trace, ExperimentSpec(**MINI_FIG7_CONFIG), obs=obs)


@pytest.fixture(scope="session")
def mini_fig7():
    """(Observability, RunResult) for one instrumented mini Fig. 7 run."""
    obs = Observability.enabled()
    result = run_mini_fig7(obs)
    return obs, result
