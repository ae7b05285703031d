"""The passive fast path must be indistinguishable from the full loop.

``Simulation.run`` takes an array-level shortcut for passive protocols
(no handlers, no workload, no recorder, no faults).  These tests pin
that the shortcut produces the exact report the general event loop
would, and that every condition that disqualifies the shortcut really
routes through the general loop.

Both paths walk the trace in ``REPLAY_CHUNK_SIZE`` row chunks, and the
traces here fit in one default chunk, so the chunk-edge tests shrink
the chunk to a few rows: the reports (and full protocol runs) must not
depend on where the edges fall.
"""

import math

import pytest

from repro.api import ExperimentSpec, run
from repro.dtn import MessageEvent, PassiveProtocol, Simulation
from repro.dtn import simulator
from repro.dtn.simulator import SimulationReport
from repro.faults import FaultSpec
from repro.obs import Observability
from repro.traces import ContactTrace, haggle_like
from repro.traces.backends import TRACE_BACKENDS
from repro.traces.model import Contact

#: The Fig. 7 sweep's base spec at the golden-digest settings and the
#: Fig. 9 DF-sweep shape (explicit DF, 20 h TTL).
FIG7_SPEC = ExperimentSpec(
    protocol="B-SUB", ttl_min=120.0, num_bits=32, num_hashes=2
)
FIG9_SPEC = ExperimentSpec(
    protocol="B-SUB", ttl_min=1200.0, df_per_min=0.138,
    num_bits=32, num_hashes=2,
)
FAULTED_FIG7_SPEC = FIG7_SPEC.with_faults(
    FaultSpec(frame_loss=0.2, crash_rate_per_day=2.0,
              mean_downtime_s=3600.0, seed=5)
)


class _PassiveViaGeneralLoop(PassiveProtocol):
    """Handler-free protocol that is *not* flagged passive.

    Runs through the general per-contact loop, giving the ground-truth
    report the fast path must reproduce.
    """

    name = "PASSIVE-GENERAL"
    passive = False


def _reports_equal(first: SimulationReport, second: SimulationReport):
    assert first.num_contacts == second.num_contacts
    assert first.num_messages_created == second.num_messages_created
    assert first.end_time == second.end_time
    assert first.bytes_transferred == second.bytes_transferred
    assert first.refused_transfers == second.refused_transfers
    assert first.channels_exhausted == second.channels_exhausted
    assert dict(first.contacts_by_node) == dict(second.contacts_by_node)
    assert dict(first.tx_bytes_by_node) == dict(second.tx_bytes_by_node)
    assert dict(first.rx_bytes_by_node) == dict(second.rx_bytes_by_node)


@pytest.fixture(scope="module")
def trace():
    return haggle_like(scale=0.01, seed=11)


@pytest.mark.parametrize("backend", TRACE_BACKENDS)
@pytest.mark.parametrize("rate_bps", [None, 64.0, 2.1e6 / 8])
def test_fast_path_matches_general_loop(trace, backend, rate_bps):
    replica = ContactTrace(list(trace), name=trace.name, backend=backend)
    fast = Simulation(replica, PassiveProtocol(), rate_bps=rate_bps).run()
    slow = Simulation(
        replica, _PassiveViaGeneralLoop(), rate_bps=rate_bps
    ).run()
    _reports_equal(fast, slow)


@pytest.mark.parametrize("backend", TRACE_BACKENDS)
def test_empty_trace(backend):
    empty = ContactTrace([], nodes=range(4), backend=backend)
    fast = Simulation(empty, PassiveProtocol()).run()
    slow = Simulation(empty, _PassiveViaGeneralLoop()).run()
    _reports_equal(fast, slow)
    assert fast.num_contacts == 0
    assert fast.end_time == 0.0


def test_negative_node_ids_counted_correctly():
    # The fast path's bincount shortcut needs dense non-negative ids;
    # negative ids must fall back to exact per-node counting.
    contacts = [
        Contact.make(0.0, 10.0, -3, 1),
        Contact.make(5.0, 10.0, -3, 2),
        Contact.make(7.0, 10.0, 1, 2),
    ]
    replica = ContactTrace(contacts)
    fast = Simulation(replica, PassiveProtocol()).run()
    slow = Simulation(replica, _PassiveViaGeneralLoop()).run()
    _reports_equal(fast, slow)
    assert dict(fast.contacts_by_node) == {-3: 2, 1: 2, 2: 2}


def test_recorder_disables_fast_path(trace):
    obs = Observability.enabled()
    recorded = Simulation(
        trace, PassiveProtocol(), recorder=obs.tracer
    ).run()
    plain = Simulation(trace, PassiveProtocol()).run()
    _reports_equal(recorded, plain)
    # The general loop emits one contact event per contact — proof the
    # run did not take the recorder-blind shortcut.
    assert len(obs.tracer.events_of("contact")) == trace.num_contacts


def test_workload_disables_fast_path(trace):
    events = [MessageEvent(time=0.0, node=0, message=object())]
    report = Simulation(trace, PassiveProtocol(), message_events=events).run()
    assert report.num_messages_created == 1


def _mixed_sign_contacts(trace):
    """*trace*'s contacts with node ids negated in two row windows.

    With small chunks, some chunks then hold only non-negative ids (the
    ``bincount`` path) and others negative ids (the exact per-node
    fallback), so the fast path must fold the two tallies together.
    """
    contacts = list(trace)
    return [
        Contact.make(c.start, c.duration, -1 - c.a, -1 - c.b)
        if 20 <= i < 40 or i >= len(contacts) - 5 else c
        for i, c in enumerate(contacts)
    ]


@pytest.mark.parametrize("backend", TRACE_BACKENDS)
@pytest.mark.parametrize("chunk_size", [1, 7])
def test_chunk_edges_match_general_loop(
    monkeypatch, trace, backend, chunk_size
):
    replica = ContactTrace(_mixed_sign_contacts(trace), backend=backend)
    # At 0.25 bit/s, contacts shorter than 32 s cannot carry one byte,
    # so the exhausted-channel tally is summed across chunks too.
    rate_bps = 0.25
    default = Simulation(replica, PassiveProtocol(), rate_bps=rate_bps).run()
    monkeypatch.setattr(simulator, "REPLAY_CHUNK_SIZE", chunk_size)
    fast = Simulation(replica, PassiveProtocol(), rate_bps=rate_bps).run()
    slow = Simulation(
        replica, _PassiveViaGeneralLoop(), rate_bps=rate_bps
    ).run()
    _reports_equal(fast, slow)
    _reports_equal(fast, default)
    assert list(fast.contacts_by_node) == sorted(fast.contacts_by_node)
    assert min(fast.contacts_by_node) < 0 < max(fast.contacts_by_node)
    assert 0 < fast.channels_exhausted < fast.num_contacts


def _nan_safe(summary):
    return {
        name: "nan" if isinstance(value, float) and math.isnan(value) else value
        for name, value in vars(summary).items()
    }


@pytest.mark.parametrize(
    "spec",
    [
        FIG7_SPEC,
        FIG9_SPEC,
        FIG7_SPEC.with_protocol("PUSH"),
        FIG7_SPEC.with_protocol("PULL"),
        FAULTED_FIG7_SPEC,
    ],
    ids=["fig7", "fig9", "push", "pull", "fig7-faults"],
)
def test_small_chunks_leave_runs_unchanged(monkeypatch, spec):
    # The faulted spec also crosses the per-chunk fault-quiet path,
    # which checks endpoints against one ``down_mask`` per chunk.
    small = haggle_like(scale=0.01, seed=3)
    default = run(small, spec)
    monkeypatch.setattr(simulator, "REPLAY_CHUNK_SIZE", 7)
    chunked = run(small, spec)
    _reports_equal(chunked.engine, default.engine)
    assert _nan_safe(chunked.summary) == _nan_safe(default.summary)
    assert chunked.broker_fraction == default.broker_fraction
    assert chunked.fault_accounting == default.fault_accounting
