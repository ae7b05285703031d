"""Golden-trace regression tests.

Pin SHA-256 digests of the canonical JSONL event trace (and of the
metrics-registry JSON) produced by seeded mini-runs.  Any behavioural
drift in the protocol — an extra merge, a reordered forward, a changed
counter value — changes the digest and fails these tests.

If a digest changes because of an *intentional* protocol or
instrumentation change, re-derive the constants below by running the
scenario (see ``conftest.MINI_FIG7_TRACE`` / ``MINI_FIG7_CONFIG``) and
pasting the new ``obs.tracer.digest()`` value; mention the re-pin in
the commit message.
"""

import hashlib
import json

from repro.api import ExperimentSpec, run
from repro.obs import EVENT_TYPES, Observability, read_trace
from repro.traces import haggle_like

from .conftest import run_mini_fig7

# Mini Fig. 7 (Haggle-style run, 32-bit filters): conftest scenario.
# Re-pinned for trace schema 2 (create/sim_end lifecycle events plus
# match/cause provenance fields); every pre-existing protocol event
# count is unchanged from the schema-1 pin, and the registry digest is
# byte-identical — the schema bump only *added* information.
MINI_FIG7_TRACE_DIGEST = (
    "1db980a5f9dadc271604ec728eb20692ac4bcde79785a7bd392f1dbde3a9ed7f"
)
MINI_FIG7_REGISTRY_DIGEST = (
    "8f99655406707da01692e0f5e1de0b4b33ca93d430a11ae9b684391b43c6c703"
)
MINI_FIG7_EVENT_COUNTS = {
    "create": 80946,
    "contact": 719,
    "a_merge": 1238,
    "m_merge": 1040,
    "decay_tick": 1436,
    "forward": 9943,
    "delivery": 4078,
    "false_injection": 142,
    "broker_role": 70,
    # Fault events exist in the vocabulary but never fire without an
    # enabled FaultSpec — zeros are part of the golden identity.
    "frame_dropped": 0,
    "frame_truncated": 0,
    "node_crashed": 0,
    "node_recovered": 0,
    "sim_end": 1,
}

#: The event types a *fault-free* run must exercise.
PROTOCOL_EVENT_TYPES = tuple(
    t for t in EVENT_TYPES
    if t not in ("frame_dropped", "frame_truncated",
                 "node_crashed", "node_recovered")
)

# Mini Fig. 9 (DF sweep at two decay factors, same trace/geometry).
MINI_FIG9_TRACE = dict(scale=0.01, seed=5)
MINI_FIG9_DIGESTS = {
    0.1: "5b7394219b26a3aaf85c96d0a0e7b9bdf1ecfc1a6bc82bd563045cf555b98c76",
    2.0: "01c8dc29ee1a6443a7c8d59e8763f9e2ae1cfe76eaed3cf1bbd167645aa377ba",
}


class TestMiniFig7Golden:
    def test_trace_digest_pinned(self, mini_fig7):
        obs, _ = mini_fig7
        assert obs.tracer.digest() == MINI_FIG7_TRACE_DIGEST

    def test_event_counts_pinned(self, mini_fig7):
        obs, _ = mini_fig7
        assert obs.tracer.counts() == MINI_FIG7_EVENT_COUNTS

    def test_all_protocol_event_types_occur(self, mini_fig7):
        obs, _ = mini_fig7
        counts = obs.tracer.counts()
        assert all(counts[t] > 0 for t in PROTOCOL_EVENT_TYPES), counts
        # Fault-free runs must never emit fault events.
        assert all(
            counts[t] == 0
            for t in EVENT_TYPES if t not in PROTOCOL_EVENT_TYPES
        ), counts

    def test_registry_digest_pinned(self, mini_fig7):
        obs, _ = mini_fig7
        digest = hashlib.sha256(obs.registry.to_json().encode()).hexdigest()
        assert digest == MINI_FIG7_REGISTRY_DIGEST

    def test_same_seed_reproduces_trace_exactly(self, mini_fig7):
        obs, _ = mini_fig7
        repeat = Observability.enabled()
        run_mini_fig7(repeat)
        assert repeat.tracer.digest() == obs.tracer.digest()
        assert repeat.registry.to_json() == obs.registry.to_json()

    def test_trace_survives_jsonl_roundtrip(self, mini_fig7, tmp_path):
        obs, _ = mini_fig7
        path = tmp_path / "mini_fig7.jsonl"
        count = obs.tracer.write_jsonl(str(path))
        assert count == len(obs.tracer.events)
        events = list(read_trace(str(path)))
        assert events == obs.tracer.events
        # The first line is the schema meta header; every following
        # line is valid, canonical, self-describing JSON.
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "trace_meta"
        for line in lines[1:]:
            record = json.loads(line)
            assert record["type"] in EVENT_TYPES
            assert record["seq"] >= 0

    def test_event_times_monotone_per_sequence(self, mini_fig7):
        # seq is emit order; simulation time may only move forward
        # between contacts, and every protocol event carries the time
        # of its enclosing contact.
        obs, _ = mini_fig7
        contact_times = [e.t for e in obs.tracer.events_of("contact")]
        assert contact_times == sorted(contact_times)


class TestMiniFig9Golden:
    def test_df_sweep_digests_pinned(self):
        trace = haggle_like(**MINI_FIG9_TRACE)
        for df, expected in MINI_FIG9_DIGESTS.items():
            spec = ExperimentSpec(
                ttl_min=120.0,
                min_rate_per_s=1 / 1800.0,
                num_bits=32,
                num_hashes=2,
                df_per_min=df,
            )
            obs = Observability.enabled()
            run(trace, spec, obs=obs)
            assert obs.tracer.digest() == expected, f"DF={df}"
