"""Tests for bounded buffers and eviction policies."""

import pytest

from repro.pubsub.baselines import PushProtocol, _Buffer
from repro.pubsub.messages import Message
from repro.pubsub.node import BsubNodeState


def msg(key="k", ttl=100.0, created=0.0):
    return Message.create(key, 0, created, ttl)


def node(family, capacity=None, eviction="oldest"):
    return BsubNodeState(
        node_id=0,
        interests=frozenset(),
        family=family,
        initial_value=50.0,
        decay_factor=0.0,
        copy_limit=3,
        carried_capacity=capacity,
        eviction=eviction,
    )


class TestBaselineBuffer:
    def test_unbounded_by_default(self):
        buf = _Buffer()
        for i in range(100):
            buf.add(msg())
        assert len(buf) == 100

    def test_capacity_evicts_earliest_expiry(self):
        buf = _Buffer(capacity=2)
        doomed = msg(ttl=10.0)
        survivor = msg(ttl=1000.0)
        newcomer = msg(ttl=500.0)
        buf.add(doomed)
        buf.add(survivor)
        buf.add(newcomer)
        assert len(buf) == 2
        assert doomed.id not in buf
        assert survivor.id in buf and newcomer.id in buf
        assert buf.evictions == 1

    def test_re_add_existing_does_not_evict(self):
        buf = _Buffer(capacity=1)
        m = msg()
        buf.add(m)
        buf.add(m)
        assert buf.evictions == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            _Buffer(capacity=0)


class TestNodeCarriedCapacity:
    def test_oldest_eviction(self, family):
        state = node(family, capacity=2, eviction="oldest")
        doomed = msg(ttl=10.0)
        state.carry(doomed)
        state.carry(msg(ttl=1000.0))
        assert state.carry(msg(ttl=500.0))
        assert len(state.carried) == 2
        assert doomed.id not in state.carried
        assert state.evictions == 1

    def test_reject_policy(self, family):
        state = node(family, capacity=1, eviction="reject")
        state.carry(msg())
        assert not state.carry(msg())
        assert len(state.carried) == 1
        assert state.rejected_carries == 1

    def test_can_accept_carry(self, family):
        reject = node(family, capacity=1, eviction="reject")
        first = msg()
        reject.carry(first)
        assert reject.can_accept_carry(first.id)  # already held
        assert not reject.can_accept_carry(msg().id)
        oldest = node(family, capacity=1, eviction="oldest")
        oldest.carry(msg())
        assert oldest.can_accept_carry(msg().id)  # eviction makes room

    def test_unbounded_always_accepts(self, family):
        state = node(family, capacity=None)
        assert state.can_accept_carry(123)

    def test_validation(self, family):
        with pytest.raises(ValueError):
            node(family, capacity=0)
        with pytest.raises(ValueError):
            node(family, eviction="random")


class TestEndToEnd:
    def test_push_capacity_hurts_delivery(self):
        """Tiny epidemic buffers must lose messages versus unbounded."""
        from repro.api import ExperimentSpec, run
        from repro.traces.synthetic import haggle_like

        trace = haggle_like(scale=0.03, seed=14)
        base = dict(ttl_min=600.0, min_rate_per_s=1 / 3600.0)
        unbounded = run(trace, ExperimentSpec(protocol="PUSH", **base))
        starved = run(
            trace,
            ExperimentSpec(protocol="PUSH", push_buffer_capacity=5, **base),
        )
        assert (
            starved.summary.delivery_ratio < unbounded.summary.delivery_ratio
        )

    def test_bsub_runs_with_bounded_brokers(self):
        from repro.api import ExperimentSpec, run
        from repro.traces.synthetic import haggle_like

        trace = haggle_like(scale=0.03, seed=14)
        result = run(
            trace,
            ExperimentSpec(
                ttl_min=600.0,
                min_rate_per_s=1 / 3600.0,
                carried_capacity=20,
                eviction="oldest",
            ),
        )
        assert result.summary.num_messages > 0
        assert 0.0 <= result.summary.delivery_ratio <= 1.0
