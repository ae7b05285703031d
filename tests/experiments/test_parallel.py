"""Tests for the parallel sweep/replication execution layer."""

import dataclasses
import math
import os

import pytest

from repro.api import replicate, sweep
from repro.experiments import ExperimentSpec
from repro.experiments.parallel import RunTask, execute_tasks, resolve_jobs
from repro.traces.synthetic import haggle_like


def assert_summaries_equal(a, b):
    """Field-wise equality that treats NaN == NaN (empty-cell metrics).

    A summary that crosses a process boundary gets fresh NaN objects, so
    the dataclass identity shortcut that makes ``nan == nan`` pass
    in-process does not apply; compare values explicitly instead.
    """
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb), field.name
        else:
            assert va == vb, field.name


class TestResolveJobs:
    def test_none_means_serial(self):
        assert resolve_jobs(None) == 1

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_nonpositive_means_all_cpus(self):
        cpus = os.cpu_count() or 1
        assert resolve_jobs(0) == cpus
        assert resolve_jobs(-1) == cpus


@pytest.fixture(scope="module")
def small_trace():
    return haggle_like(scale=0.01, seed=3)


@pytest.fixture(scope="module")
def small_spec():
    return ExperimentSpec(interests_per_node=2, min_rate_per_s=1 / 3600.0)


class TestExecuteTasks:
    def test_empty_task_list(self):
        assert execute_tasks([], jobs=4) == []

    def test_serial_runs_in_order(self, small_trace, small_spec):
        spec = small_spec.with_ttl(240).with_df(0.1)
        tasks = [
            RunTask(small_trace, spec.with_protocol(name))
            for name in ("PUSH", "PULL")
        ]
        results = execute_tasks(tasks, jobs=1)
        assert [r.protocol for r in results] == ["PUSH", "PULL"]

    def test_parallel_matches_serial(self, small_trace, small_spec):
        spec = small_spec.with_ttl(240).with_df(0.1)
        tasks = [
            RunTask(small_trace, spec.with_protocol(name))
            for name in ("PUSH", "B-SUB", "PULL")
        ]
        serial = execute_tasks(tasks, jobs=1)
        parallel = execute_tasks(tasks, jobs=2)
        assert [r.protocol for r in parallel] == [r.protocol for r in serial]
        for s, p in zip(serial, parallel):
            assert_summaries_equal(s.summary, p.summary)
            assert s.decay_factor_per_min == p.decay_factor_per_min
            assert s.engine.bytes_transferred == p.engine.bytes_transferred


class TestSweepJobs:
    def test_ttl_sweep_parallel_identical(self, small_trace, small_spec):
        kwargs = dict(ttl_min=[120.0, 360.0], protocols=("PUSH", "PULL"))
        serial = sweep(small_trace, small_spec, jobs=1, **kwargs)
        parallel = sweep(small_trace, small_spec, jobs=2, **kwargs)
        assert serial.keys() == parallel.keys()
        for name in serial:
            assert [r.ttl_min for r in serial[name]] == [120.0, 360.0]
            for s, p in zip(serial[name], parallel[name]):
                assert_summaries_equal(s.summary, p.summary)

    def test_df_sweep_parallel_identical(self, small_trace, small_spec):
        spec = small_spec.with_ttl(240.0)
        serial = sweep(small_trace, spec, df_per_min=[0.0, 0.5], jobs=1)
        parallel = sweep(small_trace, spec, df_per_min=[0.0, 0.5], jobs=2)
        assert [r.decay_factor_per_min for r in serial] == [0.0, 0.5]
        for s, p in zip(serial, parallel):
            assert_summaries_equal(s.summary, p.summary)


class TestReplicationJobs:
    def test_run_replicated_parallel_identical(self, small_spec):
        def factory(seed):
            return haggle_like(scale=0.01, seed=seed)

        spec = small_spec.with_ttl(240).with_df(0.1)
        serial = replicate(factory, spec, seeds=(0, 1), jobs=1)
        parallel = replicate(factory, spec, seeds=(0, 1), jobs=2)
        for metric in serial.metrics:
            sm, pm = serial.metrics[metric], parallel.metrics[metric]
            assert sm.count == pm.count
            if math.isnan(sm.mean):
                assert math.isnan(pm.mean)
            else:
                assert sm.mean == pm.mean and sm.std == pm.std
        for s, p in zip(serial.runs, parallel.runs):
            assert_summaries_equal(s.summary, p.summary)
