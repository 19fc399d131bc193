"""Tests for the experiment runner."""

import dataclasses

import pytest

from repro.core import DCOLS, RTSADS, GreedyEDFScheduler, UniformCommunicationModel
from repro.core.quantum import FixedQuantum
from repro.database.database import DistributedDatabase
from repro.experiments import (
    ExperimentConfig,
    build_scheduler,
    build_workload,
    figure5,
    run_cell,
    run_once,
    shard_curve,
)
from repro.experiments import runner
from repro.experiments.config import WORKLOAD_FIELDS
from repro.experiments.runner import workload_key, workload_tasks

TINY = ExperimentConfig.quick(
    num_transactions=40, runs=2, num_processors=3
)


class TestBuildScheduler:
    def setup_method(self):
        self.comm = UniformCommunicationModel(10.0)

    @pytest.mark.parametrize(
        "name,cls",
        [("rtsads", RTSADS), ("dcols", DCOLS),
         ("greedy_edf", GreedyEDFScheduler)],
    )
    def test_registry(self, name, cls):
        scheduler = build_scheduler(name, TINY, self.comm)
        assert isinstance(scheduler, cls)
        assert scheduler.per_vertex_cost == TINY.per_vertex_cost

    def test_quantum_policy_override(self):
        scheduler = build_scheduler(
            "rtsads", TINY, self.comm, quantum_policy=FixedQuantum(9.0)
        )
        assert isinstance(scheduler.quantum_policy, FixedQuantum)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_scheduler("bogus", TINY, self.comm)


class TestBuildWorkload:
    def test_workload_matches_config(self):
        database, tasks = build_workload(TINY, seed=1)
        assert len(tasks) == 40
        assert database.config.num_subdatabases == TINY.num_subdatabases
        assert database.placement.num_processors == 3

    def test_seed_controls_workload(self):
        _, a = build_workload(TINY, seed=1)
        _, b = build_workload(TINY, seed=1)
        _, c = build_workload(TINY, seed=2)
        assert [t.processing_time for t in a] == [t.processing_time for t in b]
        assert [t.processing_time for t in a] != [t.processing_time for t in c]


class TestRunOnce:
    def test_produces_valid_result(self):
        result = run_once(TINY, "rtsads", seed=1, validate_phases=True)
        assert result.trace.total_tasks() == 40
        assert result.trace.scheduled_but_missed() == []

    def test_deterministic(self):
        a = run_once(TINY, "dcols", seed=3)
        b = run_once(TINY, "dcols", seed=3)
        assert a.hit_ratio == b.hit_ratio


class TestRunCell:
    def test_aggregates_all_runs(self):
        cell = run_cell(TINY, "rtsads")
        assert len(cell.hit_percents) == 2
        assert 0.0 <= cell.mean_hit_percent <= 100.0
        assert cell.scheduled_but_missed == 0

    def test_confidence_interval_available(self):
        cell = run_cell(TINY, "rtsads")
        ci = cell.hit_ci()
        assert ci is not None
        assert ci.low <= cell.mean_hit_percent <= ci.high

    def test_stats_fields_populated(self):
        cell = run_cell(TINY, "dcols")
        assert len(cell.dead_end_rates) == 2
        assert len(cell.makespans) == 2
        assert cell.mean_depth >= 0.0


@pytest.fixture
def cold_memo():
    """An empty workload memo, emptied again afterwards."""
    runner._memo_tasks.cache_clear()
    yield
    runner._memo_tasks.cache_clear()


@pytest.fixture
def build_count(monkeypatch):
    """Counts ``DistributedDatabase.build`` calls made inside the test."""
    calls = []
    original = DistributedDatabase.build.__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(DistributedDatabase, "build", classmethod(counting))
    return calls


class TestWorkloadMemo:
    @pytest.mark.parametrize(
        "processors,replication,seed",
        [(2, 0.3, 1), (3, 0.1, 7), (5, 0.6, 1998), (3, 1.0, 2)],
    )
    def test_equals_a_fresh_build(self, processors, replication, seed):
        config = TINY.with_processors(processors).with_replication(
            replication
        )
        fresh = tuple(build_workload(config, seed)[1])
        assert workload_tasks(config, seed) == fresh
        assert isinstance(workload_tasks(config, seed), tuple)

    def test_every_field_is_classified(self, cold_memo):
        """Workload fields change the key and the tasks; others share."""
        base = TINY
        baseline = workload_tasks(base, 1)
        bumped = {
            "num_transactions": 41,
            "slack_factor": 1.5,
            "num_subdatabases": 11,
            "records_per_subdb": 201,
            "num_attributes": 11,
            "domain_size": 21,
            "key_probability": 0.5,
            "num_processors": 4,
            "replication_rate": 0.4,
            "remote_cost": 81.0,
            "per_vertex_cost": 0.03,
            "runs": 3,
            "base_seed": 1999,
            "confidence": 0.95,
            "significance_level": 0.05,
            "backend": "cluster",
            "scheduler": "edf",
            "arrival": "poisson",
            "offered_load": 1.4,
            "admission_policy": "least-slack",
            "domains": 2,
            "partition_policy": "worst-fit",
        }
        assert set(base.cache_fields()) == set(bumped), (
            "a new ExperimentConfig field joined cache_fields(); classify "
            "it in WORKLOAD_FIELDS or not, and bump it here"
        )
        assert set(WORKLOAD_FIELDS) <= set(bumped)
        for name, value in bumped.items():
            changed = dataclasses.replace(base, **{name: value})
            tasks = workload_tasks(changed, 1)
            if name in WORKLOAD_FIELDS:
                assert workload_key(changed) != workload_key(base), name
                assert tasks != baseline, name
            else:
                assert workload_key(changed) == workload_key(base), name
                assert tasks is baseline, name
                assert tasks == tuple(build_workload(changed, 1)[1]), name

    def test_figure5_builds_each_workload_once(self, cold_memo, build_count):
        config = ExperimentConfig.quick(num_transactions=60, runs=1)
        figure5(config, processors=(2, 3))
        # One build per (m, seed): both schedulers and the oracle share it.
        assert len(build_count) == 2

    def test_shard_curve_builds_each_workload_once(
        self, cold_memo, build_count
    ):
        config = ExperimentConfig.quick(num_transactions=60, runs=1)
        shard_curve(config, processors=(4, 8), domains=(1, 2))
        # Every domain count shares the (m, seed) workload.
        assert len(build_count) == 2

    def test_memo_is_bounded(self):
        assert runner._memo_tasks.cache_info().maxsize is not None
