"""Tests for communication models and affinity helpers."""

import random

import pytest

from repro.core import (
    DistanceCommunicationModel,
    UniformCommunicationModel,
    ZeroCommunicationModel,
    affinity_degree,
    make_task,
    random_affinity,
)
from repro.core.affinity import AffinityProjection, project_tasks


def _task(affinity, p=10.0):
    return make_task(0, processing_time=p, deadline=1000.0, affinity=affinity)


class TestUniformCommunicationModel:
    def test_affine_processor_is_free(self):
        model = UniformCommunicationModel(remote_cost=50.0)
        assert model.cost(_task([1]), 1) == 0.0

    def test_non_affine_processor_costs_constant(self):
        model = UniformCommunicationModel(remote_cost=50.0)
        assert model.cost(_task([1]), 0) == 50.0
        assert model.cost(_task([1]), 3) == 50.0  # distance-independent

    def test_execution_cost_adds_processing_time(self):
        model = UniformCommunicationModel(remote_cost=50.0)
        assert model.execution_cost(_task([1], p=10.0), 0) == 60.0
        assert model.execution_cost(_task([1], p=10.0), 1) == 10.0

    def test_cheapest_cost(self):
        model = UniformCommunicationModel(remote_cost=50.0)
        assert model.cheapest_cost(_task([1], p=10.0), range(4)) == 10.0

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            UniformCommunicationModel(remote_cost=-1.0)

    def test_zero_remote_cost_allowed(self):
        model = UniformCommunicationModel(remote_cost=0.0)
        assert model.cost(_task([1]), 0) == 0.0


class TestZeroCommunicationModel:
    def test_always_free(self):
        model = ZeroCommunicationModel()
        assert model.cost(_task([1]), 0) == 0.0
        assert model.cost(_task([]), 7) == 0.0


class TestDistanceCommunicationModel:
    def test_affine_is_free(self):
        model = DistanceCommunicationModel(per_hop_cost=5.0, num_processors=8)
        assert model.cost(_task([3]), 3) == 0.0

    def test_cost_grows_with_distance(self):
        model = DistanceCommunicationModel(per_hop_cost=5.0, num_processors=8)
        assert model.cost(_task([0]), 1) == 5.0
        assert model.cost(_task([0]), 4) == 20.0

    def test_uses_nearest_affine_processor(self):
        model = DistanceCommunicationModel(per_hop_cost=5.0, num_processors=8)
        assert model.cost(_task([0, 6]), 5) == 5.0  # 5 is 1 hop from 6

    def test_empty_affinity_is_free(self):
        model = DistanceCommunicationModel(per_hop_cost=5.0, num_processors=8)
        assert model.cost(_task([]), 5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceCommunicationModel(per_hop_cost=-1.0, num_processors=4)
        with pytest.raises(ValueError):
            DistanceCommunicationModel(per_hop_cost=1.0, num_processors=0)


class TestRandomAffinity:
    def test_never_empty(self):
        rng = random.Random(0)
        for _ in range(200):
            affinity = random_affinity(8, 0.0, rng)
            assert len(affinity) == 1  # forced single home

    def test_full_probability_gives_all_processors(self):
        rng = random.Random(0)
        assert random_affinity(8, 1.0, rng) == frozenset(range(8))

    def test_probability_validated(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            random_affinity(8, 1.5, rng)
        with pytest.raises(ValueError):
            random_affinity(0, 0.5, rng)

    def test_mean_degree_tracks_probability(self):
        rng = random.Random(42)
        m, p, n = 10, 0.3, 2000
        sizes = [len(random_affinity(m, p, rng)) for _ in range(n)]
        mean_degree = sum(sizes) / (n * m)
        # Forced-home inflates the degree slightly above p at low p.
        assert 0.28 <= mean_degree <= 0.38

    def test_members_in_range(self):
        rng = random.Random(3)
        for _ in range(100):
            affinity = random_affinity(5, 0.4, rng)
            assert all(0 <= member < 5 for member in affinity)


class TestAffinityDegree:
    def test_empty_inputs(self):
        assert affinity_degree([], 4) == 0.0
        assert affinity_degree([_task([0])], 0) == 0.0

    def test_computes_mean_fraction(self):
        tasks = [_task([0, 1]), _task([2])]
        # (2 + 1) / (2 tasks * 4 processors)
        assert affinity_degree(tasks, 4) == pytest.approx(3 / 8)


class TestAffinityProjection:
    """The per-host memoizing form of ``project_tasks``."""

    @staticmethod
    def _batch(rng, ids, workers=range(8)):
        return [
            make_task(
                i,
                10.0,
                500.0,
                affinity=rng.sample(list(workers), rng.randint(0, 4)),
            )
            for i in ids
        ]

    def test_every_result_equals_project_tasks(self):
        rng = random.Random(1998)
        workers = (6, 1, 3, 4)
        projection = AffinityProjection(workers)
        batch = self._batch(rng, range(20))
        for _ in range(10):
            # Batch(j+1): some tasks leave, some arrive, most carry over.
            kept = [t for t in batch if rng.random() < 0.7]
            start = max(t.task_id for t in batch) + 1
            batch = kept + self._batch(rng, range(start, start + 5))
            rng.shuffle(batch)
            assert projection.project(batch) == project_tasks(batch, workers)

    def test_carried_over_task_is_served_from_the_memo(self):
        task = make_task(0, 10.0, 500.0, affinity=[3])
        projection = AffinityProjection((2, 3))
        (first,) = projection.project([task])
        (second,) = projection.project([task])
        assert first.affinity == frozenset({1})
        assert second is first

    def test_changed_worker_tuple_reprojects(self):
        tasks = self._batch(random.Random(7), range(12))
        projection = AffinityProjection((0, 1, 2, 3))
        projection.project(tasks)
        assert projection.for_workers([0, 1, 2, 3]) is projection
        survivors = projection.for_workers([0, 2, 3])
        assert survivors is not projection
        assert survivors._memo == {}
        assert survivors.project(tasks) == project_tasks(tasks, (0, 2, 3))

    def test_new_task_object_with_reused_id_is_not_served_stale(self):
        projection = AffinityProjection((4, 5))
        (old,) = projection.project([make_task(9, 10.0, 500.0, affinity=[4])])
        reused = make_task(9, 10.0, 500.0, affinity=[5])
        (new,) = projection.project([reused])
        assert old.affinity == frozenset({0})
        assert new.affinity == frozenset({1})

    def test_memo_never_exceeds_the_last_batch(self):
        rng = random.Random(3)
        projection = AffinityProjection((0, 2, 4, 6))
        for size in (30, 5, 0, 12, 1):
            batch = self._batch(rng, rng.sample(range(100), size))
            projection.project(batch)
            assert len(projection._memo) == size
