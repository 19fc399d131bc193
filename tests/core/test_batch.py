"""Tests for the batch lifecycle (paper Section 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Batch, make_task
from repro.core.task import edf_key


def _task(task_id, p=10.0, d=100.0):
    return make_task(task_id, processing_time=p, deadline=d)


class TestBatchMembership:
    def test_starts_empty(self):
        batch = Batch()
        assert len(batch) == 0
        assert not batch

    def test_add_arrivals(self):
        batch = Batch()
        added = batch.add_arrivals([_task(0), _task(1)])
        assert added == 2
        assert len(batch) == 2
        assert 0 in batch and 1 in batch

    def test_duplicate_arrival_rejected(self):
        batch = Batch([_task(0)])
        with pytest.raises(ValueError):
            batch.add_arrivals([_task(0)])

    def test_edf_order(self):
        batch = Batch([_task(0, d=300.0), _task(1, d=100.0), _task(2, d=200.0)])
        assert [t.task_id for t in batch.edf_order()] == [1, 2, 0]

    def test_tasks_in_admission_order(self):
        batch = Batch([_task(3), _task(1)])
        assert [t.task_id for t in batch.tasks()] == [3, 1]


class TestBatchLifecycle:
    def test_scheduled_tasks_removed(self):
        """Paper: tasks in Batch(j) do not enter Batch(j+1) if scheduled."""
        batch = Batch([_task(0), _task(1), _task(2)])
        removed = batch.remove_scheduled([0, 2])
        assert {t.task_id for t in removed} == {0, 2}
        assert len(batch) == 1
        assert batch.total_scheduled == 2
        assert 0 not in batch and 2 not in batch

    def test_remove_unknown_raises(self):
        batch = Batch([_task(0)])
        with pytest.raises(KeyError):
            batch.remove_scheduled([5])

    def test_drop_expired_uses_paper_predicate(self):
        batch = Batch([
            _task(0, p=10.0, d=100.0),
            _task(1, p=10.0, d=50.0),
        ])
        expired = batch.drop_expired(now=45.0)  # 10 + 45 > 50
        assert [t.task_id for t in expired] == [1]
        assert len(batch) == 1
        assert batch.total_expired == 1

    def test_drop_expired_boundary_keeps_task(self):
        batch = Batch([_task(0, p=10.0, d=50.0)])
        assert batch.drop_expired(now=40.0) == []

    def test_phase_counter(self):
        batch = Batch()
        assert batch.phase_index == 0
        assert batch.advance_phase() == 1
        assert batch.advance_phase() == 2

    def test_full_cycle_invariant(self):
        """admitted == scheduled + expired + remaining at all times."""
        batch = Batch([_task(i, d=100.0 + i) for i in range(10)])
        batch.remove_scheduled([0, 1, 2])
        batch.drop_expired(now=95.0)
        assert (
            batch.total_admitted
            == batch.total_scheduled + batch.total_expired + len(batch)
        )


class TestBatchWithdraw:
    def test_withdraw_removes_without_counting_scheduled(self):
        batch = Batch([_task(0), _task(1), _task(2)])
        withdrawn = batch.withdraw([1])
        assert [t.task_id for t in withdrawn] == [1]
        assert len(batch) == 2
        assert batch.total_withdrawn == 1
        assert batch.total_scheduled == 0

    def test_withdraw_tolerates_missing_ids(self):
        batch = Batch([_task(0)])
        withdrawn = batch.withdraw([0, 99])
        assert [t.task_id for t in withdrawn] == [0]
        assert batch.total_withdrawn == 1

    def test_withdrawn_task_can_rearrive(self):
        """A shed submission's id leaves the batch entirely."""
        batch = Batch([_task(0)])
        batch.withdraw([0])
        assert 0 not in batch
        batch.add_arrivals([_task(0)])
        assert 0 in batch


# ----- EDF order kept across interleaved admissions and removals ----------

_DEADLINES = (50.0, 80.0, 80.0, 120.0, 200.0)  # repeats force id tie-breaks

_steps = st.one_of(
    st.tuples(
        st.just("add"),
        st.lists(st.integers(0, 11), max_size=4),
        st.sampled_from(_DEADLINES),
    ),
    st.tuples(st.just("schedule"), st.lists(st.integers(0, 11), max_size=4)),
    st.tuples(st.just("withdraw"), st.lists(st.integers(0, 11), max_size=4)),
    st.tuples(st.just("expire"), st.floats(0.0, 190.0)),
    # Leave and come straight back (surrender after a crash, declined
    # delivery): the same object, or a fresh copy with a new deadline.
    st.tuples(
        st.just("readmit"),
        st.integers(0, 11),
        st.sampled_from((None,) + _DEADLINES),
    ),
)


class TestBatchEdfOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_steps, max_size=30))
    def test_order_matches_a_fresh_sort_after_every_step(self, steps):
        batch = Batch()
        model = {}  # task_id -> Task, in admission order
        for step in steps:
            kind = step[0]
            if kind == "add":
                fresh = [
                    _task(i, d=step[2])
                    for i in dict.fromkeys(step[1])
                    if i not in model
                ]
                batch.add_arrivals(fresh)
                model.update((t.task_id, t) for t in fresh)
            elif kind == "schedule":
                present = [i for i in dict.fromkeys(step[1]) if i in model]
                batch.remove_scheduled(present)
                for i in present:
                    del model[i]
            elif kind == "withdraw":
                batch.withdraw(step[1])
                for i in step[1]:
                    model.pop(i, None)
            elif kind == "expire":
                for task in batch.drop_expired(step[1]):
                    del model[task.task_id]
            else:
                task_id, deadline = step[1], step[2]
                if task_id not in model:
                    continue
                task = model.pop(task_id)
                batch.withdraw([task_id])
                if deadline is not None:
                    task = _task(task_id, d=deadline)
                batch.add_arrivals([task])
                model[task_id] = task
            order = batch.edf_order()
            assert order == sorted(batch.tasks(), key=edf_key)
            assert len({t.task_id for t in order}) == len(order)
            assert len(batch) == len(order) == len(model)
            assert batch.tasks() == list(model.values())
