"""Batch lifecycle across scheduling phases (paper Section 4).

``Batch(0)`` holds the initially arrived tasks.  At the end of phase ``j``,
``Batch(j+1)`` is formed by removing the tasks scheduled in phase ``j`` and
the tasks whose deadlines were missed while waiting, and by adding the tasks
that arrived during phase ``j``.  Scheduled tasks never re-enter a batch.

Most of ``Batch(j)`` carries over into ``Batch(j+1)``, so the batch keeps
its members in EDF order as it changes instead of sorting every phase:
admission inserts in place, removals only mark the order stale, and one
compaction pass drops the removed entries before the order is next read
or inserted into.  Invariant: after compaction the order holds every
member exactly once, sorted by :data:`~repro.core.task.edf_key`.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterable, List, Optional, Tuple

from .task import Task


class Batch:
    """The scheduler's working set of unscheduled, still-viable tasks."""

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        #: Members by id, in admission order.
        self._tasks: Dict[int, Task] = {}
        #: ``(deadline, task_id, task)`` in EDF order; may hold removed
        #: members while ``_stale`` is set.
        self._order: List[Tuple[float, int, Task]] = []
        self._stale = False
        self.phase_index = 0
        self.total_admitted = 0
        self.total_scheduled = 0
        self.total_expired = 0
        self.total_withdrawn = 0
        self.add_arrivals(tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __bool__(self) -> bool:
        return bool(self._tasks)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tasks

    def tasks(self) -> List[Task]:
        """Current members in admission order."""
        return list(self._tasks.values())

    def edf_order(self) -> List[Task]:
        """Current members sorted by deadline (the phase's task order)."""
        self._compact()
        return [entry[2] for entry in self._order]

    def _compact(self) -> None:
        """Drop the order entries of removed members (one pass, if stale).

        Runs before every read and every insert, so a task removed and
        then re-admitted (surrendered, or its delivery declined) is in
        the order once.
        """
        if self._stale:
            members = self._tasks
            self._order = [
                entry for entry in self._order if entry[1] in members
            ]
            self._stale = False

    def _remove(self, task_id: int) -> Optional[Task]:
        """Pop one member (``None`` if absent); the order goes stale."""
        task = self._tasks.pop(task_id, None)
        if task is not None:
            self._stale = True
        return task

    def add_arrivals(self, tasks: Iterable[Task]) -> int:
        """Admit newly arrived tasks; returns how many were admitted."""
        self._compact()
        added = 0
        for task in tasks:
            if task.task_id in self._tasks:
                raise ValueError(
                    f"task {task.task_id} already in batch"
                )
            self._tasks[task.task_id] = task
            insort(self._order, (task.deadline, task.task_id, task))
            added += 1
        self.total_admitted += added
        return added

    def remove_scheduled(self, task_ids: Iterable[int]) -> List[Task]:
        """Remove tasks scheduled in the finishing phase; never re-admitted."""
        removed = []
        for task_id in task_ids:
            task = self._remove(task_id)
            if task is None:
                raise KeyError(f"task {task_id} not in batch")
            removed.append(task)
        self.total_scheduled += len(removed)
        return removed

    def withdraw(self, task_ids: Iterable[int]) -> List[Task]:
        """Remove tasks shed by an admission policy before any phase took them.

        Unlike :meth:`remove_scheduled`, missing ids are skipped (the task
        may have expired or been scheduled since the shed decision) and the
        removals count as ``total_withdrawn``, not ``total_scheduled``.
        """
        withdrawn = []
        for task_id in task_ids:
            task = self._remove(task_id)
            if task is not None:
                withdrawn.append(task)
        self.total_withdrawn += len(withdrawn)
        return withdrawn

    def drop_expired(self, now: float) -> List[Task]:
        """Evict tasks satisfying ``p_i + t_c > d_i`` (hopeless at ``now``)."""
        # Task.is_expired's expression, inlined: this scans every member
        # every phase.
        expired = [
            t
            for t in self._tasks.values()
            if now + t.processing_time > t.deadline
        ]
        for task in expired:
            self._remove(task.task_id)
        self.total_expired += len(expired)
        return expired

    def advance_phase(self) -> int:
        """Mark the transition ``Batch(j) -> Batch(j+1)``; returns new index."""
        self.phase_index += 1
        return self.phase_index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Batch(j={self.phase_index}, size={len(self._tasks)}, "
            f"scheduled={self.total_scheduled}, expired={self.total_expired})"
        )
