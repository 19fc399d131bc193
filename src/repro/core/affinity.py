"""Communication-cost models (``c_ij``) and affinity helpers.

Section 2 of the paper: ``c_ij`` is zero if ``T_i`` has affinity with ``P_j``
(its referenced data resides in ``P_j``'s local memory) and a constant ``C``
otherwise, justified by cut-through (wormhole) routing making communication
cost independent of distance.  We implement that model
(:class:`UniformCommunicationModel`) plus a distance-based store-and-forward
model (:class:`DistanceCommunicationModel`) used only as an ablation.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Dict, Iterable, Sequence, Tuple

from .task import Task


class CommunicationModel(ABC):
    """Maps a (task, processor) pair to a communication delay ``c_ij``."""

    @abstractmethod
    def cost(self, task: Task, processor: int) -> float:
        """Communication delay incurred if ``task`` executes on ``processor``."""

    def cost_row(self, task: Task, num_processors: int) -> tuple:
        """``(cost(task, 0), ..., cost(task, m-1))`` in one call.

        The search's per-phase communication cache
        (:meth:`repro.core.search.PhaseContext.comm_row`) fills rows through
        this hook so models can produce a whole row cheaper than ``m``
        virtual-dispatch calls.  Overrides must return exactly the values
        :meth:`cost` would.
        """
        cost = self.cost
        return tuple(cost(task, k) for k in range(num_processors))

    def execution_cost(self, task: Task, processor: int) -> float:
        """Total cost ``p_i + c_ij`` of running ``task`` on ``processor``."""
        return task.processing_time + self.cost(task, processor)

    def cheapest_cost(self, task: Task, processors: Iterable[int]) -> float:
        """Minimum execution cost of ``task`` over ``processors``."""
        return min(self.execution_cost(task, p) for p in processors)


class UniformCommunicationModel(CommunicationModel):
    """The paper's wormhole-routing model: 0 if affine, else constant ``C``."""

    def __init__(self, remote_cost: float) -> None:
        if remote_cost < 0:
            raise ValueError(f"remote_cost must be non-negative, got {remote_cost}")
        self.remote_cost = remote_cost

    def cost(self, task: Task, processor: int) -> float:
        return 0.0 if task.has_affinity(processor) else self.remote_cost

    def cost_row(self, task: Task, num_processors: int) -> tuple:
        affinity = task.affinity
        remote = self.remote_cost
        return tuple(
            0.0 if k in affinity else remote for k in range(num_processors)
        )

    def __repr__(self) -> str:
        return f"UniformCommunicationModel(C={self.remote_cost})"


class ZeroCommunicationModel(CommunicationModel):
    """Shared-memory idealization: communication is free everywhere.

    Useful as the R=100% limit and for isolating sequencing effects in tests.
    """

    def cost(self, task: Task, processor: int) -> float:
        return 0.0

    def cost_row(self, task: Task, num_processors: int) -> tuple:
        return (0.0,) * num_processors

    def __repr__(self) -> str:
        return "ZeroCommunicationModel()"


class DistanceCommunicationModel(CommunicationModel):
    """Store-and-forward ablation: cost grows with mesh distance.

    The paper argues wormhole routing makes ``c_ij`` distance-independent;
    this model lets benchmarks show what changes if that assumption is
    dropped.  Processors are laid out on a 1-D chain (the Paragon is a 2-D
    mesh, but for the ablation only *some* monotone distance matters); the
    distance of a non-affine processor is measured to the nearest affine one.
    """

    def __init__(self, per_hop_cost: float, num_processors: int) -> None:
        if per_hop_cost < 0:
            raise ValueError(f"per_hop_cost must be non-negative, got {per_hop_cost}")
        if num_processors <= 0:
            raise ValueError(f"num_processors must be positive, got {num_processors}")
        self.per_hop_cost = per_hop_cost
        self.num_processors = num_processors

    def cost(self, task: Task, processor: int) -> float:
        if task.has_affinity(processor) or not task.affinity:
            return 0.0
        hops = min(abs(processor - home) for home in task.affinity)
        return self.per_hop_cost * hops

    def __repr__(self) -> str:
        return (
            f"DistanceCommunicationModel(per_hop={self.per_hop_cost}, "
            f"m={self.num_processors})"
        )


def random_affinity(
    num_processors: int,
    affinity_probability: float,
    rng: random.Random,
) -> frozenset:
    """Draw a random affinity set with per-processor probability.

    The paper defines the *degree of affinity* as the probability that a task
    has affinity with a given processor.  At least one processor is always
    affine (a task's data must live somewhere), chosen uniformly when the
    Bernoulli draws all fail.
    """
    if not 0.0 <= affinity_probability <= 1.0:
        raise ValueError(
            f"affinity_probability must be in [0, 1], got {affinity_probability}"
        )
    if num_processors <= 0:
        raise ValueError(f"num_processors must be positive, got {num_processors}")
    members = [
        p for p in range(num_processors) if rng.random() < affinity_probability
    ]
    if not members:
        members = [rng.randrange(num_processors)]
    return frozenset(members)


def project_tasks(
    tasks: Iterable[Task], workers: Sequence[int]
) -> list[Task]:
    """Re-express global affinities against an ordered worker subset.

    ``workers`` lists global worker ids in slot order; each task's
    affinity is rewritten to the *positions* of its affine workers within
    that list.  Workers missing from the list simply drop out of the
    affinity set (their data is unreachable from this view), which is
    exactly the cluster master's alive-set remap and the sharded
    runtime's domain projection — both are the same renaming.
    """
    return AffinityProjection(workers).project(tasks)


class AffinityProjection:
    """:func:`project_tasks` for one worker tuple, remembering the last batch.

    A scheduling host projects its batch every phase, and most of
    ``Batch(j)`` carries over into ``Batch(j+1)``; this keeps each task's
    projected copy and serves it again while the *same* task object comes
    back.  The memo is rebuilt from the previous one on every call, so it
    holds exactly the last batch projected and never grows past it.
    """

    def __init__(self, workers: Sequence[int]) -> None:
        self.workers = tuple(workers)
        self._positions = {w: slot for slot, w in enumerate(self.workers)}
        #: task_id -> (original task, projected task), last batch only.
        self._memo: Dict[int, Tuple[Task, Task]] = {}

    def for_workers(self, workers: Sequence[int]) -> "AffinityProjection":
        """This projector if ``workers`` is unchanged, else a fresh one."""
        workers = tuple(workers)
        if workers == self.workers:
            return self
        return AffinityProjection(workers)

    def project(self, tasks: Iterable[Task]) -> list[Task]:
        """Same result as ``project_tasks(tasks, self.workers)``."""
        positions = self._positions
        previous = self._memo
        memo: Dict[int, Tuple[Task, Task]] = {}
        projected = []
        for task in tasks:
            hit = previous.get(task.task_id)
            if hit is None or hit[0] is not task:
                local = frozenset(
                    positions[w] for w in task.affinity if w in positions
                )
                if local == task.affinity:
                    hit = (task, task)
                else:
                    hit = (task, replace(task, affinity=local))
            memo[task.task_id] = hit
            projected.append(hit[1])
        self._memo = memo
        return projected


def affinity_degree(tasks: Iterable[Task], num_processors: int) -> float:
    """Empirical affinity degree of a workload: mean |affinity| / m."""
    tasks = list(tasks)
    if not tasks or num_processors <= 0:
        return 0.0
    return sum(len(t.affinity) for t in tasks) / (len(tasks) * num_processors)
