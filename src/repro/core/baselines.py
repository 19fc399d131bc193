"""Non-search baselines implementing the same scheduler interface.

These enrich the comparison beyond the paper's two contenders:

* :class:`GreedyEDFScheduler` — earliest-deadline-first list scheduling with
  minimum-completion-time processor choice and no backtracking.
* :class:`MyopicScheduler` — a Ramamritham/Stankovic-style myopic heuristic
  (bounded feasibility-check window, weighted heuristic ``H = d + W * est``),
  the family the paper says inspired D-COLS.
* :class:`RandomScheduler` — random task order, random feasible processor;
  the sanity-check floor.

All three charge the same virtual per-vertex cost for every (task,
processor) pair they evaluate and honour the same quantum-aware feasibility
bound, so the paper's correctness theorem holds for them too.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from .affinity import CommunicationModel
from .feasibility import EPSILON, projected_offsets
from .phase import MIN_PHASE_TIME, PhaseResult
from .quantum import QuantumPolicy, SelfAdjustingQuantum
from .registry import SchedulerContext, register_scheduler
from .schedule import Schedule, ScheduleEntry
from ..observability import get_instrumentation
from .scheduler import (
    DEFAULT_PER_VERTEX_COST,
    DEFAULT_PHASE_OVERHEAD_FACTOR,
    DEFAULT_QUANTUM_CAP_FACTOR,
    Scheduler,
    phase_overhead,
    record_phase_metrics,
    useful_search_time,
)
from .search import SearchStats, VirtualTimeBudget
from .task import Task, edf_key


class _ListScheduler(Scheduler):
    """Shared machinery for the one-pass (no backtracking) baselines."""

    def __init__(
        self,
        comm: CommunicationModel,
        quantum_policy: Optional[QuantumPolicy] = None,
        per_vertex_cost: float = DEFAULT_PER_VERTEX_COST,
        quantum_cap_factor: Optional[float] = DEFAULT_QUANTUM_CAP_FACTOR,
        phase_overhead_factor: float = DEFAULT_PHASE_OVERHEAD_FACTOR,
        name: str = "list-scheduler",
    ) -> None:
        if per_vertex_cost <= 0:
            raise ValueError("per_vertex_cost must be positive")
        if phase_overhead_factor < 0:
            raise ValueError("phase_overhead_factor must be non-negative")
        self.comm = comm
        self.quantum_policy = quantum_policy or SelfAdjustingQuantum()
        self.per_vertex_cost = per_vertex_cost
        self.quantum_cap_factor = quantum_cap_factor
        self.phase_overhead_factor = phase_overhead_factor
        self.name = name

    def _phase_budget(
        self, batch_size: int, num_processors: int, quantum: float
    ) -> VirtualTimeBudget:
        """Budget for the phase window: quantum plus pre-paid overhead."""
        overhead = phase_overhead(
            batch_size=batch_size,
            num_processors=num_processors,
            per_vertex_cost=self.per_vertex_cost,
            overhead_factor=self.phase_overhead_factor,
        )
        budget = VirtualTimeBudget(
            quantum=quantum + overhead, per_vertex_cost=self.per_vertex_cost
        )
        budget.consume(overhead)
        return budget

    def plan_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        quantum = self.quantum_policy.quantum(batch, loads, now)
        if self.quantum_cap_factor is not None:
            cap = useful_search_time(
                batch_size=len(batch),
                num_processors=len(loads),
                per_vertex_cost=self.per_vertex_cost,
                cap_factor=self.quantum_cap_factor,
            )
            quantum = min(quantum, max(cap, self.quantum_policy.min_quantum))
        return quantum

    def _task_order(self, batch: Sequence[Task]) -> List[Task]:
        """Order in which tasks are considered for assignment."""
        return sorted(batch, key=edf_key)

    def _pick_processor(
        self,
        task: Task,
        offsets: List[float],
        bound: float,
        budget: VirtualTimeBudget,
        stats: SearchStats,
    ) -> Optional[tuple]:
        """Choose a feasible processor; returns (proc, comm_cost, end)."""
        best = None
        budget.charge(len(offsets))
        stats.vertices_generated += len(offsets)
        for processor, offset in enumerate(offsets):
            comm_cost = self.comm.cost(task, processor)
            end = offset + task.processing_time + comm_cost
            if bound + end > task.deadline + EPSILON:
                stats.feasibility_rejections += 1
                continue
            if best is None or end < best[2]:
                best = (processor, comm_cost, end)
        return best

    def schedule_phase(
        self,
        batch: Sequence[Task],
        loads: Sequence[float],
        now: float,
        quantum: float,
    ) -> PhaseResult:
        budget = self._phase_budget(len(batch), len(loads), quantum)
        phase_window = budget.quantum  # quantum + phase overhead
        offsets = list(projected_offsets(loads, phase_window))
        initial = tuple(offsets)
        bound = now + phase_window
        stats = SearchStats()
        schedule = Schedule()
        # Same necessary-condition pre-filter as run_phase: drop tasks that
        # cannot meet their deadline even at zero wait this phase.
        viable = [
            t
            for t in self._task_order(batch)
            if bound + t.processing_time <= t.deadline + EPSILON
        ]
        for task in viable:
            if budget.exhausted():
                break
            stats.task_probes += 1
            choice = self._pick_processor(task, offsets, bound, budget, stats)
            if choice is None:
                continue
            processor, comm_cost, end = choice
            offsets[processor] = end
            schedule.append(
                ScheduleEntry(
                    task=task,
                    processor=processor,
                    communication_cost=comm_cost,
                    scheduled_end=end,
                )
            )
        stats.expansions = len(schedule)
        stats.max_depth = len(schedule)
        stats.processors_touched = len(schedule.processors())
        stats.complete = len(schedule) == len(batch)
        stats.prefilter_rejected = len(batch) - len(viable)
        result = PhaseResult(
            schedule=schedule,
            time_used=min(max(budget.used(), MIN_PHASE_TIME), phase_window),
            quantum=phase_window,
            phase_start=now,
            stats=stats,
            initial_offsets=initial,
        )
        obs = self.instrumentation or get_instrumentation()
        if obs.enabled:
            record_phase_metrics(obs, self.name, stats, phase_window, len(batch))
        return result


class GreedyEDFScheduler(_ListScheduler):
    """EDF order, minimum-completion-time processor, no backtracking."""

    def __init__(
        self,
        comm: CommunicationModel,
        quantum_policy: Optional[QuantumPolicy] = None,
        per_vertex_cost: float = DEFAULT_PER_VERTEX_COST,
        **kwargs,
    ) -> None:
        super().__init__(
            comm, quantum_policy, per_vertex_cost, name="Greedy-EDF", **kwargs
        )


class RandomScheduler(_ListScheduler):
    """Random task order and random feasible processor (seeded)."""

    def __init__(
        self,
        comm: CommunicationModel,
        quantum_policy: Optional[QuantumPolicy] = None,
        per_vertex_cost: float = DEFAULT_PER_VERTEX_COST,
        seed: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(
            comm, quantum_policy, per_vertex_cost, name="Random", **kwargs
        )
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def _task_order(self, batch: Sequence[Task]) -> List[Task]:
        tasks = list(batch)
        self._rng.shuffle(tasks)
        return tasks

    def _pick_processor(self, task, offsets, bound, budget, stats):
        budget.charge(len(offsets))
        stats.vertices_generated += len(offsets)
        feasible = []
        for processor, offset in enumerate(offsets):
            comm_cost = self.comm.cost(task, processor)
            end = offset + task.processing_time + comm_cost
            if bound + end <= task.deadline + EPSILON:
                feasible.append((processor, comm_cost, end))
        if not feasible:
            return None
        return self._rng.choice(feasible)


class MyopicScheduler(_ListScheduler):
    """Myopic heuristic scheduling (Ramamritham, Stankovic & Zhao style).

    At each step only the ``window`` earliest-deadline unassigned tasks are
    considered; the one minimizing ``H = d + weight * earliest_start`` is
    assigned to its earliest-finishing feasible processor.  This is the
    uniprocessor/shared-memory technique whose sequence-oriented extension
    the paper critiques, included here as an additional reference point.
    """

    def __init__(
        self,
        comm: CommunicationModel,
        quantum_policy: Optional[QuantumPolicy] = None,
        per_vertex_cost: float = DEFAULT_PER_VERTEX_COST,
        window: int = 8,
        weight: float = 1.0,
        **kwargs,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if weight < 0:
            raise ValueError("weight must be non-negative")
        super().__init__(
            comm, quantum_policy, per_vertex_cost, name="Myopic", **kwargs
        )
        self.window = window
        self.weight = weight

    def schedule_phase(
        self,
        batch: Sequence[Task],
        loads: Sequence[float],
        now: float,
        quantum: float,
    ) -> PhaseResult:
        budget = self._phase_budget(len(batch), len(loads), quantum)
        phase_window = budget.quantum  # quantum + phase overhead
        offsets = list(projected_offsets(loads, phase_window))
        initial = tuple(offsets)
        bound = now + phase_window
        stats = SearchStats()
        schedule = Schedule()
        remaining = [
            t
            for t in sorted(batch, key=edf_key)
            if bound + t.processing_time <= t.deadline + EPSILON
        ]
        prefiltered = len(remaining)
        while remaining and not budget.exhausted():
            best = None  # (H, task_pos, processor, comm_cost, end)
            lookahead = remaining[: self.window]
            for position, task in enumerate(lookahead):
                stats.task_probes += 1
                budget.charge(len(offsets))
                stats.vertices_generated += len(offsets)
                for processor, offset in enumerate(offsets):
                    comm_cost = self.comm.cost(task, processor)
                    end = offset + task.processing_time + comm_cost
                    if bound + end > task.deadline + EPSILON:
                        stats.feasibility_rejections += 1
                        continue
                    start = end - task.processing_time - comm_cost
                    heuristic = task.deadline + self.weight * start
                    key = (heuristic, end)
                    if best is None or key < best[0]:
                        best = (key, position, processor, comm_cost, end)
            if best is None:
                # No window task is feasible anywhere: the myopic strategy
                # discards the head (tightest) task and retries.
                remaining.pop(0)
                stats.backtracks += 1
                continue
            _, position, processor, comm_cost, end = best
            task = remaining.pop(position)
            offsets[processor] = end
            schedule.append(
                ScheduleEntry(
                    task=task,
                    processor=processor,
                    communication_cost=comm_cost,
                    scheduled_end=end,
                )
            )
            stats.expansions += 1
        stats.max_depth = len(schedule)
        stats.processors_touched = len(schedule.processors())
        stats.complete = len(schedule) == len(batch)
        stats.prefilter_rejected = len(batch) - prefiltered
        result = PhaseResult(
            schedule=schedule,
            time_used=min(max(budget.used(), MIN_PHASE_TIME), phase_window),
            quantum=phase_window,
            phase_start=now,
            stats=stats,
            initial_offsets=initial,
        )
        obs = self.instrumentation or get_instrumentation()
        if obs.enabled:
            record_phase_metrics(obs, self.name, stats, phase_window, len(batch))
        return result


def _build_greedy_edf(context: "SchedulerContext") -> GreedyEDFScheduler:
    return GreedyEDFScheduler(
        comm=context.comm,
        quantum_policy=context.quantum_policy,
        per_vertex_cost=context.per_vertex_cost,
    )


def _build_myopic(context: "SchedulerContext") -> MyopicScheduler:
    return MyopicScheduler(
        comm=context.comm,
        quantum_policy=context.quantum_policy,
        per_vertex_cost=context.per_vertex_cost,
    )


def _build_random(context: "SchedulerContext") -> RandomScheduler:
    return RandomScheduler(
        comm=context.comm,
        quantum_policy=context.quantum_policy,
        per_vertex_cost=context.per_vertex_cost,
        seed=context.seed,
    )


register_scheduler("greedy_edf", _build_greedy_edf)
register_scheduler("myopic", _build_myopic)
register_scheduler("random", _build_random)
