"""Phase-level differential tests with full expansion-trace equality.

Runs single scheduling phases through the optimized ``repro.core.phase``
loop and the frozen ``repro.core.reference`` loop over seeded random
batches and asserts the strongest equivalence the harness checks anywhere:
the exact sequence of expanded vertices, every successor block (with
full-precision evaluator values), every ``SearchStats`` counter, and the
extracted schedule entries all match bit-for-bit — including under tiny
``max_candidates`` bounds that force the CL eviction paths, and on the
hand-built edge cases at the bottom (empty frontier, single candidate,
all-infeasible prune, all-tie frontiers per evaluator, exhausted and
pre-consumed budgets).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import pytest

from repro.core import make_task
from repro.core import phase as optimized_phase
from repro.core import reference
from repro.core.affinity import (
    UniformCommunicationModel,
    ZeroCommunicationModel,
)
from repro.core.cost import (
    EarliestFinishEvaluator,
    FifoEvaluator,
    LoadBalancingEvaluator,
    MinSlackEvaluator,
)
from repro.core.representations import (
    AssignmentOrientedExpander,
    SequenceOrientedExpander,
)
from repro.core.search import VirtualTimeBudget

from .harness import RecordingExpander, random_batch, stats_fingerprint


def _phase_fingerprint(result) -> tuple:
    entries = tuple(
        (
            entry.task.task_id,
            entry.processor,
            repr(entry.communication_cost),
            repr(entry.scheduled_end),
        )
        for entry in result.schedule
    )
    return (
        entries,
        repr(result.time_used),
        repr(result.quantum),
        repr(result.phase_start),
        stats_fingerprint(result.stats),
        tuple(repr(offset) for offset in result.initial_offsets),
    )


def _run_pair(
    tasks,
    loads,
    quantum,
    comm,
    optimized_expander,
    reference_expander,
    optimized_evaluator,
    reference_evaluator,
    max_candidates=None,
    now=0.0,
    per_vertex_cost=0.05,
    budgets=(None, None),
):
    opt_log: list = []
    ref_log: list = []
    opt = optimized_phase.run_phase(
        tasks=tasks,
        loads=loads,
        now=now,
        quantum=quantum,
        comm=comm,
        expander=RecordingExpander(optimized_expander, opt_log),
        evaluator=optimized_evaluator,
        budget=budgets[0],
        per_vertex_cost=per_vertex_cost,
        max_candidates=max_candidates,
    )
    ref = reference.run_phase(
        tasks=tasks,
        loads=loads,
        now=now,
        quantum=quantum,
        comm=comm,
        expander=RecordingExpander(reference_expander, ref_log),
        evaluator=reference_evaluator,
        budget=budgets[1],
        per_vertex_cost=per_vertex_cost,
        max_candidates=max_candidates,
    )
    return opt, ref, opt_log, ref_log


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("num_processors", [2, 4, 8])
def test_assignment_phase_trace_identical(seed: int, num_processors: int) -> None:
    rng = random.Random(10_000 + seed)
    tasks = random_batch(rng, num_tasks=18, num_processors=num_processors)
    loads = [rng.uniform(0.0, 25.0) for _ in range(num_processors)]
    quantum = rng.uniform(10.0, 60.0)
    comm = UniformCommunicationModel(remote_cost=rng.uniform(5.0, 40.0))
    opt, ref, opt_log, ref_log = _run_pair(
        tasks,
        loads,
        quantum,
        comm,
        AssignmentOrientedExpander(),
        reference.ReferenceAssignmentOrientedExpander(),
        LoadBalancingEvaluator(),
        reference.ReferenceLoadBalancingEvaluator(),
    )
    assert opt_log == ref_log
    assert _phase_fingerprint(opt) == _phase_fingerprint(ref)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("num_processors", [2, 4, 8])
def test_sequence_phase_trace_identical(seed: int, num_processors: int) -> None:
    rng = random.Random(20_000 + seed)
    tasks = random_batch(rng, num_tasks=18, num_processors=num_processors)
    loads = [rng.uniform(0.0, 25.0) for _ in range(num_processors)]
    quantum = rng.uniform(10.0, 60.0)
    comm = UniformCommunicationModel(remote_cost=rng.uniform(5.0, 40.0))
    start = rng.randrange(num_processors)
    opt, ref, opt_log, ref_log = _run_pair(
        tasks,
        loads,
        quantum,
        comm,
        SequenceOrientedExpander(start_processor=start),
        reference.ReferenceSequenceOrientedExpander(start_processor=start),
        LoadBalancingEvaluator(),
        reference.ReferenceLoadBalancingEvaluator(),
    )
    assert opt_log == ref_log
    assert _phase_fingerprint(opt) == _phase_fingerprint(ref)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("max_candidates", [1, 3, 8])
def test_cl_eviction_paths_identical(seed: int, max_candidates: int) -> None:
    """Tiny CL bounds exercise heap-block eviction vs flat-stack trimming."""
    rng = random.Random(30_000 + seed)
    m = 4
    tasks = random_batch(rng, num_tasks=14, num_processors=m)
    loads = [rng.uniform(0.0, 15.0) for _ in range(m)]
    quantum = rng.uniform(20.0, 80.0)
    comm = UniformCommunicationModel(remote_cost=15.0)
    opt, ref, opt_log, ref_log = _run_pair(
        tasks,
        loads,
        quantum,
        comm,
        AssignmentOrientedExpander(),
        reference.ReferenceAssignmentOrientedExpander(),
        LoadBalancingEvaluator(),
        reference.ReferenceLoadBalancingEvaluator(),
        max_candidates=max_candidates,
    )
    assert opt_log == ref_log
    assert _phase_fingerprint(opt) == _phase_fingerprint(ref)


@pytest.mark.parametrize("seed", range(6))
def test_earliest_finish_evaluator_identical(seed: int) -> None:
    """The incremental-friendly EF evaluator matches its reference twin."""
    rng = random.Random(40_000 + seed)
    m = 5
    tasks = random_batch(rng, num_tasks=16, num_processors=m)
    loads = [rng.uniform(0.0, 20.0) for _ in range(m)]
    quantum = rng.uniform(15.0, 70.0)
    comm = UniformCommunicationModel(remote_cost=25.0)
    opt, ref, opt_log, ref_log = _run_pair(
        tasks,
        loads,
        quantum,
        comm,
        AssignmentOrientedExpander(),
        reference.ReferenceAssignmentOrientedExpander(),
        EarliestFinishEvaluator(),
        reference.ReferenceEarliestFinishEvaluator(),
    )
    assert opt_log == ref_log
    assert _phase_fingerprint(opt) == _phase_fingerprint(ref)


@pytest.mark.parametrize("seed", range(4))
def test_zero_communication_model_identical(seed: int) -> None:
    """All-ties regime: zero comm makes many evaluator values collide,
    stressing the (value, seq) tie-breaking against the stable sort."""
    rng = random.Random(50_000 + seed)
    m = 4
    tasks = random_batch(rng, num_tasks=12, num_processors=m)
    loads = [0.0] * m
    quantum = 50.0
    comm = ZeroCommunicationModel()
    opt, ref, opt_log, ref_log = _run_pair(
        tasks,
        loads,
        quantum,
        comm,
        AssignmentOrientedExpander(),
        reference.ReferenceAssignmentOrientedExpander(),
        LoadBalancingEvaluator(),
        reference.ReferenceLoadBalancingEvaluator(),
    )
    assert opt_log == ref_log
    assert _phase_fingerprint(opt) == _phase_fingerprint(ref)


# ----- hand-built edge cases -------------------------------------------------

EXPANDER_PAIRS = {
    "assignment": (
        AssignmentOrientedExpander,
        reference.ReferenceAssignmentOrientedExpander,
    ),
    "sequence": (
        SequenceOrientedExpander,
        reference.ReferenceSequenceOrientedExpander,
    ),
}

#: Optimized evaluator and its frozen twin.  Min-slack and FIFO read only
#: the candidate's scheduled end (or nothing), which both loops compute
#: the same way, so each side uses the production class.
EVALUATOR_PAIRS = {
    "load_balancing": (
        LoadBalancingEvaluator,
        reference.ReferenceLoadBalancingEvaluator,
    ),
    "earliest_finish": (
        EarliestFinishEvaluator,
        reference.ReferenceEarliestFinishEvaluator,
    ),
    "min_slack": (MinSlackEvaluator, MinSlackEvaluator),
    "fifo": (FifoEvaluator, FifoEvaluator),
}


@dataclass(frozen=True)
class EdgeCase:
    """One hand-built phase input the seeded grids are unlikely to hit."""

    tasks: Tuple
    num_processors: int
    expander: str
    evaluator: str = "load_balancing"
    loads: Optional[Tuple[float, ...]] = None
    zero_comm: bool = False
    quantum: float = 200.0
    per_vertex_cost: float = 0.05
    max_candidates: Optional[int] = None
    preconsumed: Optional[float] = None
    #: Asserts the case exercised what it is named for.
    check: Optional[Callable] = None


def _check_empty(result) -> None:
    assert result.stats.complete
    assert result.stats.expansions <= 1
    assert len(result.schedule) == 0


def _check_single(result) -> None:
    assert len(result.schedule) == 1
    assert result.stats.vertices_generated == 1


def _check_all_pruned(result) -> None:
    assert len(result.schedule) == 0
    assert result.stats.prefilter_rejected == 0
    assert result.stats.feasibility_rejections > 0


def _check_every_task_pruned(result) -> None:
    # The assignment expander scans (and prunes) every unscheduled task.
    _check_all_pruned(result)
    assert result.stats.tasks_pruned == 6


def _check_dead_end(result) -> None:
    # The sequence expander dead-ends on the first EDF task.
    _check_all_pruned(result)
    assert result.stats.dead_end


def _check_full_depth(result) -> None:
    assert len(result.schedule) == 8


def _check_truncated(result) -> None:
    assert not result.stats.complete
    assert len(result.schedule) > 0


def _check_deep(result) -> None:
    assert len(result.schedule) >= 5


def _edge_cases():
    single = (make_task(0, processing_time=10.0, deadline=500.0),)
    # Each task passes the zero-offset prefilter (200 + 20 <= 250), but
    # every processor's projected load pushes it past its deadline, so
    # every probe in the search itself is rejected.
    unplaceable = tuple(
        make_task(tid, processing_time=20.0, deadline=250.0)
        for tid in range(6)
    )
    identical = tuple(
        make_task(tid, processing_time=10.0, deadline=400.0)
        for tid in range(8)
    )
    tight = tuple(random_batch(random.Random(7), 30, 4))
    crowded = tuple(random_batch(random.Random(11), 25, 3))
    prune_checks = {
        "assignment": _check_every_task_pruned,
        "sequence": _check_dead_end,
    }
    for expander in EXPANDER_PAIRS:
        yield pytest.param(
            EdgeCase((), 4, expander, check=_check_empty),
            id=f"empty-frontier-{expander}",
        )
        yield pytest.param(
            EdgeCase(single, 1, expander, check=_check_single),
            id=f"single-candidate-{expander}",
        )
        yield pytest.param(
            EdgeCase(
                unplaceable, 3, expander, loads=(500.0,) * 3,
                check=prune_checks[expander],
            ),
            id=f"all-infeasible-{expander}",
        )
        for evaluator in EVALUATOR_PAIRS:
            yield pytest.param(
                EdgeCase(
                    identical, 4, expander, evaluator, zero_comm=True,
                    check=_check_full_depth,
                ),
                id=f"ties-{expander}-{evaluator}",
            )
        # Budgets worth 40, 100 and 2 vertices of a 20-unit quantum.
        for per_vertex_cost, preconsumed in (
            (0.5, 0.0),
            (0.05, 15.0),
            (0.005, 19.99),
        ):
            yield pytest.param(
                EdgeCase(
                    tight, 4, expander, quantum=20.0,
                    per_vertex_cost=per_vertex_cost,
                    preconsumed=preconsumed, check=_check_truncated,
                ),
                id=f"budget-{per_vertex_cost}-{preconsumed}-{expander}",
            )
        for max_candidates in (1, 2, 5):
            yield pytest.param(
                EdgeCase(
                    crowded, 3, expander, quantum=5.0,
                    max_candidates=max_candidates, check=_check_deep,
                ),
                id=f"max-candidates-{max_candidates}-{expander}",
            )


@pytest.mark.parametrize("case", _edge_cases())
def test_edge_case(case: EdgeCase) -> None:
    """Degenerate frontiers and budgets behave identically in both loops."""
    optimized_expander, reference_expander = EXPANDER_PAIRS[case.expander]
    optimized_evaluator, reference_evaluator = EVALUATOR_PAIRS[case.evaluator]
    comm = (
        ZeroCommunicationModel()
        if case.zero_comm
        else UniformCommunicationModel(40.0)
    )
    loads = case.loads or (0.0,) * case.num_processors
    budgets = (None, None)
    if case.preconsumed is not None:
        # Pre-spent budgets, as the search schedulers pre-charge their
        # batch-management overhead; each side gets its own.
        budgets = tuple(
            VirtualTimeBudget(
                quantum=case.quantum, per_vertex_cost=case.per_vertex_cost
            )
            for _ in range(2)
        )
        for budget in budgets:
            budget.consume(case.preconsumed)
    opt, ref, opt_log, ref_log = _run_pair(
        list(case.tasks),
        loads,
        case.quantum,
        comm,
        optimized_expander(),
        reference_expander(),
        optimized_evaluator(),
        reference_evaluator(),
        max_candidates=case.max_candidates,
        per_vertex_cost=case.per_vertex_cost,
        budgets=budgets,
    )
    assert opt_log == ref_log
    assert _phase_fingerprint(opt) == _phase_fingerprint(ref)
    if case.preconsumed is not None:
        assert repr(budgets[0].used()) == repr(budgets[1].used())
    if case.check is not None:
        case.check(opt)
