"""K scheduling domains on one virtual clock: the ``sharded`` runtime.

The single-master simulator models the paper's dedicated host processor:
one :class:`~repro.runtime.driver.PhaseDriver` whose phase duration
``sigma_j`` serializes *all* scheduling work.  This runtime instantiates
one driver **per scheduling domain** instead; each domain searches over
only its own workers and its own share of the batch, and the phases of
different domains overlap freely in virtual time — exactly the
k-concurrent-hosts architecture the sharding refactor claims.

One :class:`~repro.simulator.engine.SimulationEngine` drives everything
(it allows exactly one handler per event type, so this class is the sole
subscriber and routes to domains): arrivals route through the domain
assignment, completions and failures route by the worker's owning
domain, and two private event types (:class:`_DomainWake`,
:class:`_DomainDelivered`) carry the per-domain phase loop.

Migration happens at phase boundaries: after a domain delivers a phase,
every task its search left unplaced is offered (once) to the least-loaded
peer domain; the peer accepts iff the quick guarantee check
(:func:`~repro.sharding.migration.can_guarantee`) passes, at which point
the task is withdrawn from the origin driver and admitted to the peer —
guarantee accounting never double-counts because an unplaced task holds
no guarantee and earns one only where it is finally delivered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.affinity import AffinityProjection
from ..core.domains import DomainAssignment
from ..core.scheduler import Scheduler
from ..core.task import Task
from ..observability import Instrumentation, get_instrumentation
from ..runtime.driver import OpenPhase, PhaseDriver, PhaseHooks
from ..runtime.report import RunReport
from ..simulator.engine import SimulationEngine, SimulationError
from ..simulator.events import ProcessorFailed, TaskArrived, TaskFinished
from ..simulator.execution import ExecutionTimeModel, resolve_actual_cost
from ..simulator.processor import WorkerProcessor
from ..simulator.runtime import DEFAULT_MAX_EVENTS
from ..simulator.trace import (
    STATUS_COMPLETED,
    STATUS_EXPIRED,
    STATUS_FAILED,
    SimulationTrace,
)
from .migration import MigrationStats, can_guarantee


@dataclass(frozen=True)
class _DomainWake:
    """Deferred request for one domain's host to open a phase."""

    domain: int


@dataclass(frozen=True)
class _DomainDelivered:
    """One domain's scheduling phase ended; its schedule is delivered."""

    domain: int


class _DomainHost(PhaseHooks):
    """One scheduling domain: its own driver, scheduler, and workers."""

    def __init__(
        self,
        runtime: "ShardedRuntime",
        domain_id: int,
        workers: Tuple[int, ...],
        scheduler: Scheduler,
    ) -> None:
        self.runtime = runtime
        self.domain_id = domain_id
        #: Global worker ids in slot order; the scheduler sees slots.
        self.workers = workers
        self.projection = AffinityProjection(workers)
        self.scheduler = scheduler
        self.driver = PhaseDriver(scheduler=scheduler, hooks=self)
        self.worker_objs = [WorkerProcessor(w) for w in workers]
        self.busy = False
        self.wake_pending = False
        self.open_phase: Optional[OpenPhase] = None

    def total_load(self, now: float) -> float:
        """Mean remaining work per worker (the peer-selection metric)."""
        loads = [w.load(now) for w in self.worker_objs]
        finite = [l for l in loads if l != float("inf")]
        if not finite:
            return float("inf")
        return sum(finite) / len(finite)

    # ----- PhaseHooks -------------------------------------------------------

    def loads(self, now: float) -> List[float]:
        return [worker.load(now) for worker in self.worker_objs]

    def transform_batch(self, tasks: List[Task], now: float) -> List[Task]:
        return self.projection.project(tasks)

    def on_task_expired(self, task: Task, now: float) -> None:
        self.runtime.on_task_expired(self, task, now)

    def deliver_entry(self, entry, phase_index: int, now: float) -> bool:
        return self.runtime.deliver_entry(self, entry, phase_index, now)


class ShardedRuntime:
    """Drives one workload over ``k`` concurrent scheduling domains."""

    def __init__(
        self,
        schedulers: Sequence[Scheduler],
        assignment: DomainAssignment,
        workload: Sequence[Task],
        remote_cost: float,
        max_events: int = DEFAULT_MAX_EVENTS,
        validate_phases: bool = False,
        execution_model: Optional[ExecutionTimeModel] = None,
        failures: Optional[List] = None,
        instrumentation: Optional[Instrumentation] = None,
        seed: int = 0,
        router: Optional[Callable[[Task], int]] = None,
    ) -> None:
        if len(schedulers) != assignment.num_domains:
            raise ValueError(
                f"{assignment.num_domains} domains need as many schedulers, "
                f"got {len(schedulers)}"
            )
        self.assignment = assignment
        self.workload = list(workload)
        self.remote_cost = remote_cost
        self.max_events = max_events
        self.validate_phases = validate_phases
        self.execution_model = execution_model
        self.seed = seed
        self.router = router or assignment.route
        self.failures = list(failures or [])
        for at, processor in self.failures:
            if not 0 <= processor < assignment.num_workers:
                raise ValueError(f"failure targets unknown P{processor}")
            if at < 0:
                raise ValueError("failure time must be non-negative")

        base_obs = instrumentation or get_instrumentation()
        self.obs = (
            base_obs.bind(scheduler=schedulers[0].name)
            if base_obs.enabled
            else base_obs
        )
        self.engine = SimulationEngine()
        self.trace = SimulationTrace()
        self.stats = MigrationStats()
        self.domains: List[_DomainHost] = [
            _DomainHost(self, d, assignment.workers_of(d), scheduler)
            for d, scheduler in enumerate(schedulers)
        ]
        #: Global worker id -> (owning domain, worker object).
        self._worker_index: Dict[int, Tuple[_DomainHost, WorkerProcessor]] = {}
        for domain in self.domains:
            for worker in domain.worker_objs:
                self._worker_index[worker.processor_id] = (domain, worker)
        #: Task ids that may not migrate (offered once, or migrated in).
        self._migration_barred: Set[int] = set()

        self.engine.subscribe(TaskArrived, self._on_task_arrived)
        self.engine.subscribe(TaskFinished, self._on_task_finished)
        self.engine.subscribe(ProcessorFailed, self._on_processor_failed)
        self.engine.subscribe(_DomainWake, self._on_domain_wake)
        self.engine.subscribe(_DomainDelivered, self._on_domain_delivered)

    # ----- instrumentation --------------------------------------------------

    def _task_event(
        self, transition: str, task_id: int, t: float, **extra: object
    ) -> None:
        self.obs.emit(
            "task", transition=transition, task_id=task_id, t=t, **extra
        )
        self.obs.metrics.counter(
            "runtime_task_transitions", transition=transition
        ).inc()

    # ----- domain hook callbacks (shared trace) -----------------------------

    def on_task_expired(self, domain: _DomainHost, task: Task, now: float) -> None:
        self.trace.records[task.task_id].status = STATUS_EXPIRED
        if self.obs.enabled:
            self._task_event(
                "expired",
                task.task_id,
                now,
                deadline=task.deadline,
                arrival=task.arrival_time,
                domain=domain.domain_id,
            )

    def deliver_entry(
        self, domain: _DomainHost, entry, phase_index: int, now: float
    ) -> bool:
        worker = domain.worker_objs[entry.processor]
        if worker.failed:
            return False
        record = self.trace.records[entry.task.task_id]
        record.scheduled_phase = phase_index
        record.processor = worker.processor_id  # global id in the trace
        record.delivered_at = now
        actual = resolve_actual_cost(self.execution_model, entry)
        record.planned_cost = entry.total_cost
        record.actual_cost = actual
        worker.deliver(entry, now, actual_cost=actual)
        if self.obs.enabled:
            self._task_event(
                "delivered",
                entry.task.task_id,
                now,
                processor=worker.processor_id,
                phase=phase_index,
                arrival=entry.task.arrival_time,
                deadline=entry.task.deadline,
                planned_cost=entry.total_cost,
                domain=domain.domain_id,
            )
        return True

    # ----- event handlers ---------------------------------------------------

    def _on_task_arrived(self, now: float, event: TaskArrived) -> None:
        task = event.task
        target = self.router(task)
        if not 0 <= target < len(self.domains):
            raise SimulationError(
                f"router sent task {task.task_id} to unknown domain {target}"
            )
        self.domains[target].driver.admit([task])
        if self.obs.enabled:
            self._task_event(
                "arrived",
                task.task_id,
                now,
                deadline=task.deadline,
                cost=task.processing_time,
                domain=target,
            )
        self._request_wake(self.domains[target], now)

    def _request_wake(self, domain: _DomainHost, now: float) -> None:
        if domain.busy or domain.wake_pending:
            return
        domain.wake_pending = True
        self.engine.schedule_at(now, _DomainWake(domain.domain_id))

    def _on_domain_wake(self, now: float, event: _DomainWake) -> None:
        domain = self.domains[event.domain]
        domain.wake_pending = False
        if not domain.busy:
            self._start_phase(domain, now)

    def _start_phase(self, domain: _DomainHost, now: float) -> None:
        opened = domain.driver.open_phase(now)
        if opened is None:
            return
        if self.validate_phases:
            opened.result.validate(domain.scheduler.comm)
        domain.busy = True
        domain.open_phase = opened
        self.engine.schedule_at(
            opened.result.phase_end, _DomainDelivered(domain.domain_id)
        )

    def _on_domain_delivered(self, now: float, event: _DomainDelivered) -> None:
        domain = self.domains[event.domain]
        opened = domain.open_phase
        domain.open_phase = None
        domain.busy = False
        domain.driver.deliver_phase(opened, now)
        for entry in opened.result.schedule:
            worker = domain.worker_objs[entry.processor]
            if not worker.failed:
                self._maybe_start_worker(domain, worker, now)
        self._attempt_migrations(domain, now)
        self._start_phase(domain, now)

    def _maybe_start_worker(
        self, domain: _DomainHost, worker: WorkerProcessor, now: float
    ) -> None:
        running = worker.start_next(now)
        if running is not None:
            record = self.trace.records[running.task.task_id]
            record.started_at = running.started_at
            if self.obs.enabled:
                self._task_event(
                    "started",
                    running.task.task_id,
                    running.started_at,
                    processor=worker.processor_id,
                )
            self.engine.schedule_at(
                running.finishes_at,
                TaskFinished(
                    processor=worker.processor_id,
                    task_id=running.task.task_id,
                ),
            )

    def _on_task_finished(self, now: float, event: TaskFinished) -> None:
        domain, worker = self._worker_index[event.processor]
        if worker.failed:
            return
        finished = worker.complete_current(now)
        if finished.task.task_id != event.task_id:
            raise SimulationError(
                f"P{event.processor} finished task {finished.task.task_id}, "
                f"expected {event.task_id}"
            )
        record = self.trace.records[event.task_id]
        record.status = STATUS_COMPLETED
        record.finished_at = now
        if self.obs.enabled:
            self._task_event(
                "finished",
                event.task_id,
                now,
                processor=event.processor,
                met_deadline=record.met_deadline,
                deadline=record.task.deadline,
            )
        self._maybe_start_worker(domain, worker, now)

    def _on_processor_failed(self, now: float, event: ProcessorFailed) -> None:
        domain, worker = self._worker_index[event.processor]
        if worker.failed:
            return
        lost, survivors = worker.fail(now)
        domain.driver.worker_lost()
        if lost is not None:
            record = self.trace.records[lost.task.task_id]
            record.status = STATUS_FAILED
            record.finished_at = None
            domain.driver.revoke(lost.task.task_id)
            if self.obs.enabled:
                self._task_event(
                    "failed", lost.task.task_id, now, processor=event.processor
                )
        surrendered: List[Task] = []
        for work in survivors:
            record = self.trace.records[work.task.task_id]
            record.scheduled_phase = None
            record.processor = None
            record.delivered_at = None
            record.planned_cost = None
            record.actual_cost = None
            # Requeue the *original* task: the queued copy may carry a
            # domain-projected affinity from transform_batch.
            surrendered.append(record.task)
        domain.driver.surrender(surrendered)
        self._request_wake(domain, now)

    # ----- migration --------------------------------------------------------

    def _attempt_migrations(self, origin: _DomainHost, now: float) -> None:
        """Offer each task the origin's search left unplaced to one peer.

        Candidates are the batch leftovers after delivery — exactly the
        tasks the local feasibility search failed to guarantee.  Each is
        offered at most once, to the least-loaded peer (mean remaining
        work, ties to the lowest domain id); an accepted task is
        withdrawn here and admitted there, a declined one is barred and
        falls back to the origin's normal surrender/expiry path.
        """
        if len(self.domains) <= 1:
            return
        leftovers = sorted(
            origin.driver.batch.tasks(), key=lambda t: t.task_id
        )
        woken: Set[int] = set()
        # Neither the peer ranking nor the target's loads change inside
        # the loop (withdraw touches the origin's batch, admit only the
        # target's pending list): computed once, before the first offer.
        target: Optional[_DomainHost] = None
        target_loads: List[float] = []
        for stale in leftovers:
            task = self.trace.records[stale.task_id].task  # original affinity
            if task.task_id in self._migration_barred:
                continue
            if task.is_expired(now):
                continue
            if target is None:
                target = min(
                    (d for d in self.domains if d is not origin),
                    key=lambda d: (d.total_load(now), d.domain_id),
                )
                target_loads = target.loads(now)
            self._migration_barred.add(task.task_id)
            self.stats.record_offer(origin.domain_id)
            if self.obs.enabled:
                self._task_event(
                    "migration_offered",
                    task.task_id,
                    now,
                    from_domain=origin.domain_id,
                    to_domain=target.domain_id,
                )
            accepted = can_guarantee(
                task,
                now,
                target_loads,
                target.workers,
                self.remote_cost,
            )
            if not accepted:
                self.stats.record_decline()
                if self.obs.enabled:
                    self._task_event(
                        "migration_declined",
                        task.task_id,
                        now,
                        from_domain=origin.domain_id,
                        to_domain=target.domain_id,
                    )
                continue
            withdrawn = origin.driver.withdraw([task.task_id])
            if not withdrawn:
                continue  # raced out of the batch; nothing to hand off
            self.stats.record_accept(target.domain_id)
            target.driver.admit([task])
            if self.obs.enabled:
                self._task_event(
                    "migrated",
                    task.task_id,
                    now,
                    from_domain=origin.domain_id,
                    to_domain=target.domain_id,
                )
            woken.add(target.domain_id)
        for domain_id in sorted(woken):
            self._request_wake(self.domains[domain_id], now)

    # ----- public API -------------------------------------------------------

    def run(self) -> RunReport:
        """Execute the full workload across all domains; merged report."""
        lent: List[Scheduler] = []
        for domain in self.domains:
            domain.scheduler.reset()
            if self.obs.enabled and domain.scheduler.instrumentation is None:
                domain.scheduler.instrumentation = self.obs
                lent.append(domain.scheduler)
        try:
            return self._run()
        finally:
            for scheduler in lent:
                scheduler.instrumentation = None

    def _run(self) -> RunReport:
        start_wall = time.monotonic()
        obs = self.obs
        if obs.enabled:
            obs.emit(
                "run_start",
                workers=self.assignment.num_workers,
                tasks=len(self.workload),
                domains=self.assignment.num_domains,
                partition_policy=self.assignment.policy,
            )
        for task in self.workload:
            self.trace.add_task(task)
            self.engine.schedule_at(task.arrival_time, TaskArrived(task))
        for at, processor in self.failures:
            self.engine.schedule_at(at, ProcessorFailed(processor))
        self.engine.run(max_events=self.max_events)
        if any(d.driver.has_backlog() for d in self.domains):
            raise SimulationError(
                "sharded simulation drained with tasks still unscheduled; "
                "this indicates a stalled domain host loop"
            )
        # Every batch is empty now.  Drop the last projected batches: a
        # finished runtime is cyclic garbage and would keep them until the
        # collector's next full pass.
        for domain in self.domains:
            domain.projection = AffinityProjection(domain.workers)
        self.trace.finished_at = self.engine.now
        trace = self.trace
        phases = sorted(
            (p for d in self.domains for p in d.driver.phases),
            key=lambda p: (p.start, p.end, p.index),
        )
        trace.phases = phases
        completed = len(trace.completed())
        hits = trace.deadline_hits()
        report = RunReport(
            backend="sharded",
            scheduler_name=self.domains[0].scheduler.name,
            num_workers=self.assignment.num_workers,
            seed=self.seed,
            total_tasks=trace.total_tasks(),
            guaranteed=sum(d.driver.guaranteed_count for d in self.domains),
            completed=completed,
            deadline_hits=hits,
            completed_late=completed - hits,
            expired=len(trace.expired()),
            failed=len(trace.failed()),
            guaranteed_violations=len(trace.scheduled_but_missed()),
            reschedules=sum(d.driver.reschedules for d in self.domains),
            workers_lost=sum(d.driver.workers_lost for d in self.domains),
            makespan=self.engine.now,
            wall_seconds=time.monotonic() - start_wall,
            phases=phases,
            migration=self.stats.as_section(),
            extras={
                "trace": trace,
                "events_dispatched": self.engine.events_dispatched,
                "assignment": self.assignment.as_dict(),
            },
        )
        if obs.enabled:
            obs.emit(
                "run_end",
                workers=self.assignment.num_workers,
                tasks=trace.total_tasks(),
                deadline_hits=hits,
                phases=len(phases),
                makespan=self.engine.now,
                domains=self.assignment.num_domains,
                migrations=self.stats.accepted,
                events_dispatched=self.engine.events_dispatched,
            )
            obs.metrics.counter("runtime_runs").inc()
            obs.metrics.counter(
                "runtime_events_dispatched"
            ).inc(self.engine.events_dispatched)
            obs.metrics.histogram("runtime_makespan").observe(self.engine.now)
        return report
