"""The on-line scheduling runtime: host + workers under a virtual clock.

This is the simulator counterpart of the paper's deployment on the Intel
Paragon: a dedicated host processor runs scheduling phases back to back
while the ``m`` working processors concurrently execute previously delivered
schedules.  The cycle per phase ``j`` (paper Section 4):

1. form ``Batch(j)`` from unscheduled leftovers plus tasks arrived during
   phase ``j-1``; evict tasks whose deadlines are already hopeless;
2. allocate ``Q_s(j)`` via the scheduler's quantum policy;
3. search for a feasible (partial) schedule ``S_j`` under that quantum;
4. at ``t_e = t_s + sigma_j`` deliver ``S_j`` to the ready queues.

The loop itself lives in the backend-neutral
:class:`~repro.runtime.driver.PhaseDriver`; this module is the simulator's
:class:`~repro.runtime.driver.PhaseHooks` implementation — it answers the
driver's questions (loads, delivery, expiry accounting) in virtual time
and wires the driver to the discrete-event engine.  Workers execute
non-preemptively in delivery order and report completions as events.  The
runtime records every task's lifecycle for the metrics layer.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional

from ..core.scheduler import Scheduler
from ..core.task import Task, TaskSet
from ..observability import Instrumentation, get_instrumentation
from ..runtime.driver import OpenPhase, PhaseDriver, PhaseHooks
from ..runtime.report import RunReport
from .engine import SimulationEngine, SimulationError
from .events import (
    HostWake,
    ProcessorFailed,
    ScheduleDelivered,
    TaskArrived,
    TaskFinished,
)
from .execution import ExecutionTimeModel, resolve_actual_cost
from .machine import Machine, MachineConfig
from .trace import (
    STATUS_COMPLETED,
    STATUS_EXPIRED,
    STATUS_FAILED,
    SimulationTrace,
)

#: Safety cap on dispatched events; generously above any legitimate run
#: (a 1000-task burst dispatches a few thousand events).
DEFAULT_MAX_EVENTS = 5_000_000


class DistributedRuntime(PhaseHooks):
    """Drives one scheduler over one workload on one simulated machine."""

    def __init__(
        self,
        scheduler: Scheduler,
        machine: Machine,
        workload: Iterable[Task],
        max_events: int = DEFAULT_MAX_EVENTS,
        validate_phases: bool = False,
        execution_model: Optional[ExecutionTimeModel] = None,
        failures: Optional[List] = None,
        instrumentation: Optional[Instrumentation] = None,
        seed: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.machine = machine
        self.workload = list(workload)
        self.max_events = max_events
        self.validate_phases = validate_phases
        self.execution_model = execution_model
        self.seed = seed
        # (time, processor) fail-stop crash injections.
        self.failures = list(failures or [])
        for at, processor in self.failures:
            if not 0 <= processor < machine.num_workers:
                raise ValueError(f"failure targets unknown P{processor}")
            if at < 0:
                raise ValueError("failure time must be non-negative")

        # Resolved at construction; bound with the scheduler name so every
        # event this run emits says which scheduler produced it.
        base_obs = instrumentation or get_instrumentation()
        self.obs = (
            base_obs.bind(scheduler=scheduler.name)
            if base_obs.enabled
            else base_obs
        )
        self.engine = SimulationEngine()
        self.trace = SimulationTrace()
        self.driver = PhaseDriver(scheduler=scheduler, hooks=self)
        # One phase list, shared by reference: the driver appends, the
        # trace's aggregate views read.
        self.trace.phases = self.driver.phases
        self._host_busy = False
        self._wake_pending = False
        self._open_phase: Optional[OpenPhase] = None

        self.engine.subscribe(TaskArrived, self._on_task_arrived)
        self.engine.subscribe(HostWake, self._on_host_wake)
        self.engine.subscribe(ScheduleDelivered, self._on_schedule_delivered)
        self.engine.subscribe(TaskFinished, self._on_task_finished)
        self.engine.subscribe(ProcessorFailed, self._on_processor_failed)

    # ----- instrumentation -------------------------------------------------

    def _task_event(
        self, transition: str, task_id: int, t: float, **extra: object
    ) -> None:
        """One task lifecycle transition (trace event + transition counter)."""
        self.obs.emit("task", transition=transition, task_id=task_id, t=t, **extra)
        self.obs.metrics.counter(
            "runtime_task_transitions", transition=transition
        ).inc()

    # ----- PhaseHooks: the driver's view of the simulated machine ----------

    def loads(self, now: float) -> List[float]:
        return self.machine.loads(now)

    def on_task_expired(self, task: Task, now: float) -> None:
        self.trace.records[task.task_id].status = STATUS_EXPIRED
        if self.obs.enabled:
            self._task_event(
                "expired",
                task.task_id,
                now,
                deadline=task.deadline,
                arrival=task.arrival_time,
            )

    def deliver_entry(self, entry, phase_index: int, now: float) -> bool:
        worker = self.machine.workers[entry.processor]
        if worker.failed:
            # The processor died between phase start and delivery; the
            # assignment returns to the pending set and is rescheduled on
            # the survivors through the normal feasibility path.
            return False
        record = self.trace.records[entry.task.task_id]
        record.scheduled_phase = phase_index
        record.processor = entry.processor
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
                processor=entry.processor,
                phase=phase_index,
                arrival=entry.task.arrival_time,
                deadline=entry.task.deadline,
                planned_cost=entry.total_cost,
            )
        return True

    # ----- event handlers --------------------------------------------------

    def _on_task_arrived(self, now: float, event: TaskArrived) -> None:
        self.driver.admit([event.task])
        if self.obs.enabled:
            # Deadline + worst-case cost ride on the arrival so a trace is
            # self-contained for the offline schedulability oracle (expired
            # tasks never reach a transition that stamps their cost).
            self._task_event(
                "arrived",
                event.task.task_id,
                now,
                deadline=event.task.deadline,
                cost=event.task.processing_time,
            )
        self._request_wake(now)

    def _request_wake(self, now: float) -> None:
        if self._host_busy or self._wake_pending:
            return
        self._wake_pending = True
        self.engine.schedule_at(now, HostWake())

    def _on_host_wake(self, now: float, event: HostWake) -> None:
        self._wake_pending = False
        if not self._host_busy:
            self._start_phase(now)

    def _start_phase(self, now: float) -> None:
        """Open scheduling phase ``j`` if there is anything to schedule."""
        opened = self.driver.open_phase(now)
        if opened is None:
            # Nothing schedulable; the host sleeps until the next arrival.
            return
        if self.validate_phases:
            opened.result.validate(self.machine.comm)
        self._host_busy = True
        self._open_phase = opened
        self.engine.schedule_at(
            opened.result.phase_end, ScheduleDelivered(opened.result)
        )

    def _on_schedule_delivered(self, now: float, event: ScheduleDelivered) -> None:
        opened = self._open_phase
        self._open_phase = None
        self._host_busy = False
        self.driver.deliver_phase(opened, now)
        # Kick any worker that was idle and just received work.
        for entry in opened.result.schedule:
            if not self.machine.workers[entry.processor].failed:
                self._maybe_start_worker(entry.processor, now)
        self._start_phase(now)

    def _maybe_start_worker(self, processor: int, now: float) -> None:
        worker = self.machine.workers[processor]
        running = worker.start_next(now)
        if running is not None:
            record = self.trace.records[running.task.task_id]
            record.started_at = running.started_at
            if self.obs.enabled:
                self._task_event(
                    "started",
                    running.task.task_id,
                    running.started_at,
                    processor=processor,
                )
            self.engine.schedule_at(
                running.finishes_at,
                TaskFinished(processor=processor, task_id=running.task.task_id),
            )

    def _on_processor_failed(self, now: float, event: ProcessorFailed) -> None:
        worker = self.machine.workers[event.processor]
        if worker.failed:
            return
        lost, survivors = worker.fail(now)
        self.driver.worker_lost()
        if lost is not None:
            record = self.trace.records[lost.task.task_id]
            record.status = STATUS_FAILED
            record.finished_at = None
            # The guarantee died with the processor; the task is terminal
            # and cannot be requeued (non-preemptive, partially executed).
            self.driver.revoke(lost.task.task_id)
            if self.obs.enabled:
                self._task_event(
                    "failed", lost.task.task_id, now, processor=event.processor
                )
        surrendered: List[Task] = []
        for work in survivors:
            # Undelivered work returns to the host for rescheduling on the
            # surviving processors, through the normal feasibility path.
            record = self.trace.records[work.task.task_id]
            record.scheduled_phase = None
            record.processor = None
            record.delivered_at = None
            record.planned_cost = None
            record.actual_cost = None
            surrendered.append(work.task)
        self.driver.surrender(surrendered)
        self._request_wake(now)

    def _on_task_finished(self, now: float, event: TaskFinished) -> None:
        worker = self.machine.workers[event.processor]
        if worker.failed:
            # Stale completion of a task that was lost in the crash.
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
        self._maybe_start_worker(event.processor, now)

    # ----- public API ------------------------------------------------------

    def run(self) -> RunReport:
        """Execute the full workload; returns the aggregated report."""
        self.scheduler.reset()
        obs = self.obs
        # Lend the run's instrumentation to the scheduler so phase spans and
        # per-scheduler counters flow even when the caller passed it only to
        # simulate(); an explicitly instrumented scheduler keeps its own.
        lend_obs = obs.enabled and self.scheduler.instrumentation is None
        if lend_obs:
            self.scheduler.instrumentation = obs
        try:
            return self._run(obs)
        finally:
            if lend_obs:
                self.scheduler.instrumentation = None

    def _run(self, obs: Instrumentation) -> RunReport:
        start_wall = time.monotonic()
        if obs.enabled:
            obs.emit(
                "run_start",
                workers=self.machine.num_workers,
                tasks=len(self.workload),
            )
        for task in self.workload:
            self.trace.add_task(task)
            self.engine.schedule_at(task.arrival_time, TaskArrived(task))
        for at, processor in self.failures:
            self.engine.schedule_at(at, ProcessorFailed(processor))
        self.engine.run(max_events=self.max_events)
        if self.driver.has_backlog():
            raise SimulationError(
                "simulation drained with tasks still unscheduled; "
                "this indicates a stalled host loop"
            )
        self.trace.finished_at = self.engine.now
        trace = self.trace
        completed = len(trace.completed())
        hits = trace.deadline_hits()
        report = RunReport(
            backend="sim",
            scheduler_name=self.scheduler.name,
            num_workers=self.machine.num_workers,
            seed=self.seed,
            total_tasks=trace.total_tasks(),
            guaranteed=self.driver.guaranteed_count,
            completed=completed,
            deadline_hits=hits,
            completed_late=completed - hits,
            expired=len(trace.expired()),
            failed=len(trace.failed()),
            guaranteed_violations=len(trace.scheduled_but_missed()),
            reschedules=self.driver.reschedules,
            workers_lost=self.driver.workers_lost,
            makespan=self.engine.now,
            wall_seconds=time.monotonic() - start_wall,
            phases=trace.phases,
            extras={
                "trace": trace,
                "events_dispatched": self.engine.events_dispatched,
            },
        )
        if obs.enabled:
            obs.emit(
                "run_end",
                workers=self.machine.num_workers,
                tasks=self.trace.total_tasks(),
                deadline_hits=self.trace.deadline_hits(),
                phases=len(self.trace.phases),
                makespan=self.engine.now,
                events_dispatched=self.engine.events_dispatched,
            )
            obs.metrics.counter("runtime_runs").inc()
            obs.metrics.counter(
                "runtime_events_dispatched"
            ).inc(self.engine.events_dispatched)
            obs.metrics.histogram("runtime_makespan").observe(self.engine.now)
        return report


def simulate(
    scheduler: Scheduler,
    workload: Iterable[Task] | TaskSet,
    num_workers: int,
    comm=None,
    validate_phases: bool = False,
    execution_model: Optional[ExecutionTimeModel] = None,
    failures: Optional[List] = None,
    instrumentation: Optional[Instrumentation] = None,
    seed: int = 0,
) -> RunReport:
    """Convenience wrapper: build the machine and run one simulation.

    ``comm`` defaults to the scheduler's own communication model when it has
    one (all built-in schedulers do), keeping the scheduler's view of costs
    and the machine's actual costs consistent.  ``seed`` is recorded in the
    report for provenance only — the workload is whatever the caller built.
    """
    if comm is None:
        comm = getattr(scheduler, "comm", None)
        if comm is None:
            raise ValueError(
                "scheduler exposes no communication model; pass comm explicitly"
            )
    machine = Machine(MachineConfig(num_workers=num_workers, comm=comm))
    runtime = DistributedRuntime(
        scheduler=scheduler,
        machine=machine,
        workload=workload,
        validate_phases=validate_phases,
        execution_model=execution_model,
        failures=failures,
        instrumentation=instrumentation,
        seed=seed,
    )
    return runtime.run()
