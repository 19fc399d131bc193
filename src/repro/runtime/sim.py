"""The simulator backend: the virtual-clock discrete-event machine.

This is the default backend and the paper's own evaluation vehicle.  It
takes the seeded task set from :func:`repro.experiments.runner.workload_tasks`
(built once per ``(config, seed)``), builds the named scheduler, runs one
:class:`~repro.simulator.runtime.DistributedRuntime`, and returns its
:class:`~repro.runtime.report.RunReport`.
"""

from __future__ import annotations

from ..observability import get_instrumentation
from .backend import ExecutionBackend, register_backend
from .report import RunReport


class SimBackend(ExecutionBackend):
    """Runs a cell on the discrete-event simulator."""

    name = "sim"

    def run_once(
        self,
        config,
        scheduler_name: str,
        seed: int,
        *,
        evaluator=None,
        quantum_policy=None,
        validate_phases: bool = False,
        instrumentation=None,
    ) -> RunReport:
        """Simulate one repetition on the virtual clock.

        Takes the workload of ``(config, seed)``, runs the discrete-event loop,
        and returns its :class:`RunReport`; every time in the report is
        virtual quanta except ``wall_seconds``, which is the simulation's
        real CPU time.  Pure and stateless, so one ``SimBackend`` may be
        shared by any number of threads or sweep worker processes.
        """
        # Imported here, not at module level: the experiment builders
        # import the backend registry, so the arrow must point one way at
        # import time.
        from ..core.affinity import UniformCommunicationModel
        from ..experiments.runner import build_scheduler, workload_tasks
        from ..simulator.runtime import simulate

        if getattr(config, "domains", 1) > 1:
            # A multi-domain cell is the sharded runtime's job; delegating
            # keeps `--backend sim --domains k` meaningful instead of
            # silently ignoring the partition.
            from .sharded import ShardedBackend

            return ShardedBackend().run_once(
                config, scheduler_name, seed,
                evaluator=evaluator, quantum_policy=quantum_policy,
                validate_phases=validate_phases,
                instrumentation=instrumentation,
            )

        comm = UniformCommunicationModel(remote_cost=config.remote_cost)
        tasks = workload_tasks(config, seed)
        scheduler = build_scheduler(
            scheduler_name, config, comm,
            evaluator=evaluator, quantum_policy=quantum_policy,
        )
        obs = (
            instrumentation
            if instrumentation is not None
            else get_instrumentation()
        )
        return simulate(
            scheduler=scheduler,
            workload=tasks,
            num_workers=config.num_processors,
            validate_phases=validate_phases,
            instrumentation=obs.bind(seed=seed) if obs.enabled else None,
            seed=seed,
        )


register_backend(SimBackend.name, SimBackend)
