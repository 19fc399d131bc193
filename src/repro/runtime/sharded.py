"""The sharded backend: k scheduling domains on the virtual clock.

Takes the same seeded workload as the ``sim`` backend, partitions the
worker set per ``config.domains`` / ``config.partition_policy``, gives
every domain its own scheduler instance (independent search state — the
whole point), and runs the
:class:`~repro.sharding.sim.ShardedRuntime`.  With ``domains=1`` the
partition is trivial but the run still goes through the sharded code
path, which is what lets the shard-curve compare k=1 against k>1 inside
one backend's physics.
"""

from __future__ import annotations

from ..observability import get_instrumentation
from .backend import ExecutionBackend, register_backend
from .report import RunReport


class ShardedBackend(ExecutionBackend):
    """Runs a cell on the multi-domain discrete-event simulator."""

    name = "sharded"

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
        """Simulate one repetition across ``config.domains`` domains.

        Deterministic for a ``(config, seed)`` pair: the workload, the
        partition, the routing, and every migration decision are pure
        functions of the inputs, so sweep cells are byte-stable across
        worker counts exactly like the single-master simulator's.
        """
        # Imported here, not at module level: the experiment builders
        # import the backend registry, so the arrow must point one way at
        # import time.
        from ..core.affinity import UniformCommunicationModel
        from ..core.domains import partition_workers
        from ..experiments.runner import build_scheduler, workload_tasks
        from ..sharding.sim import ShardedRuntime

        comm = UniformCommunicationModel(remote_cost=config.remote_cost)
        tasks = workload_tasks(config, seed)
        assignment = partition_workers(
            config.num_processors,
            config.domains,
            config.partition_policy,
            tasks=tasks,
        )
        schedulers = [
            build_scheduler(
                scheduler_name, config, comm,
                evaluator=evaluator, quantum_policy=quantum_policy,
            )
            for _ in range(assignment.num_domains)
        ]
        obs = (
            instrumentation
            if instrumentation is not None
            else get_instrumentation()
        )
        runtime = ShardedRuntime(
            schedulers=schedulers,
            assignment=assignment,
            workload=tasks,
            remote_cost=config.remote_cost,
            validate_phases=validate_phases,
            instrumentation=obs.bind(seed=seed) if obs.enabled else None,
            seed=seed,
        )
        return runtime.run()


register_backend(ShardedBackend.name, ShardedBackend)
