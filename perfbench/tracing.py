"""Spans around calls into each layer of ``repro``, recorded in memory.

The traced run wraps the public functions of every layer *where callers
look them up*: a name bound by ``from ... import`` is patched in the
importing module, a method on its class.  Each wrapped call becomes one
span ``(name, start, end, parent)``; the layer is the name's prefix before
the first dot.  Nothing inside ``src/`` changes, and :meth:`Patcher.restore`
puts every original object back.

Spans are kept in flat lists while the run is going and written out once it
ends.  The recorder assumes one thread calls the wrapped functions (true of
the simulator and of the service master's event loop).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) for every wrapped layer entry point.
#: ``runner.run_once`` and ``run_service`` are wrapped separately by the
#: callers that need their return values (the run reports).
LAYER_PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.build_workload", "repro.experiments.runner", "build_workload"),
    ("experiments.render", "repro.experiments.figures", "SweepResult.render"),
    ("database.build", "repro.database.database", "DistributedDatabase.build"),
    (
        "workload.generate",
        "repro.workload.transactions",
        "TransactionWorkloadGenerator.generate",
    ),
    ("analysis.oracle", "repro.experiments.runner", "analyze_tasks"),
    ("simulator.step", "repro.simulator.engine", "SimulationEngine.step"),
    ("runtime.open_phase", "repro.runtime.driver", "PhaseDriver.open_phase"),
    ("runtime.deliver_phase", "repro.runtime.driver", "PhaseDriver.deliver_phase"),
    ("core.quantum", "repro.core.scheduler", "SearchScheduler.plan_quantum"),
    ("core.search", "repro.core.scheduler", "run_phase"),
    ("sharding.migrate", "repro.sharding.sim", "ShardedRuntime._attempt_migrations"),
    ("sharding.offer_check", "repro.sharding.sim", "can_guarantee"),
    ("cluster.pack", "repro.cluster.network", "pack"),
    ("cluster.unpack", "repro.cluster.protocol", "unpack"),
    ("cluster.poll", "repro.cluster.network", "MessageHub.poll"),
    ("cluster.send", "repro.cluster.network", "MessageHub.send"),
    ("service.admit", "repro.service.admission", "RejectNewestPolicy.decide"),
    ("service.admit", "repro.service.admission", "LeastSlackPolicy.decide"),
    ("service.admit", "repro.service.admission", "SchedulabilityPolicy.decide"),
)


class SpanRecorder:
    """Flat in-memory span store; parents come from a call stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        function: Callable,
        results: Optional[list] = None,
    ) -> Callable:
        """``function`` recording one span per call (and its result, if asked)."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if results is not None:
                results.append(result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.names)

    def durations(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = self.durations()
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def write_jsonl(self, path: str) -> None:
        """One ``{"name", "start", "end", "parent"}`` object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in zip(
                self.names, self.starts, self.ends, self.parents
            ):
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent}
                    )
                )
                handle.write("\n")


def _resolve(module_name: str, path: str):
    """(owner, attribute) for ``path`` = ``"name"`` or ``"Class.name"``."""
    owner = importlib.import_module(module_name)
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attribute


class Patcher:
    """Installs wrappers and puts every original object back on restore."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[tuple] = []

    def patch(
        self,
        module_name: str,
        path: str,
        span: str,
        results: Optional[list] = None,
    ) -> None:
        owner, attribute = _resolve(module_name, path)
        # The raw class-dict entry keeps classmethod/staticmethod wrappers.
        if isinstance(owner, type):
            original = vars(owner)[attribute]
        else:
            original = getattr(owner, attribute)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(
                self.recorder.wrap(span, original.__func__, results)
            )
        else:
            replacement = self.recorder.wrap(span, original, results)
        setattr(owner, attribute, replacement)
        self._saved.append((owner, attribute, original))

    def patch_layers(self) -> None:
        for span, module_name, path in LAYER_PATCHES:
            self.patch(module_name, path, span)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(recorder: SpanRecorder, root: int = 0) -> Dict[str, object]:
    """Per-span-name durations and per-layer self times under span ``root``.

    ``unattributed_s`` is the root's own self time: traced wall time that
    no layer span covers.  Layer self times plus it equal the root's
    duration.
    """
    durations = recorder.durations()
    own = recorder.self_times()
    by_name: Dict[str, Dict[str, object]] = {}
    layers: Dict[str, float] = {}
    for index, name in enumerate(recorder.names):
        if index == root:
            continue
        entry = by_name.setdefault(name, {"durations": [], "self_s": 0.0})
        entry["durations"].append(durations[index])
        entry["self_s"] += own[index]
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + own[index]
    return {
        "wall_s": durations[root],
        "unattributed_s": own[root],
        "layers": layers,
        "spans": by_name,
    }
