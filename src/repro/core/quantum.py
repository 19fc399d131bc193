"""Allocation of scheduling time: the quantum policies (paper Section 4.2).

RT-SADS self-adjusts the time ``Q_s(j)`` allocated to scheduling phase ``j``
with the criterion of Figure 3::

    Q_s(j) <= max(Min_Slack, Min_Load)
    Min_Slack = min slack over tasks in Batch(j)
    Min_Load  = min remaining load over working processors

Long quanta are granted when slacks are large or processors are busy (more
time to optimize); short quanta when slacks are small or a processor is about
to idle (honor deadlines, reduce idle time).  Fixed and single-term policies
are provided for the quantum ablation (A1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

from .task import Task

#: Smallest quantum any policy will grant.  A zero quantum would forbid even
#: one vertex evaluation and stall the runtime; a handful of evaluations is
#: always allowed (10 vertices at the default per-vertex cost of 0.1).
DEFAULT_MIN_QUANTUM = 1.0


class QuantumPolicy(ABC):
    """Decides ``Q_s(j)`` from the batch, processor loads, and current time."""

    def __init__(
        self,
        min_quantum: float = DEFAULT_MIN_QUANTUM,
        max_quantum: Optional[float] = None,
    ) -> None:
        if min_quantum <= 0:
            raise ValueError("min_quantum must be positive")
        if max_quantum is not None and max_quantum < min_quantum:
            raise ValueError("max_quantum must be >= min_quantum")
        self.min_quantum = min_quantum
        self.max_quantum = max_quantum

    @abstractmethod
    def _raw_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        """Policy-specific quantum before clamping."""

    def quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        """Clamped ``Q_s(j)`` for a phase starting at ``now``."""
        value = self._raw_quantum(batch, loads, now)
        value = max(value, self.min_quantum)
        if self.max_quantum is not None:
            value = min(value, self.max_quantum)
        return value

    @property
    def name(self) -> str:
        return type(self).__name__


def min_slack(batch: Sequence[Task], now: float) -> float:
    """``Min_Slack``: smallest slack among batch tasks, floored at zero."""
    if not batch:
        return 0.0
    # Task.slack's expression, inlined: this scans the batch every phase.
    return max(
        0.0, min([t.deadline - now - t.processing_time for t in batch])
    )


def min_load(loads: Sequence[float]) -> float:
    """``Min_Load``: smallest remaining load among working processors."""
    if not loads:
        return 0.0
    return min(loads)


class SelfAdjustingQuantum(QuantumPolicy):
    """The paper's criterion: ``Q_s(j) = max(Min_Slack, Min_Load)``.

    ``Min_Slack`` caps scheduling time so no batch task's deadline is burned
    by scheduling overhead; when the shortest processor queue exceeds it,
    waiting tasks would miss their deadlines anyway, so the quantum is
    extended to ``Min_Load``, buying schedule quality at no compliance cost.
    """

    def _raw_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        return max(min_slack(batch, now), min_load(loads))


class SlackOnlyQuantum(QuantumPolicy):
    """Ablation: ``Q_s(j) = Min_Slack`` (ignores processor loads)."""

    def _raw_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        return min_slack(batch, now)


class LoadOnlyQuantum(QuantumPolicy):
    """Ablation: ``Q_s(j) = Min_Load`` (ignores task slacks)."""

    def _raw_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        return min_load(loads)


class FixedQuantum(QuantumPolicy):
    """Ablation: a constant quantum, the non-adaptive strawman."""

    def __init__(self, value: float) -> None:
        if value <= 0:
            raise ValueError("fixed quantum must be positive")
        super().__init__(min_quantum=value, max_quantum=value)
        self.value = value

    def _raw_quantum(
        self, batch: Sequence[Task], loads: Sequence[float], now: float
    ) -> float:
        return self.value


def get_quantum_policy(name: str, **kwargs) -> QuantumPolicy:
    """Factory by short name, used by experiment configs and the CLI."""
    policies = {
        "self_adjusting": SelfAdjustingQuantum,
        "slack_only": SlackOnlyQuantum,
        "load_only": LoadOnlyQuantum,
        "fixed": FixedQuantum,
    }
    try:
        cls = policies[name]
    except KeyError:
        raise ValueError(
            f"unknown quantum policy {name!r}; choose from {sorted(policies)}"
        ) from None
    return cls(**kwargs)
