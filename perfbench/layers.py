"""The per-layer metrics of a traced run, computed from its spans.

Times come from spans (see :mod:`perfbench.tracing`); counts such as
phases, vertices and engine events come from the run reports the program
returned, never from timers.  Every metric is reported on every workload;
a layer the workload does not run reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("database.build_calls", "count"),
    ("database.build_s", "s"),
    ("workload.generate_calls", "count"),
    ("workload.generate_s", "s"),
    ("analysis.oracle_calls", "count"),
    ("analysis.oracle_s", "s"),
    ("experiments.runs", "count"),
    ("experiments.self_s", "s"),
    ("experiments.render_s", "s"),
    ("runtime.phases", "count"),
    ("runtime.open_phase_self_s", "s"),
    ("runtime.deliver_s", "s"),
    ("core.quantum_s", "s"),
    ("core.search_s", "s"),
    ("core.search_p50_us", "us"),
    ("core.search_p99_us", "us"),
    ("core.vertices", "count"),
    ("core.vertices_per_s", "1/s"),
    ("core.scheduled_per_kvertex", "tasks/kvertex"),
    ("core.dead_end_ratio", "ratio"),
    ("simulator.events", "count"),
    ("simulator.self_s", "s"),
    ("sharding.self_s", "s"),
    ("sharding.offer_checks", "count"),
    ("sharding.offer_check_s", "s"),
    ("sharding.migration_accept_ratio", "ratio"),
    ("cluster.frames_in", "count"),
    ("cluster.frames_out", "count"),
    ("cluster.pack_s", "s"),
    ("cluster.unpack_s", "s"),
    ("cluster.poll_s", "s"),
    ("service.admit_calls", "count"),
    ("service.admit_s", "s"),
    ("service.admit_p99_us", "us"),
    ("service.accept_ratio", "ratio"),
    ("load.latency_p99_ms", "ms"),
    ("load.lateness_p99_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
)


def percentile(values: Sequence[float], pct: float) -> float:
    """Inclusive linear-interpolation percentile; 0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def report_counts(reports: Iterable) -> Dict[str, float]:
    """Work counts summed over :class:`~repro.runtime.report.RunReport`s."""
    counts = {
        "phases": 0, "vertices": 0, "scheduled": 0,
        "dead_ends": 0, "events": 0, "offers": 0, "migrated": 0,
        "submitted": 0, "accepted": 0,
    }
    for report in reports:
        counts["phases"] += len(report.phases)
        for phase in report.phases:
            counts["vertices"] += phase.vertices_generated
            counts["scheduled"] += phase.scheduled
            counts["dead_ends"] += int(phase.dead_end)
        counts["events"] += report.events_dispatched
        counts["offers"] += int(report.migration.get("offers", 0))
        counts["migrated"] += int(report.migration.get("accepted", 0))
        counts["submitted"] += int(report.extras.get("submitted", 0))
        counts["accepted"] += int(report.extras.get("accepted", 0))
    return counts


def layer_metrics(
    summary: Dict[str, object],
    counts: Dict[str, float],
    overhead_pct: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from a span summary and report counts.

    The ``load.*`` values are the service generator's; the caller fills
    them in where a generator ran.
    """
    spans: Dict[str, dict] = summary["spans"]

    def durations(name: str) -> List[float]:
        return spans.get(name, {}).get("durations", [])

    def calls(name: str) -> int:
        return len(durations(name))

    def total(name: str) -> float:
        return sum(durations(name))

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    layers: Dict[str, float] = summary["layers"]
    wall = float(summary["wall_s"])
    search_s = total("core.search")
    return {
        "database.build_calls": calls("database.build"),
        "database.build_s": total("database.build"),
        "workload.generate_calls": calls("workload.generate"),
        "workload.generate_s": total("workload.generate"),
        "analysis.oracle_calls": calls("analysis.oracle"),
        "analysis.oracle_s": total("analysis.oracle"),
        "experiments.runs": calls("experiments.run"),
        "experiments.self_s": layers.get("experiments", 0.0),
        "experiments.render_s": total("experiments.render"),
        "runtime.phases": counts["phases"],
        "runtime.open_phase_self_s": own("runtime.open_phase"),
        "runtime.deliver_s": total("runtime.deliver_phase"),
        "core.quantum_s": total("core.quantum"),
        "core.search_s": search_s,
        "core.search_p50_us": 1e6 * percentile(durations("core.search"), 50),
        "core.search_p99_us": 1e6 * percentile(durations("core.search"), 99),
        "core.vertices": counts["vertices"],
        "core.vertices_per_s": ratio(counts["vertices"], search_s),
        "core.scheduled_per_kvertex": 1000.0
        * ratio(counts["scheduled"], counts["vertices"]),
        "core.dead_end_ratio": ratio(counts["dead_ends"], counts["phases"]),
        "simulator.events": counts["events"],
        "simulator.self_s": layers.get("simulator", 0.0),
        "sharding.self_s": layers.get("sharding", 0.0),
        "sharding.offer_checks": counts["offers"],
        "sharding.offer_check_s": total("sharding.offer_check"),
        "sharding.migration_accept_ratio": ratio(
            counts["migrated"], counts["offers"]
        ),
        "cluster.frames_in": calls("cluster.unpack"),
        "cluster.frames_out": calls("cluster.pack"),
        "cluster.pack_s": total("cluster.pack"),
        "cluster.unpack_s": total("cluster.unpack"),
        "cluster.poll_s": total("cluster.poll"),
        "service.admit_calls": calls("service.admit"),
        "service.admit_s": total("service.admit"),
        "service.admit_p99_us": 1e6
        * percentile(durations("service.admit"), 99),
        "service.accept_ratio": ratio(counts["accepted"], counts["submitted"]),
        "load.latency_p99_ms": 0.0,
        "load.lateness_p99_ms": 0.0,
        "trace.wall_s": wall,
        "trace.spans": sum(len(entry["durations"]) for entry in spans.values())
        + 1,
        "trace.overhead_pct": overhead_pct,
        "trace.unattributed_pct": 100.0
        * ratio(float(summary["unattributed_s"]), wall),
    }
