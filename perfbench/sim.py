"""The simulator workloads: cold runs of ``fig5-quick`` and ``shard-curve``,
each in a fresh process (``perfbench/child.py``).

A timing run starts a few set-up-only children (import and configure, then
exit) and then whole runs of the workload for as long as ``--seconds``
allows, at least one; it reports medians.  Every run's outputs are checked:

* no guaranteed task missed its deadline;
* no run met more deadlines than the schedulability oracle's upper bound;
* the deadline hits of every run equal ``reference.json`` for the seed
  (seeds it does not cover skip only this check), and every run in one
  benchmark run agrees with the first;
* ``fig5-quick`` at the committed seed prints ``results/quick_fig5.txt``.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List

from perfbench import common
from perfbench.layers import percentile

#: Set-up-only children started before the timed runs.
SETUP_PROBES = 3
#: The seed ``results/quick_fig5.txt`` was generated with.
COMMITTED_FIG5_SEED = 1998
REFERENCE = common.BENCH_DIR / "reference.json"


def child_command(workload: str, seed: int, *flags: str) -> List[str]:
    return common.python_command(
        str(common.BENCH_DIR / "child.py"),
        "--workload", workload, "--seed", str(seed), *flags,
    )


def hits_table(output: dict) -> Dict[str, List[int]]:
    return {key: cell["hits"] for key, cell in sorted(output["cells"].items())}


def check_output(
    workload: str, seed: int, output: dict, checks: common.Checks
) -> None:
    """The correctness checks of one child's outputs."""
    cells = output["cells"]
    runs = [
        (key, hits, bound)
        for key, cell in cells.items()
        for hits, bound in zip(cell["hits"], cell["bound"])
    ]
    violating = [key for key, cell in cells.items() if cell["violations"]]
    checks.count(len(cells), len(violating), f"guarantee violations in {violating}")
    over = [key for key, hits, bound in runs if hits > bound]
    checks.count(len(runs), len(over), f"hits above the oracle bound {over}")
    reference = json.loads(REFERENCE.read_text()).get(workload, {})
    expected = reference.get(str(seed))
    if expected is None:
        common.log(f"{workload}: seed {seed} not in reference.json; skipped")
    else:
        checks.check(
            hits_table(output) == expected,
            f"{workload} seed {seed}: hits differ from reference.json",
        )
    if workload == "fig5-quick" and seed == COMMITTED_FIG5_SEED:
        committed = (common.ROOT / "results" / "quick_fig5.txt").read_text()
        checks.check(
            output["text"] + "\n" == committed,
            "fig5 --quick differs from results/quick_fig5.txt",
        )


def compliance(output: dict) -> float:
    cells = output["cells"].values()
    hits = sum(sum(cell["hits"]) for cell in cells)
    total = sum(sum(cell["total"]) for cell in cells)
    return 100.0 * hits / total


def run_child(
    workload: str, seed: int, checks: common.Checks, *flags: str
) -> tuple:
    """One checked child run; returns (child, output)."""
    child = common.ChildRun(child_command(workload, seed, *flags))
    output = child.finish()
    check_output(workload, seed, output, checks)
    return child, output


def run_timing(
    workload: str, seed: int, seconds: float, checks: common.Checks
) -> Dict[str, dict]:
    deadline = time.monotonic() + seconds
    setups = []
    for _ in range(SETUP_PROBES):
        probe = common.ChildRun(child_command(workload, seed, "--setup-only"))
        probe.finish()
        setups.append(probe.setup_s)
    outputs, latencies = [], []
    while True:
        child, output = run_child(workload, seed, checks)
        finished = time.monotonic()
        setups.append(child.setup_s)
        outputs.append(output)
        latencies.append(1e3 * (child.setup_s + output["wall_s"]))
        if finished + (finished - child.spawned) > deadline:
            break
    common.log(
        f"{workload}: set-up {[round(s, 3) for s in setups]} s, "
        f"runs {[round(o['wall_s'], 3) for o in outputs]} s"
    )
    first = hits_table(outputs[0])
    checks.count(
        len(outputs),
        sum(1 for output in outputs if hits_table(output) != first),
        "runs disagreeing with the first",
    )
    return {
        "setup_s": common.metric(statistics.median(setups), "s"),
        "wall_s": common.metric(
            statistics.median(o["wall_s"] for o in outputs), "s"
        ),
        "peak_rss_mb": common.metric(
            statistics.median(o["rss_kb"] for o in outputs) / 1024.0, "MB"
        ),
        "compliance_pct": common.metric(compliance(outputs[0]), "%"),
        "latency_p50_ms": common.metric(percentile(latencies, 50), "ms"),
    }


def run_traced(workload: str, seed: int, checks: common.Checks) -> Dict[str, float]:
    """Untraced and traced children in A-B-B-A order; per-layer metrics.

    The order cancels a linear drift of host speed out of
    ``trace.overhead_pct``; the layer metrics come from the first traced run.
    """
    plain, traced = [], []
    for flags in ((), ("--traced",), ("--traced",), ()):
        _, output = run_child(workload, seed, checks, *flags)
        (traced if flags else plain).append(output)
    checks.count(
        len(traced),
        sum(1 for output in traced if hits_table(output) != hits_table(plain[0])),
        "traced runs whose results differ from the untraced run's",
    )
    layers = dict(traced[0]["layers"])
    layers["trace.overhead_pct"] = 100.0 * (
        sum(o["wall_s"] for o in traced) / sum(o["wall_s"] for o in plain) - 1.0
    )
    return layers
