"""Regenerate ``perfbench/reference.json``: deadline hits per run and seed.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py --seeds 0-31 1998

Runs every simulator workload once per seed (a cold child each, exactly as
a timing run does) and records each cell's per-run deadline hits.  The
benchmark then requires every later run of a covered seed to reproduce them
exactly, so regenerate only when a change is *meant* to alter schedules.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, sim  # noqa: E402


def parse_seeds(specs) -> list:
    seeds = []
    for spec in specs:
        low, _, high = spec.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return sorted(set(seeds))


def dump(table: dict) -> str:
    """One line per (workload, seed), so regenerated tables diff cleanly."""
    blocks = []
    for workload in sorted(table):
        rows = ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(table[workload][seed], sort_keys=True)}"
            for seed in sorted(table[workload], key=int)
        )
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=list(common.SIM_WORKLOADS))
    args = parser.parse_args(argv)
    table = json.loads(sim.REFERENCE.read_text()) if sim.REFERENCE.exists() else {}
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            child = common.ChildRun(sim.child_command(workload, seed))
            table.setdefault(workload, {})[str(seed)] = sim.hits_table(child.finish())
            common.log(f"reference: {workload} seed {seed}")
            sim.REFERENCE.write_text(dump(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
