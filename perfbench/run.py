"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5-quick --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes one untraced and one traced run of the same inputs and reports the
per-layer metrics (see perfbench/README.md).  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; diagnostics go to stderr.
The exit code is 0 whenever that line was printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        common.log(f"no program to measure: {common.SRC / 'repro'} is missing")
        return 2
    sys.path.insert(0, str(common.SRC))
    from perfbench import service, sim

    checks = common.Checks()
    if args.trace:
        if args.workload == common.SERVICE_WORKLOAD:
            values = service.run_traced(args.seed, checks)
        else:
            values = sim.run_traced(args.workload, args.seed, checks)
        metrics = {
            name: common.metric(values[name], unit) for name, unit in PER_LAYER
        }
    elif args.workload == common.SERVICE_WORKLOAD:
        metrics = service.run_timing(args.seed, checks)
    else:
        metrics = sim.run_timing(args.workload, args.seed, args.seconds, checks)
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
