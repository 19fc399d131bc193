"""One cold run of one workload in a fresh process.

Usage (the benchmark starts this; ``PYTHONPATH`` must hold ``src``)::

    python3 perfbench/child.py --workload fig5-quick --seed 1998
    python3 perfbench/child.py --workload fig5-quick --seed 1998 --setup-only
    python3 perfbench/child.py --workload shard-curve --seed 7 --traced
    python3 perfbench/child.py --workload service-poisson --traced -- <serve args>

A simulator workload imports what the ``repro`` CLI imports, builds its
configuration from the CLI's own argument parser, prints ``READY <t>``, runs
the experiment and prints ``RESULT <json>`` with its outputs.  With
``--traced`` every layer entry point is wrapped (see
:mod:`perfbench.tracing`), the spans are written under ``.bench_out/`` and
the result carries the per-layer metrics.  ``service-poisson`` is only run
here traced: ``repro serve`` hosted in this process, master in-process
through ``run_service``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.layers import layer_metrics, report_counts  # noqa: E402
from perfbench.tracing import Patcher, SpanRecorder, summarize  # noqa: E402

def cell_summary(cell) -> dict:
    """What the checks need from one :class:`CellResult`."""
    return {
        "hits": [int(r["deadline_hits"]) for r in cell.regrets],
        "total": [int(r["total_tasks"]) for r in cell.regrets],
        "bound": [int(r["hits_upper_bound"]) for r in cell.regrets],
        "violations": int(cell.scheduled_but_missed),
    }


def sweep_cells(result) -> dict:
    return {
        f"{series}/m={x:g}": cell_summary(cell)
        for (series, x), cell in result.cells.items()
    }


def cli_config(argv):
    """The config the ``repro`` CLI builds for ``argv``."""
    from repro.experiments.cli import (
        SHARD_CURVE_COMMAND,
        build_parser,
        config_from_args,
        shard_config_from_args,
    )

    args = build_parser().parse_args(argv)
    if args.experiment == SHARD_CURVE_COMMAND:
        return shard_config_from_args(args)
    return config_from_args(args)


def prepare(workload: str, seed: int):
    """Set-up of one simulator workload; returns the callable that runs it."""
    import repro.experiments.cli  # noqa: F401  (what the CLI imports)

    if workload == "fig5-quick":
        from repro.experiments.figures import figure5

        config = cli_config(["fig5", "--quick", "--seed", str(seed)])

        def run() -> dict:
            result = figure5(config)
            return {"text": result.render(), "cells": sweep_cells(result)}

    elif workload == "shard-curve":
        from repro.experiments.figures import shard_curve

        config = cli_config(["shard-curve", "--seed", str(seed)])

        def run() -> dict:
            result = shard_curve(config)
            return {"text": result.render(), "cells": sweep_cells(result)}

    else:
        raise SystemExit(f"child: unknown simulator workload {workload!r}")
    return run


def traced_call(run, root_module=None, root_path=None):
    """Call ``run`` with every layer wrapped; returns (output, spans, reports).

    The root span is ``run`` itself, or — for the service — the function at
    ``root_module.root_path`` that ``run`` ends up calling.
    """
    recorder = SpanRecorder()
    reports: list = []
    with Patcher(recorder) as patcher:
        if root_module is None:
            patcher.patch(
                "repro.experiments.runner", "run_once", "experiments.run",
                results=reports,
            )
            patcher.patch_layers()
            output = recorder.wrap("bench.run", run)()
        else:
            patcher.patch(root_module, root_path, "bench.run", results=reports)
            patcher.patch_layers()
            output = run()
    return output, recorder, reports


def write_spans(recorder: SpanRecorder, workload: str, seed: int) -> None:
    common.OUT_DIR.mkdir(exist_ok=True)
    recorder.write_jsonl(str(common.OUT_DIR / f"spans-{workload}-{seed}.jsonl"))


def traced_result(recorder, reports, workload, seed) -> dict:
    """Writes the spans out; returns the per-layer metrics."""
    write_spans(recorder, workload, seed)
    summary = summarize(recorder, root=recorder.names.index("bench.run"))
    return {"layers": layer_metrics(summary, report_counts(reports), 0.0)}


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def emit(result: dict) -> None:
    print("RESULT " + json.dumps(result, sort_keys=True), flush=True)


def run_service_traced(seed: int, serve_args) -> None:
    """``repro serve`` in this process with every layer wrapped."""
    from repro.experiments.cli import main

    def serve() -> int:
        return main(["serve", *serve_args])

    status, recorder, reports = traced_call(
        serve, "repro.service.server", "run_service"
    )
    result = traced_result(recorder, reports, common.SERVICE_WORKLOAD, seed)
    result["status"] = status
    emit(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("serve_args", nargs="*")
    args = parser.parse_args(argv)
    if args.workload == common.SERVICE_WORKLOAD:
        run_service_traced(args.seed, args.serve_args)
        return 0
    run = prepare(args.workload, args.seed)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        emit({})
        return 0
    started = time.monotonic()
    if args.traced:
        output, recorder, reports = traced_call(run)
        done = time.monotonic()
        output.update(traced_result(recorder, reports, args.workload, args.seed))
    else:
        output = run()
        done = time.monotonic()
    output.update(wall_s=done - started, rss_kb=peak_rss_kb())
    emit(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
