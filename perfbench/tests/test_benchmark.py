"""Tests of the benchmark itself: tracing is transparent and its sums add up.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import common
from perfbench.layers import PER_LAYER, layer_metrics, report_counts
from perfbench.tracing import LAYER_PATCHES, Patcher, SpanRecorder, _resolve, summarize

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import figure5
from repro.experiments.runner import run_once

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_config(**overrides) -> ExperimentConfig:
    defaults = dict(num_transactions=40, runs=1, num_processors=4)
    defaults.update(overrides)
    return ExperimentConfig.quick(**defaults)


def raw(module_name: str, path: str):
    owner, attribute = _resolve(module_name, path)
    if isinstance(owner, type):
        return vars(owner)[attribute]
    return getattr(owner, attribute)


def report_bytes(report) -> bytes:
    """The exported report minus its one host-time field."""
    document = report.as_dict()
    document.pop("wall_seconds")
    return json.dumps(document, sort_keys=True).encode()


def test_wrappers_restore_the_original_functions():
    targets = [(module, path) for _, module, path in LAYER_PATCHES]
    targets.append(("repro.experiments.runner", "run_once"))
    before = [raw(module, path) for module, path in targets]
    with Patcher(SpanRecorder()) as patcher:
        patcher.patch("repro.experiments.runner", "run_once", "experiments.run")
        patcher.patch_layers()
        during = [raw(module, path) for module, path in targets]
        assert all(a is not b for a, b in zip(before, during))
    after = [raw(module, path) for module, path in targets]
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize(
    "scheduler, overrides",
    [("rtsads", {}), ("dcols", {}), ("rtsads", {"domains": 2})],
)
def test_wrapping_leaves_reports_byte_identical(scheduler, overrides):
    config = small_config(**overrides)
    plain = report_bytes(run_once(config, scheduler, 7))
    recorder = SpanRecorder()
    with Patcher(recorder) as patcher:
        patcher.patch_layers()
        traced = report_bytes(run_once(config, scheduler, 7))
    assert traced == plain
    assert len(recorder) > 0


def test_self_times_plus_unattributed_sum_to_traced_wall():
    config = small_config()
    recorder = SpanRecorder()
    reports: list = []
    with Patcher(recorder) as patcher:
        patcher.patch(
            "repro.experiments.runner", "run_once", "experiments.run",
            results=reports,
        )
        patcher.patch_layers()
        rendered = recorder.wrap("bench.run", lambda: figure5(config).render())()
    assert rendered == figure5(config).render()
    summary = summarize(recorder, root=0)
    attributed = sum(summary["layers"].values()) + summary["unattributed_s"]
    assert attributed == pytest.approx(summary["wall_s"], rel=0.05)
    for layer in ("experiments", "database", "workload", "analysis",
                  "simulator", "runtime", "core"):
        assert summary["layers"].get(layer, 0.0) > 0.0, layer
    values = layer_metrics(summary, report_counts(reports), 0.0)
    assert values["experiments.runs"] == len(reports) == 18
    assert values["runtime.phases"] == sum(len(r.phases) for r in reports)


def test_self_time_of_nested_spans():
    recorder = SpanRecorder()
    leaf = recorder.wrap("core.leaf", lambda: sum(range(2000)))
    middle = recorder.wrap("runtime.middle", lambda: [leaf() for _ in range(3)])
    recorder.wrap("bench.run", lambda: [middle() for _ in range(2)])()
    assert recorder.parents == [-1, 0, 1, 1, 1, 0, 5, 5, 5]
    own = recorder.self_times()
    assert all(value >= 0 for value in own)
    assert sum(own) == pytest.approx(recorder.durations()[0], rel=1e-9)


def test_every_metric_has_a_valid_name_and_a_unit():
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [entry["name"] for entry in declared]
    assert len(names) == len(set(names))
    for entry in declared:
        assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
        assert entry["better"] in ("higher", "lower")
    assert [(e["name"], e["unit"]) for e in BENCHMARK["per_layer"]] == list(
        PER_LAYER
    )
    assert [e["name"] for e in BENCHMARK["workloads"]] == list(common.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        common.BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-quick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
