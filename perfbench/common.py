"""Shared plumbing of the benchmark: paths, child processes, statistics.

Child processes (``perfbench/child.py`` and the ``repro`` CLI itself) talk
to the parent over stdout lines: ``READY <monotonic seconds>`` once set-up
is done and ``RESULT <json>`` at the end.  ``time.monotonic`` is the
system-wide ``CLOCK_MONOTONIC`` on Linux, so stamps compare across
processes.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Spans and other run artefacts (listed in the root .gitignore).
OUT_DIR = ROOT / ".bench_out"

SIM_WORKLOADS = ("fig5-quick", "shard-curve")
SERVICE_WORKLOAD = "service-poisson"
WORKLOADS = SIM_WORKLOADS + (SERVICE_WORKLOAD,)

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150.0


def child_env() -> Dict[str, str]:
    """The environment of every child: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def python_command(*args: str) -> List[str]:
    return [sys.executable, *args]


def spawn(command: Sequence[str]) -> subprocess.Popen:
    """Start a child with stdout piped to us and stderr passed through."""
    return subprocess.Popen(
        list(command),
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=None,
        text=True,
    )


def stop(process: subprocess.Popen, grace_s: float = 5.0) -> None:
    """Wait for ``process``; terminate and then kill it if it lingers."""
    try:
        process.wait(timeout=grace_s)
        return
    except subprocess.TimeoutExpired:
        pass
    process.terminate()
    try:
        process.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


class ChildRun:
    """One child speaking the READY/RESULT line protocol."""

    def __init__(self, command: Sequence[str]) -> None:
        self.spawned = time.monotonic()
        self.process = spawn(command)
        self.ready: Optional[float] = None
        self.result: Optional[dict] = None

    def finish(self, timeout_s: float = CHILD_TIMEOUT_S) -> dict:
        """Read the child's lines to the end; returns its RESULT object."""
        remaining = max(1.0, self.spawned + timeout_s - time.monotonic())
        watchdog = threading.Timer(remaining, self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:
                if line.startswith("READY "):
                    self.ready = float(line.split()[1])
                elif line.startswith("RESULT "):
                    self.result = parse_result(line)
        finally:
            watchdog.cancel()
            self.process.stdout.close()
            stop(self.process)
        if self.process.returncode != 0 or self.result is None:
            raise RuntimeError(
                f"child {self.process.args!r} exited with "
                f"{self.process.returncode} and no result"
            )
        return self.result

    @property
    def setup_s(self) -> float:
        if self.ready is None:
            raise RuntimeError("child never reported READY")
        return self.ready - self.spawned


def parse_result(text: str) -> Optional[dict]:
    """The object on the last ``RESULT`` line of ``text``, if any."""
    found = None
    for line in text.splitlines():
        if line.startswith("RESULT "):
            found = json.loads(line[len("RESULT "):])
    return found


def free_port() -> int:
    """An ephemeral localhost port that was free a moment ago."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Checks:
    """Correctness checks of one run; failures are reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Fold ``attempted`` items of which ``failed`` went wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            log(f"check failed: {what}: {failed}/{attempted}")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
