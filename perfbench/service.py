"""The ``service-poisson`` workload: ``repro serve`` under an open-loop stream.

The service runs in its own process (``python -m repro.experiments serve``
with its default template universe, 2 workers and ``reject-newest``
admission, plus ``--idle-stop``), so the master and this generator never
share an interpreter lock.  The generator is one thread on one connection:

* **Set-up** is timed from spawning ``repro serve`` until a readiness-probe
  SUBMIT is ACCEPTed, which includes the workers' registration barrier.
  Several service lifetimes are started per run; the median is reported.
* **Open loop**: the Poisson schedule (offered load 1.0, seeded by
  ``--seed``) starts only after the probe's ACCEPT, and every request is
  timed from the moment it was *due*, so a generator or service stall is
  charged to the requests behind it.  The generator's lateness is measured.
* **Checks**: every SUBMIT gets exactly one ACCEPT or REJECT, every ACCEPT
  exactly one RESULT, no REJECT a RESULT; the generator never falls a mean
  inter-arrival gap behind at p99 (it would no longer be an open loop); the
  service exits cleanly with zero guarantee violations.
"""

from __future__ import annotations

import gc
import os
import random
import re
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import common
from perfbench.layers import percentile

HOST = "127.0.0.1"
#: Wall seconds per virtual cost unit on both sides.  At the CLI default
#: (1 ms) load 1.0 is ~21 submissions/s; at 0.4 ms the timed stream fits a
#: run while leaving ten samples beyond p99.
SECONDS_PER_UNIT = 0.0004
#: Submissions of a timing run's stream and of each traced-run lifetime.
SUBMISSIONS = 1600
TRACED_SUBMISSIONS = 800
OFFERED_LOAD = 1.0
#: Service lifetimes per timing run whose set-up is timed; the last one
#: carries the stream.
LIFETIMES = 3
SETTLE_GRACE_S = 5.0


def serve_args(port: int) -> List[str]:
    return [
        "--workers", "2",
        "--port", str(port),
        "--policy", "reject-newest",
        "--time-scale", repr(SECONDS_PER_UNIT),
        "--idle-stop",
    ]


@dataclass
class Stream:
    """The generated inputs: which template to submit when."""

    probe_template: int
    schedule: List[Tuple[float, int]]  # (virtual arrival, template id)
    max_laxity: float
    mean_gap_s: float


def make_stream(seed: int, submissions: int) -> Stream:
    """A Poisson stream over the template universe ``repro serve`` rebuilds."""
    from repro.cluster.config import build_cluster_workload
    from repro.experiments.service_cli import (
        build_serve_parser,
        experiment_from_args,
    )
    from repro.service.load import arrival_rate
    from repro.workload.arrivals import make_arrival

    experiment = experiment_from_args(build_serve_parser().parse_args(serve_args(0)))
    _, tasks, _ = build_cluster_workload(experiment, experiment.base_seed)
    templates = sorted(t.task_id for t in tasks)
    rng = random.Random(seed)
    order = [templates[i % len(templates)] for i in range(submissions)]
    rng.shuffle(order)
    rate = arrival_rate(experiment, OFFERED_LOAD)
    times = make_arrival("poisson", rate).arrival_times(submissions, rng)
    return Stream(
        probe_template=templates[0],
        schedule=list(zip(times, order)),
        max_laxity=max(t.deadline - t.arrival_time for t in tasks),
        mean_gap_s=SECONDS_PER_UNIT / rate,
    )


@dataclass
class Ledger:
    """Every frame the generator received, per request id."""

    due: Dict[int, float] = field(default_factory=dict)
    decided: Dict[int, float] = field(default_factory=dict)
    accepted: Dict[int, bool] = field(default_factory=dict)
    results: Dict[int, int] = field(default_factory=dict)
    hits: set = field(default_factory=set)
    duplicates: int = 0
    strays: int = 0
    last_frame: float = 0.0

    def absorb(self, messages, now: float) -> None:
        from repro.cluster import protocol

        for message in messages:
            request = int(message.get("request_id", -1))
            if request not in self.due:
                self.strays += 1
                continue
            kind = message.get("type")
            if kind in (protocol.ACCEPT, protocol.REJECT):
                if request in self.decided:
                    self.duplicates += 1
                    continue
                self.decided[request] = now
                self.accepted[request] = kind == protocol.ACCEPT
            elif kind == protocol.RESULT:
                self.results[request] = self.results.get(request, 0) + 1
                if message.get("status") == "completed" and message.get(
                    "met_deadline"
                ):
                    self.hits.add(request)
            self.last_frame = now

    def settled(self, request: int) -> bool:
        if request not in self.decided:
            return False
        return not self.accepted[request] or request in self.results

    def check(self, checks: common.Checks) -> None:
        requests = list(self.due)
        undecided = sum(1 for r in requests if r not in self.decided)
        checks.count(len(requests), undecided, "SUBMITs without ACCEPT/REJECT")
        checks.count(len(requests), self.duplicates, "duplicate ACCEPT/REJECT")
        accepted = [r for r in requests if self.accepted.get(r)]
        wrong = sum(1 for r in accepted if self.results.get(r, 0) != 1)
        checks.count(len(accepted), wrong, "ACCEPTs without exactly one RESULT")
        rejected = [r for r in requests if self.accepted.get(r) is False]
        extra = sum(1 for r in rejected if r in self.results)
        checks.count(len(rejected), extra, "REJECTs that got a RESULT")
        checks.check(self.strays == 0, f"{self.strays} frames for unknown requests")


class Lifetime:
    """One ``repro serve`` process, from spawn to exit."""

    def __init__(self, command: List[str], port: int) -> None:
        self.port = port
        self.spawned = time.monotonic()
        self.process = common.spawn(command)
        self.client = None
        self.ledger = Ledger()
        self.ready = 0.0

    def probe(self, template: int) -> float:
        """Submit once the service listens; returns the time to its answer."""
        from repro.service.client import ServiceClient

        self.client = ServiceClient.connect(HOST, self.port, timeout=60.0)
        self.ledger.due[0] = time.monotonic()
        self.client.submit(template)
        deadline = self.spawned + 60.0
        while 0 not in self.ledger.decided:
            if time.monotonic() > deadline:
                raise RuntimeError("service never answered the probe")
            self.ledger.absorb(self.client.poll(0.05), time.monotonic())
        self.ready = self.ledger.decided[0]
        return self.ready - self.spawned

    def send(self, template: int, due: float) -> float:
        """Wait for ``due`` while absorbing replies, submit; returns lateness.

        Socket timeouts round up to whole milliseconds, so the wait polls
        until just before ``due`` and then spins on non-blocking reads.
        """
        client, ledger = self.client, self.ledger
        while True:
            left = due - time.monotonic()
            if left <= 0:
                break
            messages = client.poll(left - 0.0015 if left > 0.002 else 0.0)
            if messages:
                ledger.absorb(messages, time.monotonic())
        sent = time.monotonic()
        ledger.due[len(ledger.due)] = due
        client.submit(template)
        return sent - due

    def drain(self, timeout_s: float) -> bool:
        deadline = time.monotonic() + timeout_s
        pending = [r for r in self.ledger.due if not self.ledger.settled(r)]
        while pending:
            if time.monotonic() > deadline:
                return False
            self.ledger.absorb(self.client.poll(0.05), time.monotonic())
            pending = [r for r in pending if not self.ledger.settled(r)]
        return True

    def close(self, checks: common.Checks) -> str:
        """Disconnect, let the service go idle and exit; returns its stdout."""
        self.client.close()
        try:
            output, _ = self.process.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            output, _ = self.process.communicate()
        checks.check(
            self.process.returncode == 0,
            f"repro serve exited with {self.process.returncode}",
        )
        match = re.search(r"guaranteed-but-missed (\d+)", output or "")
        checks.check(
            match is not None and int(match.group(1)) == 0,
            "service reported guarantee violations",
        )
        self.ledger.check(checks)
        return output

    def kill(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


def tree_pids(pid: int) -> List[int]:
    """``pid`` and all its live descendants."""
    pids, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        pids.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    frontier.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return pids


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of every live process's peak resident set (``VmHWM``)."""
    total_kb = 0
    for member in tree_pids(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one process so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class StreamOutcome:
    wall_s: float
    latencies: List[float]
    lateness: List[float]
    submitted: int
    rejected: int
    hits: int
    peak_rss_mb: float
    master_cpu_s: float
    child_result: Optional[dict]


def serve_command(seed: int, port: int, traced: bool) -> List[str]:
    args = serve_args(port)
    if traced:
        return common.python_command(
            str(common.BENCH_DIR / "child.py"),
            "--workload", common.SERVICE_WORKLOAD, "--seed", str(seed),
            "--traced", "--", *args,
        )
    return common.python_command("-m", "repro.experiments", "serve", *args)


def probe_lifetime(seed: int, stream: Stream, checks: common.Checks) -> float:
    """A lifetime that only answers the probe; returns its set-up time."""
    port = common.free_port()
    life = Lifetime(serve_command(seed, port, traced=False), port)
    try:
        setup = life.probe(stream.probe_template)
        checks.check(life.drain(30.0), "probe submission never settled")
        life.close(checks)
    except BaseException:
        life.kill()
        raise
    return setup


def stream_lifetime(
    seed: int, stream: Stream, checks: common.Checks, traced: bool = False
) -> Tuple[float, StreamOutcome]:
    """A lifetime carrying the whole stream; returns set-up time and outcome."""
    port = common.free_port()
    life = Lifetime(serve_command(seed, port, traced), port)
    try:
        setup = life.probe(stream.probe_template)
        # A collector pause in the generator would show up as lateness.
        gc.disable()
        try:
            lateness = [
                life.send(template, life.ready + arrival * SECONDS_PER_UNIT)
                for arrival, template in stream.schedule
            ]
        finally:
            gc.enable()
        settle = stream.max_laxity * SECONDS_PER_UNIT + SETTLE_GRACE_S
        checks.check(life.drain(settle), "stream never settled")
        rss = tree_peak_rss_mb(life.process.pid)
        master_cpu = cpu_seconds(life.process.pid)
        output = life.close(checks)
    except BaseException:
        life.kill()
        raise
    ledger = life.ledger
    requests = [r for r in ledger.due if r != 0]
    late_p99 = percentile(lateness, 99)
    checks.check(
        late_p99 <= stream.mean_gap_s,
        f"generator p99 lateness {1e3 * late_p99:.3f} ms exceeds the mean "
        f"inter-arrival gap {1e3 * stream.mean_gap_s:.3f} ms",
    )
    return setup, StreamOutcome(
        wall_s=ledger.last_frame - life.ready,
        latencies=[
            ledger.decided[r] - ledger.due[r] for r in requests if r in ledger.decided
        ],
        lateness=lateness,
        submitted=len(requests),
        rejected=sum(1 for r in requests if ledger.accepted.get(r) is False),
        hits=sum(1 for r in requests if r in ledger.hits),
        peak_rss_mb=rss,
        master_cpu_s=master_cpu,
        child_result=common.parse_result(output) if traced else None,
    )


def run_timing(seed: int, checks: common.Checks) -> Dict[str, dict]:
    """Set-up medians over several lifetimes, then the stream on the last."""
    stream = make_stream(seed, SUBMISSIONS)
    setups = [probe_lifetime(seed, stream, checks) for _ in range(LIFETIMES - 1)]
    setup, outcome = stream_lifetime(seed, stream, checks)
    setups.append(setup)
    latencies_ms = [1e3 * value for value in outcome.latencies]
    common.log(
        f"service-poisson: set-up {[round(s, 3) for s in setups]} s, "
        f"{outcome.submitted} submissions, {outcome.rejected} rejected, "
        f"latency p99 {percentile(latencies_ms, 99):.3f} ms, generator "
        f"lateness p99 {1e3 * percentile(outcome.lateness, 99):.3f} ms, "
        f"master cpu {outcome.master_cpu_s:.2f} s"
    )
    return {
        "setup_s": common.metric(statistics.median(setups), "s"),
        "wall_s": common.metric(outcome.wall_s, "s"),
        "peak_rss_mb": common.metric(outcome.peak_rss_mb, "MB"),
        "compliance_pct": common.metric(
            100.0 * outcome.hits / outcome.submitted, "%"
        ),
        "latency_p50_ms": common.metric(percentile(latencies_ms, 50), "ms"),
    }


def run_traced(seed: int, checks: common.Checks) -> Dict[str, float]:
    """Untraced and traced lifetimes in A-B-B-A order; per-layer metrics.

    Tracing overhead is the traced master's extra CPU time for the same
    stream (the service's wall time is set by the arrival schedule); the
    order cancels a linear drift of host speed.  The layer metrics come
    from the first traced lifetime; the latency tail and the generator's
    lateness from the untraced ones.
    """
    stream = make_stream(seed, TRACED_SUBMISSIONS)
    plain, traced = [], []
    for is_traced in (False, True, True, False):
        _, outcome = stream_lifetime(seed, stream, checks, traced=is_traced)
        (traced if is_traced else plain).append(outcome)
    first = traced[0].child_result
    checks.check(
        first is not None and first.get("status") == 0, "traced service failed"
    )
    layers = dict(first["layers"])
    layers["trace.overhead_pct"] = 100.0 * (
        sum(o.master_cpu_s for o in traced) / sum(o.master_cpu_s for o in plain)
        - 1.0
    )
    layers["load.latency_p99_ms"] = 1e3 * percentile(
        [v for o in plain for v in o.latencies], 99
    )
    layers["load.lateness_p99_ms"] = 1e3 * percentile(
        [v for o in plain for v in o.lateness], 99
    )
    return layers
