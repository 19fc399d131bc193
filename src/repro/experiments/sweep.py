"""Parallel sweep engine: fan experiment cells over processes, cache results.

A figure reproduction is a grid of independent *cells* — one
``(config, scheduler, seed)`` triple per repetition per sweep point — and
nothing about the paper's evaluation couples them: every cell rebuilds its
own database, workload, and scheduler from the seed.  This module exploits
that:

* **fan-out** — cells execute on a ``multiprocessing`` *spawn* pool of
  ``jobs`` workers (spawn, not fork: workers must rebuild state from the
  pickled config alone, the same discipline the live cluster already
  enforces);
* **content-addressed cache** — each finished cell persists one small JSON
  record under ``<cache_dir>/<config digest>/``, keyed by the config's
  :meth:`~repro.experiments.config.ExperimentConfig.cache_fields` hash plus
  ``(scheduler, seed)``, so re-runs and ``--resume`` after an interruption
  execute only the missing cells;
* **deterministic merge** — results aggregate in ``config.seeds()`` order
  regardless of completion order, worker count, or cache hits, so figure
  JSON is byte-identical across every ``(jobs, cache, resume)``
  combination (CI's ``sweep-smoke`` job asserts the bytes);
* **observability** — one progress line per finished cell, per-cell wall
  timing into the metrics registry (``sweep_cell_seconds``), and hit/miss
  counters (``sweep_cells{source=...}``).

Cells whose backend is in :data:`SERIAL_BACKENDS` (the live TCP cluster)
never enter the pool: each such cell spawns its own worker processes and
binds a listening socket, so the engine serializes them in the parent,
leasing master ports from a bounded :class:`PortPool` to avoid bind
collisions between consecutive cells.

Units: everything a :class:`CellRecord` stores under a ``*_time`` /
``makespan`` name is virtual quanta (one tuple-check = 1.0 unit);
``wall_seconds`` and ``elapsed_seconds`` are real host seconds.
Process-safety: cache writes are atomic (temp file + ``os.replace``), so
concurrent sweeps sharing a cache directory at worst recompute a cell —
they can never read a torn record.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..observability import NULL_SINK, get_instrumentation, read_jsonl
from .config import ExperimentConfig

#: Bump when the CellRecord schema changes: a new version can never read
#: (or be poisoned by) records written by an older one.
#: v2: records carry the cell's counter deltas, so cached cells keep
#: their metrics contribution on --resume.
#: v3: records carry the run's schedulability-oracle regret section, and
#: the config grew a ``scheduler`` cache field.
#: v4: records carry the run's migration section, and the config grew
#: ``domains`` / ``partition_policy`` cache fields.
#: v5: the config dropped its search-implementation selector, so that
#: key left the cache fields and every digest changed.
CACHE_SCHEMA_VERSION = 5

#: The cache directory the CLI defaults to (relative to the working dir).
DEFAULT_CACHE_DIR = "results/cache"

#: Backends whose cells must not run concurrently: each live-cluster cell
#: spawns its own OS processes and binds a TCP listener, so the engine
#: runs them one at a time in the parent on a bounded port pool.
SERIAL_BACKENDS = frozenset({"cluster", "service"})


# ----- the unit of work ------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One schedulable unit: run ``scheduler_name`` on ``config`` at ``seed``.

    Frozen and picklable (the config is a frozen dataclass of plain
    types), so a cell crosses the spawn boundary to a pool worker intact.
    """

    config: ExperimentConfig
    scheduler_name: str
    seed: int


@dataclass(frozen=True)
class CellRecord:
    """The per-repetition scalars every aggregation consumes, cache-stably.

    Exactly the values :class:`~repro.experiments.runner.CellResult` reads
    off a :class:`~repro.runtime.report.RunReport`, captured once so a
    cached cell aggregates bit-identically to a fresh one (JSON floats
    round-trip exactly via ``repr``).  ``total_scheduling_time`` and
    ``makespan`` are virtual quanta; ``wall_seconds`` is the backend's
    reported real time and ``elapsed_seconds`` the engine-measured wall
    time of producing this record (0.0 when it came from the cache).
    Immutable, hence safe to share across threads.
    """

    scheduler_name: str
    seed: int
    backend: str
    hit_percent: float
    dead_end_rate: float
    mean_depth: float
    mean_processors_touched: float
    total_scheduling_time: float
    makespan: float
    guaranteed_violations: int
    num_phases: int
    wall_seconds: float
    elapsed_seconds: float = 0.0
    #: Counter deltas this cell's run produced (``format_key`` -> value).
    #: Persisted with the record so a cached cell still contributes its
    #: metrics to ``--metrics-out`` on resume; empty when the run was
    #: uninstrumented.
    counters: Dict[str, float] = field(default_factory=dict)
    #: The run's schedulability-oracle verdict + regret (see
    #: :func:`repro.analysis.schedulability.regret_section`); empty when
    #: the oracle was not consulted.
    regret: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_report(cls, report, elapsed_seconds: float = 0.0) -> "CellRecord":
        """Capture one run's aggregation inputs from its ``RunReport``."""
        return cls(
            scheduler_name=report.scheduler_name,
            seed=report.seed,
            backend=report.backend,
            hit_percent=report.hit_percent,
            dead_end_rate=report.dead_end_rate,
            mean_depth=report.mean_depth,
            mean_processors_touched=report.mean_processors_touched,
            total_scheduling_time=report.total_scheduling_time,
            makespan=report.makespan,
            guaranteed_violations=report.guaranteed_violations,
            num_phases=report.num_phases,
            wall_seconds=report.wall_seconds,
            elapsed_seconds=elapsed_seconds,
            regret=dict(report.regret),
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view, the JSON cache-file payload."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CellRecord":
        """Rebuild a record from :meth:`as_dict` output (cache read path)."""
        return cls(**payload)


# ----- content-addressed cache ----------------------------------------------


def config_digest(config: ExperimentConfig) -> str:
    """Stable hex digest of everything that determines a cell's outcome.

    Hashes the canonical JSON of :meth:`ExperimentConfig.cache_fields`
    plus :data:`CACHE_SCHEMA_VERSION`; execution knobs (``jobs``,
    ``cache_dir``, ``resume``) are excluded by construction, so the same
    workload computed serially and in parallel shares one digest.
    """
    canonical = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, **config.cache_fields()},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SweepCache:
    """One directory of finished-cell records, keyed by config digest.

    Layout: ``<root>/<digest[:16]>/<scheduler>-seed<seed>.json`` plus a
    ``config.json`` manifest per digest directory for human inspection.
    Writes are atomic (temp file + ``os.replace``), so the cache is safe
    under concurrent sweeps from multiple processes; loads of missing or
    torn entries return ``None`` (the cell simply re-executes).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def cell_path(self, cell: SweepCell) -> Path:
        """Where ``cell``'s record lives (whether or not it exists yet)."""
        digest = config_digest(cell.config)
        return (
            self.root
            / digest[:16]
            / f"{cell.scheduler_name}-seed{cell.seed}.json"
        )

    def load(self, cell: SweepCell) -> Optional[CellRecord]:
        """The cached record for ``cell``, or ``None`` on any miss.

        Unreadable or schema-mismatched files count as misses, never as
        errors: a half-written entry from an interrupted sweep must not
        wedge the resume that is trying to recover from it.
        """
        path = self.cell_path(cell)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            record = CellRecord.from_dict(payload["record"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        return record

    def store(self, cell: SweepCell, record: CellRecord) -> Path:
        """Atomically persist ``cell``'s record; returns the final path."""
        path = self.cell_path(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        manifest = path.parent / "config.json"
        if not manifest.exists():
            self._write_atomic(
                manifest,
                json.dumps(cell.config.cache_fields(), indent=2,
                           sort_keys=True),
            )
        document = {
            "schema": CACHE_SCHEMA_VERSION,
            "config_digest": config_digest(cell.config),
            "record": record.as_dict(),
        }
        self._write_atomic(path, json.dumps(document, indent=2,
                                            sort_keys=True))
        return path

    def _write_atomic(self, path: Path, text: str) -> None:
        """Write-then-rename so readers never observe a partial file."""
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        temp.write_text(text + "\n", encoding="utf-8")
        os.replace(temp, path)


# ----- bounded port pool for live-cluster cells ------------------------------


class PortPool:
    """A bounded pool of TCP ports for live-cluster cells.

    Port 0 means "let the OS pick an ephemeral port" — the default, and
    collision-free by construction; an explicit range pins masters to
    known ports (firewalled environments).  The pool's *size* is the real
    control: at most ``len(ports)`` cluster cells may hold a lease at
    once, and the engine additionally serializes cluster cells, so a
    sweep never races two masters onto one port.  Thread-safe (condition
    variable); leases are parent-process-only and never cross the spawn
    boundary.
    """

    def __init__(self, ports: Sequence[int] = (0,)) -> None:
        if not ports:
            raise ValueError("a port pool needs at least one slot")
        self._free: List[int] = list(ports)
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)

    @contextmanager
    def lease(self) -> Iterator[int]:
        """Borrow one port for the duration of a ``with`` block (blocking)."""
        with self._available:
            while not self._free:
                self._available.wait()
            port = self._free.pop(0)
        try:
            yield port
        finally:
            with self._available:
                self._free.append(port)
                self._available.notify()


# ----- pool worker -----------------------------------------------------------


def _execute_cell(
    payload: Tuple[int, SweepCell, Optional[str]]
) -> Tuple[int, Dict[str, object]]:
    """Pool worker: run one cell and return ``(index, record dict)``.

    ``payload`` is ``(index, cell, trace_path)``.  With ``trace_path``
    ``None`` the cell runs under whatever instrumentation is already the
    process default — disabled in a spawned child, the parent's own in
    the serial in-process path.  With a path (the parent is tracing and
    this is a spawned child that cannot reach the parent's sink), the
    child instruments itself into a private JSONL file at that path and
    records its counter deltas on the returned record; the parent adopts
    both when the cell finishes, so ``--trace-out --jobs N`` loses
    nothing relative to ``--jobs 1``.  Module-level by necessity — spawn
    pickles the function by reference.
    """
    index, cell, trace_path = payload
    from .runner import run_once

    if trace_path is None:
        start = time.perf_counter()
        report = run_once(cell.config, cell.scheduler_name, cell.seed)
        elapsed = time.perf_counter() - start
        record = CellRecord.from_report(report, elapsed_seconds=elapsed)
        return index, record.as_dict()

    from ..observability import (
        OFF,
        Instrumentation,
        JsonlSink,
        MetricsRegistry,
        StructuredLogger,
        instrumented,
    )

    obs = Instrumentation(
        metrics=MetricsRegistry(),
        logger=StructuredLogger(name="repro.sweep", level=OFF),
        sink=JsonlSink(trace_path),
    )
    try:
        start = time.perf_counter()
        with instrumented(obs):
            report = run_once(cell.config, cell.scheduler_name, cell.seed)
        elapsed = time.perf_counter() - start
    finally:
        obs.close()
    record = CellRecord.from_report(report, elapsed_seconds=elapsed)
    # A fresh registry means absolute values ARE this cell's deltas;
    # zero-valued (created but never incremented) counters are dropped to
    # match the delta semantics of the in-parent path.
    counters = {
        key: value
        for key, value in obs.metrics.snapshot()["counters"].items()
        if value != 0
    }
    return index, replace(record, counters=counters).as_dict()


# ----- the engine ------------------------------------------------------------


@dataclass
class SweepStats:
    """What one :func:`run_grid` invocation actually did (wall seconds)."""

    total_cells: int = 0
    executed: int = 0
    cached: int = 0
    jobs: int = 1
    elapsed_seconds: float = 0.0


@dataclass
class SweepOutcome:
    """Aggregated results in spec order plus the execution accounting."""

    #: One CellResult per ``(config, scheduler)`` spec, in call order.
    cells: List[object] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)


def run_grid(
    specs: Sequence[Tuple[ExperimentConfig, str]],
    *,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: Optional[bool] = None,
    port_pool: Optional[PortPool] = None,
) -> SweepOutcome:
    """Run every repetition of every ``(config, scheduler)`` spec.

    The execution knobs default to the first config's ``jobs`` /
    ``cache_dir`` / ``resume`` fields (keyword arguments override).  Cells
    found in the cache are not re-executed; everything else fans across a
    spawn pool of ``jobs`` workers, except cells on a
    :data:`SERIAL_BACKENDS` backend, which run one at a time in the
    parent on ``port_pool`` (defaulting to ephemeral ports).

    Aggregation order is fixed by ``specs`` and ``config.seeds()`` — never
    by completion order — so the returned :class:`SweepOutcome` is
    bit-identical for any worker count or cache state.  Safe to call from
    any thread, but do not share one cache directory between two
    *schemas*; the version stamp protects reads either way.
    """
    from .runner import CellResult

    if not specs:
        return SweepOutcome()
    first = specs[0][0]
    jobs = first.jobs if jobs is None else jobs
    cache_dir = first.cache_dir if cache_dir is None else cache_dir
    resume = first.resume if resume is None else resume
    if jobs <= 0:
        raise ValueError("jobs must be positive (1 = serial)")
    cache = SweepCache(cache_dir) if cache_dir else None

    # One flat, deterministically indexed task list across all specs.
    tasks: List[SweepCell] = []
    spec_slices: List[Tuple[int, int]] = []
    for config, scheduler_name in specs:
        start = len(tasks)
        for seed in config.seeds():
            tasks.append(SweepCell(config, scheduler_name, seed))
        spec_slices.append((start, len(tasks)))

    obs = get_instrumentation()
    records: Dict[int, CellRecord] = {}
    pending: List[Tuple[int, SweepCell]] = []
    for index, cell in enumerate(tasks):
        cached = cache.load(cell) if cache is not None else None
        if cached is not None:
            records[index] = cached
            _note_cell(obs, cell, cached, index, len(tasks), source="cache")
        else:
            pending.append((index, cell))

    stats = SweepStats(
        total_cells=len(tasks),
        cached=len(records),
        jobs=jobs,
    )
    if obs.enabled:
        obs.logger.info(
            "sweep start" if not resume else "sweep resume",
            cells=len(tasks),
            cached=stats.cached,
            to_run=len(pending),
            jobs=jobs,
        )

    started = time.perf_counter()
    parallel: List[Tuple[int, SweepCell]] = []
    serial: List[Tuple[int, SweepCell]] = []
    for item in pending:
        if item[1].config.backend in SERIAL_BACKENDS:
            serial.append(item)
        else:
            parallel.append(item)

    def finish(index: int, cell: SweepCell, record: CellRecord) -> None:
        """Accept one freshly executed cell: record, cache, account, log."""
        records[index] = record
        stats.executed += 1
        if cache is not None:
            cache.store(cell, record)
        _note_cell(obs, cell, record, index, len(tasks), source="run")

    if jobs > 1 and len(parallel) > 1:
        # Spawned children cannot reach the parent's sink; when the
        # parent is tracing, each child writes a private per-cell JSONL
        # file that the parent adopts (re-emits, then deletes) as the
        # cell finishes — same event set as a serial run, completion
        # order.
        trace_dir = (
            tempfile.mkdtemp(prefix="repro-sweep-trace-")
            if obs.enabled and obs.sink is not NULL_SINK
            else None
        )
        payloads = [
            (
                index,
                cell,
                os.path.join(trace_dir, f"cell-{index}.jsonl")
                if trace_dir
                else None,
            )
            for index, cell in parallel
        ]
        try:
            context = multiprocessing.get_context("spawn")
            with context.Pool(processes=min(jobs, len(parallel))) as pool:
                for index, payload in pool.imap_unordered(
                    _execute_cell, payloads
                ):
                    record = CellRecord.from_dict(payload)
                    if trace_dir:
                        _adopt_cell_trace(
                            obs,
                            os.path.join(trace_dir, f"cell-{index}.jsonl"),
                        )
                    finish(index, tasks[index], record)
        finally:
            if trace_dir:
                shutil.rmtree(trace_dir, ignore_errors=True)
    else:
        for index, cell in parallel:
            # In-process: run_once sees the parent's own instrumentation,
            # so trace events flow straight to the sink; only the per-cell
            # counter deltas need explicit capture.
            before = _counter_values(obs)
            _, payload = _execute_cell((index, cell, None))
            record = CellRecord.from_dict(payload)
            record = replace(
                record, counters=_counter_delta(before, _counter_values(obs))
            )
            finish(index, cell, record)

    if serial:
        _run_serial_backends(serial, port_pool or PortPool(), finish, obs)

    stats.elapsed_seconds = time.perf_counter() - started
    if obs.enabled:
        obs.logger.info(
            "sweep done",
            cells=stats.total_cells,
            executed=stats.executed,
            cached=stats.cached,
            jobs=stats.jobs,
            elapsed_s=round(stats.elapsed_seconds, 3),
        )

    outcome = SweepOutcome(stats=stats)
    for (config, scheduler_name), (start, stop) in zip(specs, spec_slices):
        ordered = [records[index] for index in range(start, stop)]
        cell = _aggregate(CellResult, config, scheduler_name, ordered)
        outcome.cells.append(cell)
        if obs.enabled:
            # Same per-cell summary shape the serial runner records for
            # --metrics-out.  Counter deltas sum over the spec's records:
            # fresh cells captured them at execution time (in the child
            # or around the in-parent run) and cached cells persisted
            # them in their cache records, so a resumed sweep reports the
            # same totals as the run that populated the cache.
            summed: Dict[str, float] = {}
            for record in ordered:
                for key, value in record.counters.items():
                    summed[key] = summed.get(key, 0) + value
            obs.record_cell(
                {
                    "scheduler": scheduler_name,
                    "backend": config.backend,
                    "processors": config.num_processors,
                    "replication": config.replication_rate,
                    "slack_factor": config.slack_factor,
                    "transactions": config.num_transactions,
                    "runs": config.runs,
                    "mean_hit_percent": cell.mean_hit_percent,
                    "mean_dead_end_rate": cell.mean_dead_end_rate,
                    "scheduled_but_missed": cell.scheduled_but_missed,
                    "counters": summed,
                }
            )
    return outcome


def _run_serial_backends(items, port_pool: PortPool, finish, obs) -> None:
    """Run live-cluster cells one at a time on leased master ports.

    Each cell spawns its own worker processes, so concurrency here would
    multiply process counts and risk port collisions; serialized on the
    pool, consecutive masters can never contend for one listener.  Runs
    in the parent, so trace events reach the sink directly; counter
    deltas are captured per cell like the serial runner does.
    """
    from ..runtime.backend import get_backend
    from .runner import run_once

    for index, cell in items:
        with port_pool.lease() as port:
            backend = get_backend(cell.config.backend)
            if port and hasattr(backend, "with_port"):
                backend = backend.with_port(port)
            before = _counter_values(obs)
            start = time.perf_counter()
            report = run_once(
                cell.config, cell.scheduler_name, cell.seed, backend=backend
            )
            elapsed = time.perf_counter() - start
        record = replace(
            CellRecord.from_report(report, elapsed_seconds=elapsed),
            counters=_counter_delta(before, _counter_values(obs)),
        )
        finish(index, cell, record)


def _counter_values(obs) -> Dict[str, float]:
    """Flat ``format_key -> value`` view of the registry's counters."""
    if not obs.enabled:
        return {}
    return dict(obs.metrics.snapshot()["counters"])


def _counter_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Counters that moved between two :func:`_counter_values` snapshots."""
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value != before.get(key, 0)
    }


def _adopt_cell_trace(obs, path: str) -> None:
    """Re-emit one pool child's private trace file into the parent sink.

    Unreadable or half-written files are skipped, never fatal: a child
    that died mid-write already failed louder elsewhere, and a trace must
    not take the sweep down with it.  The file is deleted after adoption.
    """
    try:
        events = read_jsonl(path)
    except (OSError, ValueError):
        return
    for event in events:
        obs.sink.emit(event)
    try:
        os.unlink(path)
    except OSError:
        pass


def _aggregate(cell_result_cls, config, scheduler_name, records):
    """Fold per-seed records into one ``CellResult`` in seed order.

    Identical arithmetic to the serial ``run_cell`` loop — append per
    repetition, sum the violations — so cached, pooled, and in-process
    paths cannot diverge even in float rounding.
    """
    return cell_result_cls(
        scheduler_name=scheduler_name,
        config=config,
        hit_percents=[r.hit_percent for r in records],
        dead_end_rates=[r.dead_end_rate for r in records],
        mean_depths=[r.mean_depth for r in records],
        processors_touched=[r.mean_processors_touched for r in records],
        scheduling_times=[r.total_scheduling_time for r in records],
        makespans=[r.makespan for r in records],
        scheduled_but_missed=sum(r.guaranteed_violations for r in records),
        regrets=[dict(r.regret) for r in records],
    )


def _note_cell(
    obs, cell: SweepCell, record: CellRecord, index: int, total: int,
    *, source: str,
) -> None:
    """Per-cell observability: progress line, timing histogram, counters."""
    if not obs.enabled:
        return
    obs.metrics.counter("sweep_cells", source=source).inc()
    if source == "run":
        obs.metrics.histogram(
            "sweep_cell_seconds",
            scheduler=cell.scheduler_name,
            backend=record.backend,
        ).observe(record.elapsed_seconds)
    obs.logger.info(
        "cell done",
        cell=f"{index + 1}/{total}",
        scheduler=cell.scheduler_name,
        seed=cell.seed,
        backend=record.backend,
        processors=cell.config.num_processors,
        replication=cell.config.replication_rate,
        hit_percent=round(record.hit_percent, 2),
        source=source,
        elapsed_s=round(record.elapsed_seconds, 3),
    )
